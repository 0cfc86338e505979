#include "codegen/c_emitter.hpp"

#include <unordered_map>

#include "beans/autosar.hpp"
#include "codegen/target_io.hpp"
#include "util/strings.hpp"

namespace iecd::codegen {

namespace {

const char* c_type_of(model::DataType type, bool fixed_point) {
  switch (type) {
    case model::DataType::kDouble:
      return fixed_point ? "int16_T" : "real_T";
    case model::DataType::kBool:
      return "boolean_T";
    case model::DataType::kInt8:
      return "int8_T";
    case model::DataType::kUint8:
      return "uint8_T";
    case model::DataType::kInt16:
      return "int16_T";
    case model::DataType::kUint16:
      return "uint16_T";
    case model::DataType::kInt32:
      return "int32_T";
    case model::DataType::kUint32:
      return "uint32_T";
    case model::DataType::kFixed:
      return "int16_T";
  }
  return "real_T";
}

bool is_function_call(const model::Block* b) {
  return dynamic_cast<const model::FunctionCallSubsystem*>(b) != nullptr;
}

/// The emitted block graphs, each in the order of the model::Schedule its
/// generated task runs: the periodic step over the controller's interior
/// (every nested atomic subsystem expanded in place into its interior,
/// then the subsystem entry, which publishes its outputs), and one event
/// task per function-call subsystem of the step.  Signals and states are
/// named by scope: "<subsystem>_" per level of nesting, and
/// "<function-call subsystem>_" for an event task's body.
class FlatGraph {
 public:
  FlatGraph(const model::Subsystem& controller, bool fixed_point)
      : controller_(controller), fixed_point_(fixed_point) {
    step_ = add(controller.inner(), "");
    for (const model::Block* b : step_) {
      if (is_function_call(b)) {
        tasks_[b] = add(static_cast<const model::Subsystem*>(b)->inner(),
                        qualified_name(b) + "_");
      }
    }
  }

  const std::vector<model::Block*>& step() const { return step_; }
  /// The body of the event task function-call subsystem \p fc triggers.
  const std::vector<model::Block*>& task(const model::Block* fc) const {
    return tasks_.at(fc);
  }

  /// Scope-qualified sanitized name of \p b (the event-task name).
  std::string qualified_name(const model::Block* b) const {
    return scope_.at(b) + util::sanitize_c_identifier(b->name());
  }

  /// C variable holding output \p port of \p b: "rtb_", the qualified
  /// name, and a port suffix when the block has several outputs.
  std::string variable(const model::Block* b, int port) const {
    std::string var = "rtb_" + qualified_name(b);
    if (b->output_count() > 1) {
      var += '_';
      var += std::to_string(port);
    }
    return var;
  }

  /// C expression feeding input \p i of \p b: the variable of the block
  /// computing it (model::driver()).  The controller's own Inports are the
  /// hardware boundary.
  std::string input(const model::Block* b, int i) const {
    const model::Block::Connection d = model::driver(*b, i, &controller_);
    if (d.src == nullptr) return "0";
    if (dynamic_cast<const model::Inport*>(d.src) != nullptr) {
      return "0 /* boundary */";
    }
    return variable(d.src, d.src_port);
  }

  model::EmitContext context(const model::Block* b) const {
    model::EmitContext ectx;
    ectx.fixed_point = fixed_point_;
    ectx.state_prefix = "rtDW_" + qualified_name(b) + "_";
    for (int i = 0; i < b->input_count(); ++i) {
      ectx.inputs.push_back(input(b, i));
    }
    for (int p = 0; p < b->output_count(); ++p) {
      ectx.outputs.push_back(variable(b, p));
    }
    return ectx;
  }

  /// Copies the drivers of \p sub's interior Outports to its outputs.
  std::string publish(const model::Subsystem& sub) const {
    std::string out;
    const auto& outports = sub.outports();
    for (std::size_t p = 0; p < outports.size(); ++p) {
      const int port = static_cast<int>(p);
      out += util::format("%s = %s;  /* %s output %d */\n",
                          variable(&sub, port).c_str(),
                          input(outports[p], 0).c_str(), sub.name().c_str(),
                          port);
    }
    return out;
  }

  /// One statement group per block: its output, or a nested subsystem's
  /// publish step.
  std::string emit_output(const model::Block* b) const {
    const auto* sub = dynamic_cast<const model::Subsystem*>(b);
    if (sub != nullptr && !is_function_call(b)) return publish(*sub);
    return b->emit_c(context(b));
  }

 private:
  /// The entries of \p model's schedule, named under \p base, without
  /// its own Outports: the emitted step writes its outputs through the IO
  /// beans, and an event task through its subsystem's publish.
  std::vector<model::Block*> add(const model::Model& model,
                                 const std::string& base) {
    model::Schedule schedule(model);
    schedule.flatten();
    std::vector<model::Block*> entries = schedule.blocks();
    for (const model::Block* b : entries) scope_[b] = base;
    // Outer subsystems come first, so an inner one's scope is known when
    // its interior is named.
    for (const auto& sub : schedule.subsystems()) {
      const std::string inner =
          scope_[sub.root] + util::sanitize_c_identifier(sub.root->name()) +
          "_";
      for (std::size_t i = sub.begin; i + 1 < sub.end; ++i) {
        scope_[entries[i]] = inner;
      }
    }
    std::erase_if(entries, [](const model::Block* b) {
      return dynamic_cast<const model::Outport*>(b) != nullptr;
    });
    return entries;
  }

  const model::Subsystem& controller_;
  bool fixed_point_;
  std::vector<model::Block*> step_;
  std::unordered_map<const model::Block*, std::vector<model::Block*>> tasks_;
  std::unordered_map<const model::Block*, std::string> scope_;
};

}  // namespace

CEmitter::CEmitter(const model::Subsystem& controller,
                   const beans::BeanProject& project, EmitterOptions options)
    : controller_(controller), project_(project), options_(options) {}

std::string CEmitter::emit_header() const {
  std::string h;
  h += util::format("/* %s.h -- generated by PEERT (%s target, %s). */\n",
                    options_.app_name.c_str(),
                    options_.pil ? "PIL" : "embedded",
                    options_.fixed_point ? "fixed-point" : "double");
  h += util::format("#ifndef __%s_h\n#define __%s_h\n\n",
                    options_.app_name.c_str(), options_.app_name.c_str());
  h += "#include \"PE_Types.h\"\n\n";
  h += "typedef double real_T;\n";
  h += "typedef signed short int16_T;\n";
  h += "typedef unsigned short uint16_T;\n";
  h += "typedef signed long int32_T;\n";
  h += "typedef unsigned long uint32_T;\n";
  h += "typedef unsigned char boolean_T;\n";
  h += "typedef signed char int8_T;\n";
  h += "typedef unsigned char uint8_T;\n\n";
  h += util::format("void %s_initialize(void);\n", options_.app_name.c_str());
  h += util::format("void %s_step(void);  /* period %.9g s */\n",
                    options_.app_name.c_str(), options_.period_s);
  h += util::format("\n#endif /* __%s_h */\n", options_.app_name.c_str());
  return h;
}

std::string CEmitter::emit_step_source() const {
  const FlatGraph graph(controller_, options_.fixed_point);

  std::string c;
  c += util::format("/* %s.c -- model step function, one statement group per "
                    "block in data-flow order. */\n",
                    options_.app_name.c_str());
  c += util::format("#include \"%s.h\"\n\n", options_.app_name.c_str());

  // Signal declarations (step entries, then event-task interiors).
  const auto declare = [&](const model::Block* b) {
    for (int p = 0; p < b->output_count(); ++p) {
      c += util::format("static %s %s;\n",
                        c_type_of(b->output_type(p), options_.fixed_point),
                        graph.variable(b, p).c_str());
    }
  };
  for (const model::Block* b : graph.step()) {
    declare(b);
    if (!is_function_call(b)) continue;
    for (const model::Block* ib : graph.task(b)) declare(ib);
  }
  c += "\n";
  if (options_.fixed_point) {
    c += "static int16_T sat16(int32_T v) {\n"
         "  if (v > 32767) return 32767;\n"
         "  if (v < -32768) return -32768;\n"
         "  return (int16_T)v;\n}\n\n";
  }

  // Hardware access through the selected API flavour: PE bean methods or
  // AUTOSAR MCAL calls (PIL redirection is identical in both variants).
  const auto hw_access = [&](const TargetIo* io, const std::string& var,
                             bool is_input) -> std::string {
    if (options_.pil) return io->emit_target_c(true, var);
    if (options_.api == beans::DriverApi::kAutosar) {
      const beans::Bean* bean = project_.find(io->bean_name());
      if (bean) return beans::autosar::emit_access(*bean, var, is_input);
    }
    return io->emit_target_c(false, var);
  };
  const auto is_algorithm_block = [&](const model::Block* b) {
    if (dynamic_cast<const TargetIo*>(b)) return false;
    if (is_function_call(b)) return false;
    if (b->output_count() == 0 && b->input_count() > 0) return false;  // sink
    return true;
  };

  c += util::format("void %s_step(void) {\n", options_.app_name.c_str());
  // Hardware reads first.
  for (const model::Block* b : graph.step()) {
    const auto* io = dynamic_cast<const TargetIo*>(b);
    if (io && io->io_direction() == IoDirection::kInput) {
      c += util::indent(hw_access(io, graph.variable(b, 0), true), 2);
    }
  }
  // Output phase: algorithm blocks in schedule order.
  for (const model::Block* b : graph.step()) {
    if (is_algorithm_block(b)) c += util::indent(graph.emit_output(b), 2);
  }
  // Update phase: discrete states advance after all outputs (mirrors the
  // engine's output/update split).
  for (const model::Block* b : graph.step()) {
    if (is_algorithm_block(b)) {
      c += util::indent(b->emit_c_update(graph.context(b)), 2);
    }
  }
  // Hardware writes last.
  for (const model::Block* b : graph.step()) {
    const auto* io = dynamic_cast<const TargetIo*>(b);
    if (io && io->io_direction() == IoDirection::kOutput) {
      const std::string src = b->input_count() > 0 ? graph.input(b, 0) : "0";
      c += util::indent(hw_access(io, src, false), 2);
    }
  }
  c += "}\n";

  // Event-driven tasks: each function-call subsystem becomes a function
  // invoked from its bean event's ISR.
  for (const model::Block* b : graph.step()) {
    if (!is_function_call(b)) continue;
    c += util::format(
        "\n/* event task: triggered by its bean event's ISR */\n"
        "void %s_task(void) {\n",
        graph.qualified_name(b).c_str());
    for (const model::Block* ib : graph.task(b)) {
      c += util::indent(graph.emit_output(ib), 2);
    }
    for (const model::Block* ib : graph.task(b)) {
      c += util::indent(ib->emit_c_update(graph.context(ib)), 2);
    }
    // Latch the subsystem outputs the periodic code reads.
    c += util::indent(
        graph.publish(static_cast<const model::Subsystem&>(*b)), 2);
    c += "}\n";
  }
  return c;
}

std::string CEmitter::emit_main() const {
  std::string c;
  c += "/* main.c -- real-time execution infrastructure: the periodic model\n"
       " * step runs non-preemptively in the timer interrupt; event tasks in\n"
       " * their peripheral ISRs; main() only initializes and idles. */\n";
  c += util::format("#include \"%s.h\"\n", options_.app_name.c_str());
  for (const auto& bean : project_.beans()) {
    c += util::format("#include \"%s.h\"\n", bean->name().c_str());
  }
  c += "\n";
  c += util::format(
      "ISR(TimerInt_OnInterrupt) {\n"
      "  %s_step();  /* non-preemptive periodic model code */\n"
      "}\n\n",
      options_.app_name.c_str());
  c += util::format(
      "int main(void) {\n"
      "  PE_low_level_init();\n"
      "  %s_initialize();\n"
      "  for (;;) {\n"
      "    /* background task (manually written code may run here) */\n"
      "  }\n"
      "}\n",
      options_.app_name.c_str());
  return c;
}

std::map<std::string, std::string> CEmitter::emit() const {
  std::map<std::string, std::string> out;
  out[options_.app_name + ".h"] = emit_header();
  out[options_.app_name + ".c"] = emit_step_source();
  out["main.c"] = emit_main();
  for (const auto& driver : project_.generate_drivers(options_.api)) {
    if (!driver.header_name.empty()) out[driver.header_name] = driver.header;
    if (!driver.source_name.empty()) out[driver.source_name] = driver.source;
  }
  return out;
}

}  // namespace iecd::codegen
