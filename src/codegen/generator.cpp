#include "codegen/generator.hpp"

#include <memory>
#include <stdexcept>

#include "codegen/c_emitter.hpp"
#include "util/strings.hpp"

namespace iecd::codegen {

Generator::Generator() {
  hooks_.push_back(std::make_unique<BeanAutoConfigHook>());
}

void Generator::add_hook(std::unique_ptr<RtwHook> hook) {
  hooks_.push_back(std::move(hook));
}

std::vector<TargetIo*> Generator::find_io_blocks(
    model::Subsystem& controller) {
  std::vector<TargetIo*> io;
  for (const auto& b : controller.inner().blocks()) {
    if (auto* t = dynamic_cast<TargetIo*>(b.get())) io.push_back(t);
  }
  return io;
}

void Generator::restore_mil_mode(model::Subsystem& controller) {
  for (TargetIo* io : find_io_blocks(controller)) {
    io->set_mode(IoMode::kMil);
  }
}

GeneratedApplication Generator::generate(model::Subsystem& controller,
                                         beans::BeanProject& project,
                                         const GeneratorOptions& options,
                                         util::DiagnosticList* diagnostics) {
  const model::SampleTime st = controller.sample_time();
  if (st.kind != model::SampleTime::Kind::kDiscrete || !(st.period > 0)) {
    throw std::invalid_argument(
        "Generator: controller subsystem needs a discrete sample time (the "
        "control period)");
  }
  if (options.pil && !options.pil_buffer) {
    throw std::invalid_argument("Generator: PIL variant needs a pil_buffer");
  }
  // The periodic task runs the controller interior's schedule; it is
  // resolved before the interior initializes.  The interior inherits the
  // control period.
  auto schedule = std::make_shared<model::Schedule>(controller.inner());
  schedule->refresh();
  controller.set_resolved_period(st.period);
  controller.set_resolved_continuous(false);
  controller.initialize(model::SimContext{0.0, st.period, false});

  GenContext gctx;
  gctx.controller = &controller;
  gctx.project = &project;
  gctx.io_blocks = find_io_blocks(controller);
  gctx.period_s = st.period;
  gctx.fixed_point = options.fixed_point;
  gctx.pil = options.pil;

  for (auto& hook : hooks_) hook->before_generate(gctx);

  // Switch IO blocks to the generated-code behaviour; register PIL slots.
  std::vector<TargetIo*> inputs;
  std::vector<TargetIo*> outputs;
  for (TargetIo* io : gctx.io_blocks) {
    io->set_mode(options.pil ? IoMode::kPil : IoMode::kTarget);
    if (options.pil) {
      auto* block = dynamic_cast<model::Block*>(io);
      if (io->io_direction() == IoDirection::kInput) {
        options.pil_buffer->add_input(block->name());
      } else if (io->io_direction() == IoDirection::kOutput) {
        options.pil_buffer->add_output(block->name());
      }
      io->set_pil_buffer(options.pil_buffer);
    }
    switch (io->io_direction()) {
      case IoDirection::kInput:
        inputs.push_back(io);
        break;
      case IoDirection::kOutput:
        outputs.push_back(io);
        break;
      case IoDirection::kEvent:
        break;
    }
  }

  GeneratedApplication app;
  app.name = options.app_name;
  app.fixed_point = options.fixed_point;
  app.pil_variant = options.pil;
  app.derivative = project.cpu().derivative().name;

  // --- Periodic model-step task: the controller interior's schedule ---
  TaskSpec step;
  step.name = options.app_name + "_step";
  step.trigger = TaskSpec::Trigger::kPeriodic;
  step.period_s = st.period;
  step.read = [inputs](const model::SimContext& ctx) {
    for (TargetIo* io : inputs) io->target_read(ctx);
  };
  step.compute = [schedule](const model::SimContext& ctx) {
    schedule->refresh();
    schedule->outputs(ctx);
    schedule->updates(ctx);
  };
  step.write = [outputs](const model::SimContext& ctx) {
    for (TargetIo* io : outputs) io->target_write(ctx);
  };
  mcu::OpCounts ops;
  std::uint32_t data_bytes = 64;  // runtime bookkeeping
  std::size_t block_count = 0;
  for (const auto& b : controller.inner().blocks()) {
    ++block_count;
    if (dynamic_cast<model::FunctionCallSubsystem*>(b.get())) {
      continue;  // event tasks priced separately
    }
    ops += b->step_ops(options.fixed_point);
    data_bytes += b->state_bytes();
    for (int p = 0; p < b->output_count(); ++p) {
      data_bytes += options.fixed_point
                        ? 2
                        : model::storage_bytes(b->output_type(p));
    }
  }
  for (TargetIo* io : gctx.io_blocks) {
    ops += io->io_ops();
    step.extra_cycles += io->extra_cycles(project.cpu().derivative());
  }
  step.ops = ops;
  step.stack_bytes = static_cast<std::uint32_t>(128 + 2 * block_count);
  app.tasks.push_back(std::move(step));

  // --- Event-driven tasks (function-call subsystems on bean events) ---
  for (TargetIo* io : gctx.io_blocks) {
    for (const auto& binding : io->event_bindings()) {
      TaskSpec evt;
      evt.name = util::sanitize_c_identifier(io->bean_name() + "_" +
                                             binding.event);
      evt.trigger = TaskSpec::Trigger::kEvent;
      evt.event_bean = io->bean_name();
      evt.event_name = binding.event;
      model::FunctionCallSubsystem* fc = binding.target;
      evt.compute = [fc](const model::SimContext& ctx) { fc->trigger(ctx); };
      evt.ops = fc->step_ops(options.fixed_point);
      evt.stack_bytes = 96;
      data_bytes += fc->state_bytes();
      app.tasks.push_back(std::move(evt));
    }
  }

  // --- Init ---
  std::vector<TargetIo*> all_io = gctx.io_blocks;
  app.init = [all_io](const model::SimContext& ctx) {
    for (TargetIo* io : all_io) io->target_init(ctx);
  };

  // --- Emitted sources ---
  EmitterOptions eopts;
  eopts.app_name = options.app_name;
  eopts.fixed_point = options.fixed_point;
  eopts.pil = options.pil;
  eopts.period_s = st.period;
  eopts.api = options.api;
  app.sources = CEmitter(controller, project, eopts).emit();

  // --- Memory estimate ---
  app.memory.data_bytes = data_bytes;
  std::uint64_t instr = 0;
  for (const auto& t : app.tasks) {
    instr += t.ops.alu16 + t.ops.mul16 + t.ops.div16 + t.ops.alu32 +
             t.ops.mul32 + t.ops.div32 + t.ops.fadd + t.ops.fmul +
             t.ops.fdiv + t.ops.mem + t.ops.branch;
  }
  // ~3 bytes per elementary op on a 16-bit target, plus the runtime kernel
  // and one driver stub per bean.
  app.memory.code_bytes = static_cast<std::uint32_t>(
      instr * 3 + 2048 + 512 * project.beans().size());
  std::uint32_t max_stack = 0;
  for (const auto& t : app.tasks) {
    max_stack = std::max(max_stack, t.stack_bytes);
  }
  app.memory.stack_bytes = max_stack;

  // Charge against the derivative so over-capacity ports are caught here.
  const auto& mem = project.cpu().derivative().memory;
  if (app.memory.code_bytes > mem.flash_bytes) {
    gctx.diagnostics.error(
        "codegen.memory",
        util::format("estimated code %u B exceeds %u B flash",
                     app.memory.code_bytes, mem.flash_bytes));
  }
  if (app.memory.data_bytes + app.memory.stack_bytes > mem.ram_bytes) {
    gctx.diagnostics.error(
        "codegen.memory",
        util::format("estimated data+stack %u B exceeds %u B RAM",
                     app.memory.data_bytes + app.memory.stack_bytes,
                     mem.ram_bytes));
  }

  for (auto& hook : hooks_) hook->after_generate(gctx, app);
  if (diagnostics) diagnostics->merge(gctx.diagnostics);
  return app;
}

}  // namespace iecd::codegen
