/// \file block.hpp
/// Block base class of the data-flow modelling environment.  A block has
/// typed output ports, input connections, a sample time, optional internal
/// continuous states, and three execution hooks mirroring Simulink's
/// semantics: output() (compute outputs), update() (advance discrete
/// state), derivatives() (continuous state slopes for the solver).  Blocks
/// also carry the code-generation hooks: per-step operation counts for the
/// target cost model, state/output storage sizes, and a C emitter (the
/// per-block "TLC script").  A block owns its output values for its
/// lifetime; each input reads through one cached pointer to the output of
/// the block that computes it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mcu/cost_model.hpp"
#include "model/value.hpp"

namespace iecd::model {

class Block;
class Model;

/// Context handed to every execution hook.
struct SimContext {
  double t = 0.0;      ///< current simulated time [s]
  double dt = 0.0;     ///< base (major) step of the engine [s]
  bool minor = false;  ///< true inside solver minor (derivative) evaluations
};

struct SampleTime {
  enum class Kind { kContinuous, kDiscrete, kInherited };
  Kind kind = Kind::kInherited;
  double period = 0.0;  ///< [s], kDiscrete only
  double offset = 0.0;  ///< [s], kDiscrete only

  static SampleTime continuous() {
    return {Kind::kContinuous, 0.0, 0.0};
  }
  static SampleTime discrete(double period, double offset = 0.0) {
    return {Kind::kDiscrete, period, offset};
  }
  static SampleTime inherited() { return {Kind::kInherited, 0.0, 0.0}; }
};

/// Name resolution context for the per-block C emitters: maps ports to the
/// C variable names the generator assigned.
struct EmitContext {
  std::vector<std::string> inputs;   ///< C expression per input port
  std::vector<std::string> outputs;  ///< C lvalue per output port
  std::string state_prefix;          ///< prefix for state variables
  bool fixed_point = false;          ///< emit integer arithmetic
};

class Block {
 public:
  Block(std::string name, int inputs, int outputs);
  virtual ~Block() = default;

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  const std::string& name() const { return name_; }
  void rename(std::string name) { name_ = std::move(name); }

  /// Block type for reports/emitters, e.g. "Gain".
  virtual const char* type_name() const = 0;

  int input_count() const { return static_cast<int>(inputs_.size()); }
  int output_count() const { return static_cast<int>(outputs_.size()); }

  // --- Types ---
  void set_output_type(int port, DataType type,
                       std::optional<fixpt::FixedFormat> fmt = std::nullopt);
  DataType output_type(int port) const;
  const std::optional<fixpt::FixedFormat>& output_format(int port) const;

  // --- Sample time ---
  SampleTime sample_time() const { return sample_time_; }
  void set_sample_time(SampleTime st) { sample_time_ = st; }
  /// Engine-resolved effective period (for discrete state updates).
  double resolved_period() const { return resolved_period_; }
  void set_resolved_period(double p) { resolved_period_ = p; }
  /// Engine-resolved continuity (after inheritance propagation).
  bool resolved_continuous() const { return resolved_continuous_; }
  void set_resolved_continuous(bool c) { resolved_continuous_ = c; }

  /// False for blocks whose outputs do not depend on current inputs
  /// (UnitDelay, Integrator, ...) — these break algebraic loops.
  virtual bool has_direct_feedthrough() const { return true; }

  // --- Execution hooks ---
  virtual void initialize(const SimContext& ctx);
  virtual void output(const SimContext& ctx) = 0;
  virtual void update(const SimContext& ctx) { (void)ctx; }

  // --- Continuous states ---
  virtual int continuous_state_count() const { return 0; }
  virtual void read_states(std::span<double> into) const { (void)into; }
  virtual void write_states(std::span<const double> from) { (void)from; }
  virtual void derivatives(const SimContext& ctx, std::span<double> dx) const {
    (void)ctx;
    (void)dx;
  }

  // --- Code generation hooks ---
  /// Elementary operations one step of this block costs on the target.
  virtual mcu::OpCounts step_ops(bool fixed_point) const;
  /// Discrete state bytes this block needs in the generated application.
  virtual std::uint32_t state_bytes() const { return 0; }
  /// Emits the C statement(s) computing this block's outputs.
  virtual std::string emit_c(const EmitContext& ctx) const;
  /// Emits the C statement(s) advancing this block's discrete state; they
  /// run after ALL outputs of the step, exactly like the engine's update
  /// phase (empty for stateless blocks).
  virtual std::string emit_c_update(const EmitContext& ctx) const {
    (void)ctx;
    return {};
  }

  // --- Port access ---
  /// Latched output value.  The block owns its output storage for its
  /// whole lifetime, so a reference stays valid across graph edits.
  const Value& out(int port) const {
    if (static_cast<std::size_t>(port) >= outputs_.size()) {
      throw_bad_port(port, /*output=*/true);
    }
    return outputs_[static_cast<std::size_t>(port)];
  }
  /// Latched value of the block computing input \p port, through one
  /// cached pointer per input: Model::connect points it at the connected
  /// output, and a Schedule re-points it at the block that computes the
  /// input (model::driver(), which sees through subsystem boundaries)
  /// before any block of the model reads an input.  Unconnected inputs
  /// read 0.0.
  const Value& in_value(int port) const {
    const auto p = static_cast<std::size_t>(port);
    if (p >= sources_.size()) throw_bad_port(port, /*output=*/false);
    return *sources_[p];
  }
  bool input_connected(int port) const;

  struct Connection {
    const Block* src = nullptr;
    int src_port = 0;
  };
  const Connection& input(int port) const;
  /// The model this block was added to (null for a free-standing block).
  const Model* owner() const { return owner_; }

 protected:
  /// Writes an output, quantizing to the port's declared type.  The
  /// dominant double->double case is a single store.
  void set_out(int port, double real) {
    const auto p = static_cast<std::size_t>(port);
    if (p >= outputs_.size()) throw_bad_port(port, /*output=*/true);
    if (out_types_[p] == DataType::kDouble) {
      outputs_[p].assign_double(real);
    } else {
      outputs_[p] = Value::quantize(real, out_types_[p], out_fmts_[p]);
    }
  }
  double in(int port) const { return in_value(port).as_double(); }
  bool in_bool(int port) const { return in_value(port).as_bool(); }
  /// The value \p c reads: its source's latched output, or a shared 0.0
  /// when unconnected.
  static const Value& value_at(const Connection& c);

 private:
  friend class Model;
  friend class Schedule;

  [[noreturn]] void throw_bad_port(int port, bool output) const;

  std::string name_;
  std::vector<Connection> inputs_;
  std::vector<Value> outputs_;
  std::vector<DataType> out_types_;
  std::vector<std::optional<fixpt::FixedFormat>> out_fmts_;
  SampleTime sample_time_ = SampleTime::inherited();
  double resolved_period_ = 0.0;
  bool resolved_continuous_ = false;
  /// Per-input pointer to the value in_value() reads (see there).
  std::vector<const Value*> sources_;
  const Model* owner_ = nullptr;
};

}  // namespace iecd::model
