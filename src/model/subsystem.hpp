/// \file subsystem.hpp
/// Hierarchical composition: a Subsystem is a block containing a nested
/// model with Inport/Outport boundary blocks.  The paper's "single model
/// approach" builds on exactly two of these — the plant subsystem and the
/// controller subsystem in a closed loop — with code generated for the
/// controller subsystem only.  Function-call subsystems are not scheduled
/// periodically: a bean event (interrupt) or chart transition triggers each
/// execution, giving the event-driven part of the application.
#pragma once

#include <functional>
#include <memory>

#include "model/block.hpp"
#include "model/model.hpp"

namespace iecd::model {

/// Boundary block: presents a subsystem input inside the nested model by
/// reading the enclosing subsystem's input port (bound by bind_ports()).
class Inport : public Block {
 public:
  explicit Inport(std::string name) : Block(std::move(name), 0, 1) {}
  const char* type_name() const override { return "Inport"; }
  void output(const SimContext&) override {
    if (parent_ != nullptr) set_out_value(0, parent_->in_value(port_));
  }

  /// The subsystem whose input this presents (null until bind_ports()),
  /// and that input's index.
  const Block* parent() const { return parent_; }
  int port() const { return port_; }

 private:
  friend class Subsystem;
  const Block* parent_ = nullptr;
  int port_ = 0;
};

/// Boundary block: exposes a value as a subsystem output.
class Outport : public Block {
 public:
  explicit Outport(std::string name) : Block(std::move(name), 1, 1) {}
  const char* type_name() const override { return "Outport"; }
  void output(const SimContext&) override { set_out_value(0, in_value(0)); }
};

/// An atomic subsystem.  The schedule that contains it runs its interior
/// (expanded in place, in the interior's data-flow order) on every tick the
/// subsystem is due, then the subsystem's own output(), which publishes the
/// interior Outports as the subsystem's outputs.  Interior blocks inherit
/// the subsystem's resolved rate unless they declare their own.
class Subsystem : public Block {
 public:
  Subsystem(std::string name, int inputs, int outputs);

  const char* type_name() const override { return "SubSystem"; }

  Model& inner() { return inner_; }
  const Model& inner() const { return inner_; }

  /// Subsystems conservatively report direct feedthrough; a purely dynamic
  /// interior (e.g. a plant whose outputs come from states only) may clear
  /// this to break the apparent loop in the closed-loop top model.
  void set_direct_feedthrough(bool feedthrough) {
    feedthrough_ = feedthrough;
  }
  bool has_direct_feedthrough() const override { return feedthrough_; }

  /// Declares which interior blocks are the boundary ports, in port order.
  /// Must be called once the interior is fully built.
  void bind_ports(std::vector<Inport*> inports, std::vector<Outport*> outports);
  /// The interior Outports, in output-port order.
  const std::vector<Outport*>& outports() const { return outports_; }

  /// Resolves the interior blocks' rates and initializes them.
  void initialize(const SimContext& ctx) override;
  /// Copies the interior Outports to the subsystem's outputs.
  void output(const SimContext& ctx) override;

  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::uint32_t state_bytes() const override;

 protected:
  Model inner_;
  std::vector<Outport*> outports_;
  bool ports_bound_ = false;
  bool feedthrough_ = true;
};

/// The executable form of a model, and the only thing that runs a block
/// graph (the engine, FunctionCallSubsystem::trigger and the generated
/// periodic task): the sorted order with every atomic Subsystem expanded in
/// place into its (recursively flattened) interior, followed by the
/// subsystem block itself.  A FunctionCallSubsystem stays one opaque entry.
/// Each model's Inports run first, so an interior reads the inputs its
/// subsystem has on entry wherever the sort placed them.
class Schedule {
 public:
  /// A block and the run of flattened entries [begin, end) it expands to.
  struct Unit {
    Block* root = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  explicit Schedule(const Model& model) : model_(model) {}

  /// Flattens on first use and again whenever the model or any model
  /// nested in it was edited since.  Returns true when it rebuilt.
  bool refresh();

  const std::vector<Block*>& blocks() const { return blocks_; }
  /// One unit per block of the model's own order; rates are decided per
  /// unit.
  const std::vector<Unit>& units() const { return units_; }
  /// One unit per expanded atomic subsystem at any depth, outer before
  /// inner (ascending begin); its last entry is the subsystem block.
  const std::vector<Unit>& subsystems() const { return subsystems_; }

  /// One activation: every entry's output(), then every entry's update().
  void outputs(const SimContext& ctx) const {
    for (Block* b : blocks_) b->output(ctx);
  }
  void updates(const SimContext& ctx) const {
    for (Block* b : blocks_) b->update(ctx);
  }

 private:
  /// Appends \p b, an atomic subsystem preceded by its interior.
  void expand(Block* b);

  const Model& model_;
  std::vector<Block*> blocks_;
  std::vector<Unit> units_;
  std::vector<Unit> subsystems_;
  /// Order epoch of the model and of every expanded nested model at the
  /// last build, parents before children.
  std::vector<std::pair<const Model*, std::uint64_t>> epochs_;
};

/// A subsystem executed only when explicitly triggered (by a bean event in
/// the generated application, or by the simulated event source in MIL).
class FunctionCallSubsystem : public Subsystem {
 public:
  using Subsystem::Subsystem;

  const char* type_name() const override { return "FunctionCallSubSystem"; }

  /// Periodic execution does nothing: outputs hold their last triggered
  /// values, and only trigger() runs the interior.
  void output(const SimContext& ctx) override { (void)ctx; }

  /// Executes one activation (outputs + updates of the interior).
  void trigger(const SimContext& ctx);

  std::uint64_t activations() const { return activations_; }

 private:
  Schedule schedule_{inner_};
  std::uint64_t activations_ = 0;
};

/// An output event port: blocks that raise events (PE interrupt blocks,
/// charts) hold one of these per event; wiring a FunctionCallSubsystem to
/// it makes the event drive that subsystem.
class EventSource {
 public:
  void attach(FunctionCallSubsystem& subsystem);
  void attach(std::function<void(const SimContext&)> listener);
  void fire(const SimContext& ctx);

 private:
  std::vector<std::function<void(const SimContext&)>> listeners_;
};

}  // namespace iecd::model
