/// \file subsystem.hpp
/// Hierarchical composition: a Subsystem is a block containing a nested
/// model with Inport/Outport boundary blocks.  The paper's "single model
/// approach" builds on exactly two of these — the plant subsystem and the
/// controller subsystem in a closed loop — with code generated for the
/// controller subsystem only.  Function-call subsystems are not scheduled
/// periodically: a bean event (interrupt) or chart transition triggers each
/// execution, giving the event-driven part of the application.
///
/// A boundary is a naming fact, not a copy: driver() maps an input to the
/// block that computes it, seeing through Inports and Outports, and a
/// Schedule caches that answer for every block it runs.  Inports therefore
/// never run, and Outports run only as the outputs of the scheduled model
/// itself (a generated task's).
#pragma once

#include <functional>
#include <memory>

#include "model/block.hpp"
#include "model/model.hpp"

namespace iecd::model {

/// The block and output port computing input \p port of \p b, and so the
/// one rule for what a signal crossing a subsystem boundary reads (the
/// engine's schedules and the C emitter both use it).  The walk follows an
/// Inport to the input of the subsystem it is bound to, and an Outport to
/// its own input.  It ends at any other block: subsystem outputs,
/// function-call ones included, are latched by their publish.  It also
/// ends at an unbound Inport and at the Inports bound to \p boundary.
/// Unconnected inputs give {nullptr, 0}.
Block::Connection driver(const Block& b, int port,
                         const Block* boundary = nullptr);

/// Boundary block: presents a subsystem input inside the nested model
/// (bound by bind_ports()).  Blocks reading it see through it to the
/// subsystem's driver, so no Schedule runs it.
class Inport : public Block {
 public:
  explicit Inport(std::string name) : Block(std::move(name), 0, 1) {}
  const char* type_name() const override { return "Inport"; }
  void output(const SimContext&) override {}

  /// The subsystem whose input this presents (null until bind_ports()),
  /// and that input's index.
  const Block* parent() const { return parent_; }
  int port() const { return port_; }

 private:
  friend class Subsystem;
  const Block* parent_ = nullptr;
  int port_ = 0;
};

/// Boundary block: exposes a value as a subsystem output.  The subsystem's
/// publish reads its driver directly; a Schedule runs only the scheduled
/// model's own Outports, which latch that model's outputs.
class Outport : public Block {
 public:
  explicit Outport(std::string name) : Block(std::move(name), 1, 1) {}
  const char* type_name() const override { return "Outport"; }
  void output(const SimContext&) override { set_out(0, in(0)); }
};

/// An atomic subsystem.  The schedule that contains it runs its interior
/// (expanded in place, in the interior's data-flow order) on every tick the
/// subsystem is due, then the subsystem's own output(), which publishes the
/// drivers of the interior Outports as the subsystem's outputs.  Interior
/// blocks inherit the subsystem's resolved rate unless they declare their
/// own.
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
  /// Publishes the interior Outports' drivers as the subsystem's outputs.
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
/// subsystem block itself.  No Inport is an entry, nor any Outport but the
/// model's own: every input of the flattened models reads the block
/// driver() names.  A FunctionCallSubsystem stays one opaque entry.
class Schedule {
 public:
  /// A block and the run of flattened entries [begin, end) it expands to.
  struct Unit {
    Block* root = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  explicit Schedule(const Model& model) : model_(&model) {}

  /// Flattens and resolves every input on first use, and again whenever
  /// a model it covers was edited since: the model, every model nested in
  /// it, and the models its own Inports reach up to.  Returns true when it
  /// rebuilt.  Runners call it before any block of the model reads an
  /// input, initialize() included, so no input reads a removed block.
  bool refresh();
  /// The flattened order alone: blocks(), units() and subsystems() as
  /// refresh() builds them, with no input pointed anywhere, so a const
  /// pass (the C emitter) reads the order without writing the blocks.  The
  /// schedule stays stale: a later refresh() still resolves.
  void flatten();

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
  /// Flattens the model into this empty schedule, recording the epochs of
  /// the models it expands.
  void build();
  /// Appends \p b, an atomic subsystem preceded by its interior.
  void expand(Block* b);

  const Model* model_;
  std::vector<Block*> blocks_;
  std::vector<Unit> units_;
  std::vector<Unit> subsystems_;
  /// Order epoch at the last build of the model and of every expanded
  /// nested model, parents before children, then of each enclosing model
  /// the model's own Inports reach.
  std::vector<std::pair<const Model*, std::uint64_t>> epochs_;
};

/// A subsystem executed only when explicitly triggered (by a bean event in
/// the generated application, or by the simulated event source in MIL).
class FunctionCallSubsystem : public Subsystem {
 public:
  using Subsystem::Subsystem;

  const char* type_name() const override { return "FunctionCallSubSystem"; }

  /// Resolves the interior's inputs, then initializes it.
  void initialize(const SimContext& ctx) override;
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
