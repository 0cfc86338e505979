/// \file engine.hpp
/// Simulation engine: multirate discrete execution plus a fixed-step RK4
/// solver for continuous states.  This is the MIL (model-in-the-loop)
/// executor of the development cycle — the whole closed loop, plant and
/// controller, runs here before any code generation happens.  It executes
/// the model's Schedule: subsystems are flattened into one block list whose
/// entries run on the tick of the top-level block they expand from.
#pragma once

#include <cstdint>
#include <vector>

#include "model/model.hpp"
#include "model/subsystem.hpp"

namespace iecd::model {

struct EngineOptions {
  double stop_time = 1.0;    ///< [s]
  double base_period = 0.0;  ///< [s]; 0 derives it from the discrete rates
  int minor_steps = 4;       ///< RK4 substeps per major step
};

class Engine {
 public:
  Engine(Model& model, EngineOptions options);

  /// Resolves sample times, initializes blocks, gathers continuous states.
  /// Throws std::logic_error on inconsistent rates or algebraic loops.
  void initialize();

  /// Executes one major step.  Returns false once stop_time is reached.
  bool step();

  /// Runs until stop_time.
  void run();

  /// Steps until time() >= t (used by the PIL host to advance the plant
  /// model in lockstep with the co-simulation world).
  void advance_to(double t);

  double time() const;
  double base_period() const { return base_period_; }

  /// Time of major step \p major on the integer-ns grid of a base period
  /// of \p base_period_ns: no accumulated floating-point drift.
  static double grid_time(std::uint64_t major, std::int64_t base_period_ns) {
    return static_cast<double>(major) * static_cast<double>(base_period_ns) *
           1e-9;
  }

  std::uint64_t major_steps() const { return major_index_; }

 private:
  /// Rate of one schedule unit (a top-level block and everything it
  /// expands to), precomputed so the major-step rate check is pure integer
  /// arithmetic.
  struct ExecUnit {
    std::size_t begin = 0;  ///< flattened entries [begin, end)
    std::size_t end = 0;
    std::uint64_t period_ticks = 0;  ///< 0 = continuous (runs every step)
    std::uint64_t offset_ticks = 0;
  };

  /// A block's continuous states in the solver vectors, cached at build.
  struct StateSlot {
    Block* block = nullptr;
    std::size_t offset = 0;
    std::size_t count = 0;
  };

  static bool due(const ExecUnit& u, std::uint64_t major) {
    if (u.period_ticks == 0) return true;  // continuous
    if (major < u.offset_ticks) return false;
    if (u.period_ticks == 1) return true;  // base rate
    return (major - u.offset_ticks) % u.period_ticks == 0;
  }

  void resolve_sample_times();
  void build_dispatch();
  void eval_derivatives(double t, std::vector<double>& candidate,
                        std::vector<double>& dx);
  void integrate(double t0);

  Model& model_;
  EngineOptions options_;
  double base_period_ = 0.0;
  std::int64_t base_period_ns_ = 0;
  std::uint64_t major_index_ = 0;
  bool initialized_ = false;

  Schedule schedule_;
  std::vector<ExecUnit> exec_;      ///< one per schedule unit, in order
  std::vector<Block*> minor_;       ///< entries re-run in solver stages
  std::vector<StateSlot> states_layout_;
  std::size_t total_states_ = 0;
  std::vector<double> states_;
  std::vector<double> k1_, k2_, k3_, k4_, scratch_;
};

}  // namespace iecd::model
