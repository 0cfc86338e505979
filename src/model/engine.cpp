#include "model/engine.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "sim/time.hpp"
#include "trace/trace.hpp"
#include "util/rk4.hpp"
#include "util/strings.hpp"

namespace iecd::model {

Engine::Engine(Model& model, EngineOptions options)
    : model_(model), options_(options), schedule_(model) {
  if (options_.minor_steps < 1) {
    throw std::invalid_argument("Engine: minor_steps >= 1");
  }
}

void Engine::resolve_sample_times() {
  // Base period: gcd of the explicit discrete rates, else the option, else
  // 1 ms.
  std::int64_t gcd_ns = 0;
  for (const auto& b : model_.blocks()) {
    const SampleTime st = b->sample_time();
    if (st.kind == SampleTime::Kind::kDiscrete) {
      if (!(st.period > 0)) {
        throw std::logic_error(b->name() + ": discrete period must be > 0");
      }
      gcd_ns = std::gcd(gcd_ns, sim::from_seconds(st.period));
      if (st.offset > 0) {
        gcd_ns = std::gcd(gcd_ns, sim::from_seconds(st.offset));
      }
    }
  }
  if (options_.base_period > 0) {
    const std::int64_t opt_ns = sim::from_seconds(options_.base_period);
    if (gcd_ns != 0 && gcd_ns % opt_ns != 0 && opt_ns % gcd_ns != 0) {
      throw std::logic_error(
          "Engine: base_period incompatible with block rates");
    }
    gcd_ns = gcd_ns == 0 ? opt_ns : std::gcd(gcd_ns, opt_ns);
  }
  if (gcd_ns == 0) gcd_ns = sim::from_seconds(1e-3);
  base_period_ns_ = gcd_ns;
  base_period_ = sim::to_seconds(gcd_ns);

  // Inheritance propagation in sorted order: a block with an inherited rate
  // becomes continuous if any of its drivers is continuous, otherwise it
  // runs at the base rate.
  for (Block* b : model_.sorted()) {
    const SampleTime st = b->sample_time();
    switch (st.kind) {
      case SampleTime::Kind::kContinuous:
        b->set_resolved_continuous(true);
        b->set_resolved_period(base_period_);
        break;
      case SampleTime::Kind::kDiscrete:
        b->set_resolved_continuous(false);
        b->set_resolved_period(st.period);
        break;
      case SampleTime::Kind::kInherited: {
        bool continuous = false;
        for (int i = 0; i < b->input_count(); ++i) {
          const Block* src = b->input(i).src;
          if (src != nullptr && src->resolved_continuous()) continuous = true;
        }
        b->set_resolved_continuous(continuous);
        b->set_resolved_period(base_period_);
        break;
      }
    }
    if (!b->resolved_continuous()) {
      const std::int64_t p_ns = sim::from_seconds(b->resolved_period());
      if (p_ns % base_period_ns_ != 0) {
        throw std::logic_error(util::format(
            "%s: period %.9g s is not a multiple of the base period %.9g s",
            b->name().c_str(), b->resolved_period(), base_period_));
      }
    }
  }
}

void Engine::initialize() {
  resolve_sample_times();
  // Resolved first: initializers may read inputs (a state-space output,
  // a chart's entry actions).
  schedule_.refresh();
  SimContext ctx{0.0, base_period_, false};
  for (Block* b : model_.sorted()) b->initialize(ctx);
  build_dispatch();
  major_index_ = 0;
  initialized_ = true;
}

void Engine::build_dispatch() {
  const std::vector<Block*>& blocks = schedule_.blocks();
  exec_.clear();
  minor_.clear();
  states_layout_.clear();
  total_states_ = 0;
  for (const Schedule::Unit& u : schedule_.units()) {
    // Every entry runs on its top-level block's tick.  Divisibility was
    // validated in resolve_sample_times(); a block whose rate was never
    // resolved (graph edited mid-run) runs at base rate.
    ExecUnit e{u.begin, u.end, 0, 0};
    if (!u.root->resolved_continuous()) {
      const std::int64_t p_ns = sim::from_seconds(u.root->resolved_period());
      e.period_ticks =
          p_ns > 0 ? static_cast<std::uint64_t>(p_ns / base_period_ns_) : 1;
      if (e.period_ticks == 0) e.period_ticks = 1;
      const std::int64_t o_ns =
          sim::from_seconds(u.root->sample_time().offset);
      e.offset_ticks =
          o_ns > 0 ? static_cast<std::uint64_t>(o_ns / base_period_ns_) : 0;
    }
    exec_.push_back(e);

    // Solver stages run the units that are continuous or hold states.
    const std::size_t first_slot = states_layout_.size();
    for (std::size_t i = u.begin; i < u.end; ++i) {
      const auto n =
          static_cast<std::size_t>(blocks[i]->continuous_state_count());
      if (n) {
        states_layout_.push_back({blocks[i], total_states_, n});
        total_states_ += n;
      }
    }
    if (u.root->resolved_continuous() || states_layout_.size() > first_slot) {
      minor_.insert(minor_.end(), blocks.begin() + u.begin,
                    blocks.begin() + u.end);
    }
  }

  // A subsystem without direct feedthrough may be ordered before the
  // blocks feeding it, or feed itself, so in a solver stage its interior
  // first reads their outputs of the previous stage.  When such a feeder is
  // itself run in the stage, the subsystem's entries run once more at the
  // end of the pass, at any nesting depth, so its derivatives see inputs
  // evaluated at the stage's own states.
  std::unordered_map<const Block*, std::size_t> stage_index;
  for (std::size_t i = 0; i < minor_.size(); ++i) {
    stage_index.emplace(minor_[i], i);
  }
  for (const Schedule::Unit& s : schedule_.subsystems()) {
    const auto self = stage_index.find(s.root);
    if (self == stage_index.end() || s.root->has_direct_feedthrough()) continue;
    for (int i = 0; i < s.root->input_count(); ++i) {
      const auto feeder = stage_index.find(s.root->input(i).src);
      if (feeder != stage_index.end() && feeder->second >= self->second) {
        minor_.insert(minor_.end(), blocks.begin() + s.begin,
                      blocks.begin() + s.end);
        break;
      }
    }
  }

  // The blocks hold the current states: their initial ones after
  // initialize(), the integrated ones after every major step.
  states_.assign(total_states_, 0.0);
  for (const StateSlot& s : states_layout_) {
    s.block->read_states(std::span<double>(states_).subspan(s.offset, s.count));
  }
  for (auto* v : {&k1_, &k2_, &k3_, &k4_, &scratch_}) {
    v->assign(total_states_, 0.0);
  }
}

double Engine::time() const {
  return grid_time(major_index_, base_period_ns_);
}

void Engine::eval_derivatives(double t, std::vector<double>& candidate,
                              std::vector<double>& dx) {
  SimContext ctx{t, base_period_, true};
  for (const StateSlot& s : states_layout_) {
    s.block->write_states(
        std::span<const double>(candidate).subspan(s.offset, s.count));
  }
  for (Block* b : minor_) b->output(ctx);
  for (const StateSlot& s : states_layout_) {
    s.block->derivatives(ctx, std::span<double>(dx).subspan(s.offset, s.count));
  }
}

void Engine::integrate(double t0) {
  if (total_states_ == 0) return;
  const double h =
      base_period_ / static_cast<double>(options_.minor_steps);
  for (int m = 0; m < options_.minor_steps; ++m) {
    const double t = t0 + h * m;
    // Classic RK4 (stage/combination loops shared via util/rk4.hpp; the
    // derivative evaluations stay here because they re-run the continuous
    // blocks' output methods between stages).
    eval_derivatives(t, states_, k1_);
    util::rk4_stage(states_, k1_, 0.5 * h, scratch_);
    eval_derivatives(t + 0.5 * h, scratch_, k2_);
    util::rk4_stage(states_, k2_, 0.5 * h, scratch_);
    eval_derivatives(t + 0.5 * h, scratch_, k3_);
    util::rk4_stage(states_, k3_, h, scratch_);
    eval_derivatives(t + h, scratch_, k4_);
    util::rk4_combine(states_, h, k1_, k2_, k3_, k4_);
  }
  // Leave the blocks holding the integrated states.
  for (const StateSlot& s : states_layout_) {
    s.block->write_states(
        std::span<const double>(states_).subspan(s.offset, s.count));
  }
}

bool Engine::step() {
  if (!initialized_) initialize();
  if (schedule_.refresh()) {
    // The model or a nested model was edited mid-run (rare).
    build_dispatch();
  }
  const double t = time();
  if (t >= options_.stop_time - 1e-12) return false;
  const std::uint64_t major = major_index_;
  SimContext ctx{t, base_period_, false};
  Block* const* blocks = schedule_.blocks().data();
  for (const ExecUnit& u : exec_) {
    if (!due(u, major)) continue;
    for (std::size_t i = u.begin; i < u.end; ++i) blocks[i]->output(ctx);
  }
  for (const ExecUnit& u : exec_) {
    if (!due(u, major)) continue;
    for (std::size_t i = u.begin; i < u.end; ++i) blocks[i]->update(ctx);
  }
  integrate(t);
  if (auto* tr = trace::recorder()) {
    const auto begin =
        static_cast<std::int64_t>(major_index_) * base_period_ns_;
    tr->span_complete("model", "major_step", model_.name(), begin,
                      begin + base_period_ns_,
                      static_cast<double>(major_index_));
  }
  ++major_index_;
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::advance_to(double t) {
  if (!initialized_) initialize();
  while (time() + 1e-12 < t && step()) {
  }
}

}  // namespace iecd::model
