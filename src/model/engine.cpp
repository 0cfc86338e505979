#include "model/engine.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/time.hpp"
#include "trace/trace.hpp"
#include "util/rk4.hpp"
#include "util/strings.hpp"

namespace iecd::model {

Engine::Engine(Model& model, EngineOptions options)
    : model_(model), options_(options) {
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
        double period = base_period_;
        for (int i = 0; i < b->input_count(); ++i) {
          if (!b->input_connected(i)) continue;
          const Block* src = b->input(i).src;
          if (src->resolved_continuous()) continuous = true;
        }
        b->set_resolved_continuous(continuous);
        b->set_resolved_period(period);
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

  continuous_blocks_.clear();
  state_offsets_.clear();
  total_states_ = 0;
  for (Block* b : model_.sorted()) {
    const auto n = static_cast<std::size_t>(b->continuous_state_count());
    if (b->resolved_continuous() || n > 0) {
      continuous_blocks_.push_back(b);
      state_offsets_.push_back(total_states_);
      total_states_ += n;
    }
  }
  states_.assign(total_states_, 0.0);
  k1_.assign(total_states_, 0.0);
  k2_.assign(total_states_, 0.0);
  k3_.assign(total_states_, 0.0);
  k4_.assign(total_states_, 0.0);
  scratch_.assign(total_states_, 0.0);

  SimContext ctx{0.0, base_period_, false};
  for (Block* b : model_.sorted()) b->initialize(ctx);

  // Collect initial continuous states set by the blocks themselves.
  for (std::size_t i = 0; i < continuous_blocks_.size(); ++i) {
    Block* b = continuous_blocks_[i];
    const auto n = static_cast<std::size_t>(b->continuous_state_count());
    if (n) {
      b->read_states(std::span<double>(states_).subspan(state_offsets_[i], n));
    }
  }

  build_exec_list();

  major_index_ = 0;
  initialized_ = true;
}

void Engine::build_exec_list() {
  exec_.clear();
  exec_.reserve(model_.sorted().size());
  for (Block* b : model_.sorted()) {
    ExecEntry e{b, 0, 0};
    if (!b->resolved_continuous()) {
      // Divisibility was validated in resolve_sample_times(); a block whose
      // rate was never resolved (graph edited mid-run) runs at base rate.
      const std::int64_t p_ns = sim::from_seconds(b->resolved_period());
      e.period_ticks =
          p_ns > 0 ? static_cast<std::uint64_t>(p_ns / base_period_ns_) : 1;
      if (e.period_ticks == 0) e.period_ticks = 1;
      const std::int64_t o_ns = sim::from_seconds(b->sample_time().offset);
      e.offset_ticks =
          o_ns > 0 ? static_cast<std::uint64_t>(o_ns / base_period_ns_) : 0;
    }
    exec_.push_back(e);
  }
  model_epoch_ = model_.order_epoch();
}

double Engine::time() const {
  return grid_time(major_index_, base_period_ns_);
}

void Engine::eval_derivatives(double t, std::vector<double>& candidate,
                              std::vector<double>& dx) {
  SimContext ctx{t, base_period_, true};
  for (std::size_t i = 0; i < continuous_blocks_.size(); ++i) {
    Block* b = continuous_blocks_[i];
    const auto n = static_cast<std::size_t>(b->continuous_state_count());
    if (n) {
      b->write_states(
          std::span<const double>(candidate).subspan(state_offsets_[i], n));
    }
  }
  for (Block* b : continuous_blocks_) b->output(ctx);
  for (std::size_t i = 0; i < continuous_blocks_.size(); ++i) {
    Block* b = continuous_blocks_[i];
    const auto n = static_cast<std::size_t>(b->continuous_state_count());
    if (n) {
      b->derivatives(ctx, std::span<double>(dx).subspan(state_offsets_[i], n));
    }
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
  for (std::size_t i = 0; i < continuous_blocks_.size(); ++i) {
    Block* b = continuous_blocks_[i];
    const auto n = static_cast<std::size_t>(b->continuous_state_count());
    if (n) {
      b->write_states(
          std::span<const double>(states_).subspan(state_offsets_[i], n));
    }
  }
}

bool Engine::step() {
  if (!initialized_) initialize();
  if (model_epoch_ != model_.order_epoch()) {
    // Graph edited mid-run (rare): refresh the flattened dispatch list.
    build_exec_list();
  }
  const double t = time();
  if (t >= options_.stop_time - 1e-12) return false;
  const std::uint64_t major = major_index_;
  SimContext ctx{t, base_period_, false};
  for (const ExecEntry& e : exec_) {
    if (due(e, major)) e.block->output(ctx);
  }
  for (const ExecEntry& e : exec_) {
    if (due(e, major)) e.block->update(ctx);
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
