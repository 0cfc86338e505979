#include "batch/servo_batch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "blocks/discrete.hpp"
#include "model/engine.hpp"
#include "periph/pwm.hpp"
#include "periph/quadrature_decoder.hpp"
#include "sim/time.hpp"
#include "util/rk4.hpp"

namespace iecd::batch {

using blocks::DiscretePidBlock;
using plant::DcMotorDynamics;

namespace {

/// DcMotorDynamics::derivatives over n lanes.  The arrays never overlap;
/// saying so with __restrict lets the compiler vectorize the loop, which
/// reads and writes too many arrays for its runtime overlap checks.
void motor_slopes(std::size_t n, const double* __restrict yi,
                  const double* __restrict yw, const double* __restrict volt,
                  const double* __restrict tau, const double* __restrict res,
                  const double* __restrict ind, const double* __restrict kt,
                  const double* __restrict ke,
                  const double* __restrict inertia,
                  const double* __restrict damping, double* __restrict di,
                  double* __restrict dw, double* __restrict dth) {
  for (std::size_t l = 0; l < n; ++l) {
    di[l] = DcMotorDynamics::current_slope(volt[l], yi[l], yw[l], res[l],
                                           ke[l], ind[l]);
    dw[l] = DcMotorDynamics::speed_slope(yi[l], yw[l], tau[l], kt[l],
                                         damping[l], inertia[l]);
    dth[l] = yw[l];
  }
}

}  // namespace

ServoBatch::ServoBatch(ServoBatchConfig config,
                       std::span<const ServoLane> lanes)
    : config_(config), width_(lanes.size()) {
  if (config_.minor_steps < 1) {
    throw std::invalid_argument("ServoBatch: minor_steps >= 1");
  }
  if (config_.speed_filter_taps < 1) {
    throw std::invalid_argument("ServoBatch: speed_filter_taps >= 1");
  }
  if (!(config_.period_s > 0.0)) {
    throw std::invalid_argument("ServoBatch: period_s > 0");
  }
  base_period_ns_ = sim::from_seconds(config_.period_s);
  base_period_ = sim::to_seconds(base_period_ns_);
  const double cpr = static_cast<double>(config_.encoder_lines * 4);
  cpr_ = cpr;
  gain_ = 2.0 * std::numbers::pi / (cpr * config_.period_s);

  const std::size_t w = width_;
  auto fill = [w](LaneVector<>& v, double value = 0.0) {
    v.assign(w, value);
  };
  fill(sp_);
  fill(sp_time_);
  fill(kp_);
  fill(ki_);
  fill(stop_);
  fill(res_);
  fill(ind_);
  fill(kt_);
  fill(ke_);
  fill(inertia_);
  fill(damping_);
  fill(supply_);
  load_.resize(w);
  fill(cur_);
  fill(omega_);
  fill(theta_);
  fill(integral_);
  fill(prev_cnt_);
  fill(cnt_);
  fill(spd_);
  fill(filt_);
  fill(err_);
  fill(unsat_);
  fill(sat_);
  fill(duty_);
  fill(volt_);
  fill(yi_);
  fill(yw_);
  fill(yt_);
  fill(tau_);
  for (int s = 0; s < 3; ++s) {
    fill(k1_[s]);
    fill(k2_[s]);
    fill(k3_[s]);
    fill(k4_[s]);
  }
  const std::size_t rows =
      config_.speed_filter_taps > 1
          ? static_cast<std::size_t>(config_.speed_filter_taps - 1)
          : 0;
  window_.assign(rows * w, 0.0);
  window_len_ = 0;

  active_.assign(w, 1);
  faulted_.assign(w, 0);
  remaining_ = w;
  lane_samples_.assign(w, 0);

  double stop_max = 0.0;
  for (std::size_t l = 0; l < w; ++l) {
    const ServoLane& lane = lanes[l];
    sp_[l] = lane.setpoint;
    sp_time_[l] = lane.setpoint_time;
    kp_[l] = lane.kp;
    ki_[l] = lane.ki;
    stop_[l] = lane.duration_s > 0.0 ? lane.duration_s : config_.duration_s;
    stop_max = std::max(stop_max, stop_[l]);
    res_[l] = lane.motor.resistance;
    ind_[l] = lane.motor.inductance;
    kt_[l] = lane.motor.kt;
    ke_[l] = lane.motor.ke;
    inertia_[l] = lane.motor.inertia;
    damping_[l] = lane.motor.damping;
    supply_[l] = lane.motor.supply_voltage;
    load_[l] = lane.load;
    if (load_[l]) any_load_ = true;
  }

  // Reserve the recording arrays for the full run (the engine's stop test
  // decides the exact major count; +2 covers the boundary).
  std::size_t majors = 0;
  while (model::Engine::grid_time(majors, base_period_ns_) < stop_max &&
         majors < (1u << 30)) {
    ++majors;
  }
  majors += 2;
  times_.reserve(majors);
  speed_hist_.reserve(majors * w);
  duty_hist_.reserve(majors * w);
}

bool ServoBatch::step() {
  if (remaining_ == 0) return false;
  const double t = model::Engine::grid_time(major_, base_period_ns_);
  // Engine stop test, per lane: a lane whose stop time arrived finishes
  // early and is masked out of the bookkeeping; the instruction stream
  // keeps full width.
  for (std::size_t l = 0; l < width_; ++l) {
    if (active_[l] && t >= stop_[l] - 1e-12) {
      active_[l] = 0;
      --remaining_;
    }
  }
  if (remaining_ == 0) return false;
  controller_and_record(t);
  integrate(t);
  retire_nonfinite_lanes();
  ++major_;
  return true;
}

void ServoBatch::run() {
  while (step()) {
  }
}

void ServoBatch::controller_and_record(double t) {
  const std::size_t w = width_;

  // --- Output phase (major step, engine sorted order: plant outputs are
  // the current motor state; then the controller chain latches and runs).

  // Quadrature-decoder position latch (QuadDecPeBlock, MIL).
  if (config_.hw_fidelity) {
    for (std::size_t l = 0; l < w; ++l) {
      cnt_[l] = static_cast<double>(periph::latch_counts(theta_[l], cpr_));
    }
  } else {
    // Ablation: exact fractional counts, no wrap, no quantization.
    for (std::size_t l = 0; l < w; ++l) {
      cnt_[l] = periph::ideal_counts(theta_[l], cpr_);
    }
  }

  // Wrapped 16-bit count difference (cnt_diff FunctionBlock), speed
  // scaling (spd_gain GainBlock).
  for (std::size_t l = 0; l < w; ++l) {
    spd_[l] = gain_ * periph::count_delta(cnt_[l], prev_cnt_[l]);
  }

  // Moving-average filter output: current sample plus the window,
  // newest to oldest (MovingAverageBlock::output's accumulation order).
  for (std::size_t l = 0; l < w; ++l) filt_[l] = spd_[l];
  for (std::size_t k = 0; k < window_len_; ++k) {
    const double* row = window_.data() + k * w;
    for (std::size_t l = 0; l < w; ++l) filt_[l] += row[l];
  }
  const double inv_count = static_cast<double>(window_len_ + 1);
  for (std::size_t l = 0; l < w; ++l) filt_[l] = filt_[l] / inv_count;

  // Set-point step, error sum ("++-": set-point, keyboard offset, speed),
  // PI with saturation (DiscretePidBlock::output, kd = 0).
  for (std::size_t l = 0; l < w; ++l) {
    const double sp = t >= sp_time_[l] ? sp_[l] : 0.0;
    double acc = 0.0;
    acc += sp;
    acc += 0.0;  // keyboard set-point offset: no key events in MIL
    acc -= filt_[l];
    err_[l] = acc;
    const double unsat =
        DiscretePidBlock::output_law(kp_[l], acc, integral_[l], 0.0);
    unsat_[l] = unsat;
    sat_[l] = std::clamp(unsat, 0.0, 1.0);
  }

  // Mode switch: the chart stays in "automatic" (out 1.0 >= 0.5) without
  // key events, so the PWM sees the PI output.  PWM duty latch
  // (PwmPeBlock::quantize_duty).
  if (config_.hw_fidelity) {
    for (std::size_t l = 0; l < w; ++l) {
      duty_[l] = periph::quantize_duty(sat_[l], config_.pwm_modulo);
    }
  } else {
    for (std::size_t l = 0; l < w; ++l) duty_[l] = sat_[l];  // ideal actuator
  }

  // Scopes (discrete, one sample per major step): speed before this
  // step's integration, duty as just computed.
  times_.push_back(t);
  speed_hist_.insert(speed_hist_.end(), omega_.begin(), omega_.end());
  duty_hist_.insert(duty_hist_.end(), duty_.begin(), duty_.end());
  for (std::size_t l = 0; l < w; ++l) {
    lane_samples_[l] += active_[l];
  }

  // --- Update phase (UnitDelay, MovingAverage push, PI integrator with
  // back-calculation anti-windup).
  for (std::size_t l = 0; l < w; ++l) prev_cnt_[l] = cnt_[l];

  const std::size_t rows =
      config_.speed_filter_taps > 1
          ? static_cast<std::size_t>(config_.speed_filter_taps - 1)
          : 0;
  if (rows > 0) {
    const std::size_t new_len = std::min(window_len_ + 1, rows);
    for (std::size_t k = new_len; k-- > 1;) {
      std::copy_n(window_.data() + (k - 1) * w, w, window_.data() + k * w);
    }
    std::copy_n(spd_.data(), w, window_.data());
    window_len_ = new_len;
  }

  const double T = config_.period_s;
  for (std::size_t l = 0; l < w; ++l) {
    integral_[l] = DiscretePidBlock::integrator_update(
        integral_[l], kp_[l], ki_[l], T, err_[l], sat_[l], unsat_[l]);
  }
}

void ServoBatch::integrate(double t0) {
  const std::size_t w = width_;
  // Drive gain: armature voltage = supply * duty, constant over the major
  // step (the controller's output is held).
  for (std::size_t l = 0; l < w; ++l) volt_[l] = supply_[l] * duty_[l];

  const double h =
      base_period_ / static_cast<double>(config_.minor_steps);

  auto eval = [&](double ts, const LaneVector<>& yi, const LaneVector<>& yw,
                  LaneVector<>* k) {
    if (any_load_) {
      for (std::size_t l = 0; l < w; ++l) {
        tau_[l] = load_[l] ? load_[l](ts, yw[l]) : 0.0;
      }
    }
    motor_slopes(w, yi.data(), yw.data(), volt_.data(), tau_.data(),
                 res_.data(), ind_.data(), kt_.data(), ke_.data(),
                 inertia_.data(), damping_.data(), k[0].data(), k[1].data(),
                 k[2].data());
  };

  for (int m = 0; m < config_.minor_steps; ++m) {
    const double t = t0 + h * m;
    // Classic RK4 over the SoA lanes, via the shared stage/combination
    // loops (util/rk4.hpp) — identical expressions to the scalar engine.
    eval(t, cur_, omega_, k1_);
    util::rk4_stage(cur_, k1_[0], 0.5 * h, yi_);
    util::rk4_stage(omega_, k1_[1], 0.5 * h, yw_);
    util::rk4_stage(theta_, k1_[2], 0.5 * h, yt_);
    eval(t + 0.5 * h, yi_, yw_, k2_);
    util::rk4_stage(cur_, k2_[0], 0.5 * h, yi_);
    util::rk4_stage(omega_, k2_[1], 0.5 * h, yw_);
    util::rk4_stage(theta_, k2_[2], 0.5 * h, yt_);
    eval(t + 0.5 * h, yi_, yw_, k3_);
    util::rk4_stage(cur_, k3_[0], h, yi_);
    util::rk4_stage(omega_, k3_[1], h, yw_);
    util::rk4_stage(theta_, k3_[2], h, yt_);
    eval(t + h, yi_, yw_, k4_);
    util::rk4_combine(cur_, h, k1_[0], k2_[0], k3_[0], k4_[0]);
    util::rk4_combine(omega_, h, k1_[1], k2_[1], k3_[1], k4_[1]);
    util::rk4_combine(theta_, h, k1_[2], k2_[2], k3_[2], k4_[2]);
  }
}

void ServoBatch::retire_nonfinite_lanes() {
  for (std::size_t l = 0; l < width_; ++l) {
    if (!active_[l]) continue;
    if (std::isfinite(cur_[l]) && std::isfinite(omega_[l]) &&
        std::isfinite(theta_[l])) {
      continue;
    }
    active_[l] = 0;
    faulted_[l] = 1;
    --remaining_;
  }
}

bool ServoBatch::lane_faulted(std::size_t lane) const {
  return faulted_.at(lane) != 0;
}

ServoLaneResult ServoBatch::result(std::size_t lane) const {
  if (lane >= width_) {
    throw std::out_of_range("ServoBatch::result: lane out of range");
  }
  ServoLaneResult r;
  const std::size_t n = lane_samples_[lane];
  for (std::size_t j = 0; j < n; ++j) {
    r.speed.record(times_[j], speed_hist_[j * width_ + lane]);
    r.duty.record(times_[j], duty_hist_[j * width_ + lane]);
  }
  r.metrics = model::analyze_step(r.speed, sp_[lane], sp_time_[lane]);
  r.iae = model::integral_absolute_error(r.speed, sp_[lane]);
  r.faulted = faulted_[lane] != 0;
  return r;
}

std::vector<ServoLaneResult> run_servo_batch(const ServoBatchConfig& config,
                                             std::span<const ServoLane> lanes) {
  ServoBatch batch(config, lanes);
  batch.run();
  std::vector<ServoLaneResult> results;
  results.reserve(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    results.push_back(batch.result(l));
  }
  return results;
}

}  // namespace iecd::batch
