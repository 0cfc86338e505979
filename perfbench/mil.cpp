// mil_sweep: one seeded pool of 0.5 s servo MIL runs (gains, set-point
// and a ±10% spread of motor parameters), swept on one thread through
// exec::SweepRunner.  Each op interprets the model graph once
// (core::ServoSystem::run_mil).  After every sweep the same lanes run
// through the batched core at width 8 (batch::run_servo_batch), and every
// lane's IAE must be bitwise equal to the scalar run's.  The batch half is
// the control for model-interpretation work: its batch_ops_per_s must not
// move when only the scalar engine changes.
#include <bit>
#include <cmath>
#include <memory>
#include <optional>

#include "batch/servo_batch.hpp"
#include "core/case_study.hpp"
#include "exec/sweep.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using iecd::core::ServoConfig;
using iecd::core::ServoSystem;

constexpr std::size_t kLanes = 64;
constexpr std::size_t kBatchWidth = 8;
constexpr double kDuration = 0.5;

std::vector<ServoConfig> make_lanes(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ServoConfig> lanes(kLanes);
  for (ServoConfig& c : lanes) {
    c.duration_s = kDuration;
    c.setpoint_time = 0.02;
    c.kp = rng.uniform(0.003, 0.005);
    c.ki = rng.uniform(0.09, 0.15);
    c.setpoint = rng.uniform(80.0, 120.0);
    c.motor.resistance *= rng.uniform(0.9, 1.1);
    c.motor.inductance *= rng.uniform(0.9, 1.1);
    c.motor.kt *= rng.uniform(0.9, 1.1);
    c.motor.ke *= rng.uniform(0.9, 1.1);
    c.motor.inertia *= rng.uniform(0.9, 1.1);
    c.motor.damping *= rng.uniform(0.9, 1.1);
  }
  return lanes;
}

std::string lanes_text(const char* workload,
                       const std::vector<ServoConfig>& lanes) {
  std::string text = std::string("workload ") + workload + "\n";
  for (const ServoConfig& c : lanes) {
    text += "kp=" + hexfloat(c.kp) + " ki=" + hexfloat(c.ki) +
            " setpoint=" + hexfloat(c.setpoint) +
            " R=" + hexfloat(c.motor.resistance) +
            " L=" + hexfloat(c.motor.inductance) +
            " kt=" + hexfloat(c.motor.kt) + " ke=" + hexfloat(c.motor.ke) +
            " J=" + hexfloat(c.motor.inertia) +
            " b=" + hexfloat(c.motor.damping) + "\n";
  }
  return text;
}

bool finite_run(const iecd::model::SampleLog& speed,
                const iecd::model::SampleLog& duty, double iae) {
  return std::isfinite(iae) && finite_log(speed) && finite_log(duty);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One seeded pool of lanes, run on the scalar engine (the ops) and then
/// through the batched core (the control).  Keeps the first IAE of every
/// lane and the batch engine's time over the same lanes.
class MilSweep final : public Workload {
 public:
  explicit MilSweep(const WorkloadOptions& options)
      : lanes_(make_lanes(options.seed)) {
    first_.resize(kLanes);
    // The batch engine needs the PWM modulo the servo's bean solved.
    ServoSystem servo(lanes_[0]);
    config_.period_s = lanes_[0].period_s;
    config_.duration_s = kDuration;
    config_.encoder_lines = lanes_[0].encoder_lines;
    config_.speed_filter_taps = lanes_[0].speed_filter_taps;
    config_.hw_fidelity = lanes_[0].mil_hw_fidelity;
    config_.pwm_modulo =
        servo.pwm_block().bean().properties().get_int("modulo");
    for (const ServoConfig& c : lanes_) {
      iecd::batch::ServoLane lane;
      lane.setpoint = c.setpoint;
      lane.setpoint_time = c.setpoint_time;
      lane.kp = c.kp;
      lane.ki = c.ki;
      lane.motor = c.motor;
      batch_lanes_.push_back(lane);
    }
  }

  std::string inputs() const override {
    return lanes_text("mil_sweep", lanes_);
  }
  std::size_t workers() const override { return 1; }
  bool covered() const override { return recorded_ == kLanes; }

  void warm_up() override {
    ServoSystem servo(lanes_[0]);
    (void)servo.run_mil();
    (void)iecd::batch::run_servo_batch(
        config_, std::span(batch_lanes_.data(), kBatchWidth));
  }

  /// A scalar sweep of the pool (the timed ops), then the same lanes
  /// through the batched core; an op fails unless its lane's batch IAE is
  /// bitwise equal to the scalar one.
  void step(OpLog& log) override {
    std::vector<double> latency(kLanes, 0.0);
    std::vector<double> iae(kLanes, 0.0);
    std::vector<char> ok(kLanes, 0);
    iecd::exec::SweepRunner runner({.threads = 1});
    const std::uint64_t op0 = ops_;
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    runner.run(kLanes, iecd::exec::SweepRunner::Scenario(
                           [&](std::size_t i,
                               iecd::trace::MetricsRegistry& metrics) {
                             const double s0 = now_s();
                             {
                               Span root("mil.op", op0 + i + 1);
                               ok[i] = run_lane(i, metrics, iae[i]);
                             }
                             latency[i] = (now_s() - s0) * 1e3;
                           }));
    const double wall = now_s() - t0;
    log.busy_s += wall;
    log.cpu_s += process_cpu_s() - c0;
    ops_ += kLanes;

    std::vector<double> batch_iae(kLanes, 0.0);
    std::vector<char> batch_ok(kLanes, 0);
    run_batch(op0, batch_iae, batch_ok);

    double scenario_ms = 0.0;
    for (std::size_t i = 0; i < kLanes; ++i) {
      log.latency_ms.push_back(latency[i]);
      scenario_ms += latency[i];
      ++log.attempted;
      const bool identical = batch_ok[i] && bits(batch_iae[i]) == bits(iae[i]);
      phase_.identical += identical ? 1 : 0;
      if (!ok[i] || !record(i, iae[i]) || !identical) ++log.failed;
    }
    phase_.outside_ms.push_back(wall * 1e3 - scenario_ms);
  }

  void timed_metrics(Metrics& out) const override {
    out["batch_ops_per_s"] = {
        batch_busy_s_ > 0.0 ? static_cast<double>(batch_ops_) / batch_busy_s_
                            : 0.0,
        "1/s"};
  }

  std::string digest() const override {
    Digest d;
    d.add(std::string("mil"));
    for (const auto& iae : first_) {
      if (iae) {
        d.add_bits(*iae);
      } else {
        d.add(std::string("missing"));
      }
    }
    return d.hex();
  }

  void begin_phase() override { phase_ = {}; }

  void layer_metrics(const std::vector<SpanRecord>& spans,
                     Metrics& out) const override {
    const auto stats = summarize_spans(spans);
    span_median_ms(stats, "core.setup", "core.setup_ms", out);
    span_median_ms(stats, "model.mil", "model.mil_ms", out);
    const double mil_ms = out["model.mil_ms"].value;
    out["model.mil_rtf"].value = mil_ms > 0.0 ? kDuration / (mil_ms * 1e-3)
                                              : 0.0;
    out["exec.fold_ms"].value = median(phase_.outside_ms);
    span_median_ms(stats, "batch.group", "batch.group_ms", out);
    if (phase_.groups > 0) {
      out["batch.lanes"].value = static_cast<double>(phase_.lanes) /
                                 static_cast<double>(phase_.groups);
      out["batch.identical_ratio"].value =
          static_cast<double>(phase_.identical) /
          static_cast<double>(phase_.lanes);
    }
  }

 private:
  /// Records lane \p lane's result; false when it contradicts the lane's
  /// first result.
  bool record(std::size_t lane, double iae) {
    if (!first_[lane]) {
      first_[lane] = iae;
      ++recorded_;
      return true;
    }
    return bits(*first_[lane]) == bits(iae);
  }

  bool run_lane(std::size_t i, iecd::trace::MetricsRegistry& metrics,
                double& iae) {
    try {
      std::unique_ptr<ServoSystem> servo;
      {
        Span s("core.setup");
        servo = std::make_unique<ServoSystem>(lanes_[i]);
      }
      ServoSystem::MilResult mil;
      {
        Span s("model.mil");
        mil = servo->run_mil();
      }
      metrics.stats("sweep.iae").add(mil.iae);
      iae = mil.iae;
      return finite_run(mil.speed, mil.duty, mil.iae) &&
             std::isfinite(mil.metrics.settling_time);
    } catch (const std::exception&) {
      return false;
    }
  }

  /// The pool through SweepRunner{.batch = kBatchWidth}; each group's span
  /// carries the op id of its first lane's scalar run.
  void run_batch(std::uint64_t op0, std::vector<double>& iae,
                 std::vector<char>& ok) {
    iecd::exec::SweepRunner runner({.threads = 1, .batch = kBatchWidth});
    const double t0 = now_s();
    runner.run(
        kLanes,
        iecd::exec::SweepRunner::BatchScenario(
            [&](std::size_t first,
                std::span<iecd::trace::MetricsRegistry> metrics) {
              Span root("batch.group", op0 + first + 1);
              run_group(first, metrics, iae, ok);
              ++phase_.groups;
            }));
    batch_busy_s_ += now_s() - t0;
    batch_ops_ += kLanes;
    phase_.lanes += kLanes;
  }

  void run_group(std::size_t first,
                 std::span<iecd::trace::MetricsRegistry> metrics,
                 std::vector<double>& iae, std::vector<char>& ok) {
    try {
      const auto results = iecd::batch::run_servo_batch(
          config_, std::span(batch_lanes_.data() + first, metrics.size()));
      for (std::size_t k = 0; k < metrics.size(); ++k) {
        const auto& r = results[k];
        metrics[k].stats("sweep.iae").add(r.iae);
        iae[first + k] = r.iae;
        ok[first + k] = !r.faulted && finite_run(r.speed, r.duty, r.iae);
      }
    } catch (const std::exception&) {
      // ok stays 0 for the group's lanes
    }
  }

  struct Phase {
    std::vector<double> outside_ms;  ///< SweepRunner::run wall minus spans
    std::uint64_t groups = 0;
    std::uint64_t lanes = 0;
    std::uint64_t identical = 0;  ///< batch lanes bitwise equal to scalar
  };

  std::vector<ServoConfig> lanes_;
  std::vector<std::optional<double>> first_;
  std::size_t recorded_ = 0;
  iecd::batch::ServoBatchConfig config_;
  std::vector<iecd::batch::ServoLane> batch_lanes_;
  std::uint64_t ops_ = 0;
  std::uint64_t batch_ops_ = 0;
  double batch_busy_s_ = 0.0;
  Phase phase_;
};

}  // namespace

std::unique_ptr<Workload> make_mil_sweep(const WorkloadOptions& options) {
  return std::make_unique<MilSweep>(options);
}

}  // namespace perfbench
