// devcycle: the paper's Fig. 6.1 development cycle as one op, on one
// thread — ServoSystem construction, bean validation, MIL, PEERT code
// generation, PIL (traced), HIL, then the PIL run's evidence artifact
// written and verified.  The designer waits for each cycle, so ops run
// back to back (closed loop).
#include <bit>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/case_study.hpp"
#include "evidence/sink.hpp"
#include "evidence/verify.hpp"
#include "trace/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using iecd::core::ServoConfig;
using iecd::core::ServoSystem;

constexpr std::size_t kPool = 24;
// The derivatives on which the expert system accepts the servo's bean
// project (the E7 port table: the others lack a quadrature decoder).
constexpr const char* kDerivatives[] = {"DSC56F8367", "MCF5235"};
constexpr std::uint32_t kBauds[] = {115200, 460800, 1000000};

struct Input {
  ServoConfig config;
  std::uint32_t baud = 115200;
};

/// Everything the cycle simulates that the digest covers and a repeat of
/// the same input must reproduce bit for bit.
struct Output {
  double mil_iae = 0.0;
  double pil_iae = 0.0;
  double hil_iae = 0.0;
  std::uint64_t exchanges = 0;
  std::uint64_t frames = 0;
  std::uint64_t crc_errors = 0;
  std::uint64_t activations = 0;
  std::uint64_t overruns = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t artifact_records = 0;

  bool operator==(const Output& o) const {
    return std::bit_cast<std::uint64_t>(mil_iae) ==
               std::bit_cast<std::uint64_t>(o.mil_iae) &&
           std::bit_cast<std::uint64_t>(pil_iae) ==
               std::bit_cast<std::uint64_t>(o.pil_iae) &&
           std::bit_cast<std::uint64_t>(hil_iae) ==
               std::bit_cast<std::uint64_t>(o.hil_iae) &&
           exchanges == o.exchanges && frames == o.frames &&
           crc_errors == o.crc_errors && activations == o.activations &&
           overruns == o.overruns && trace_events == o.trace_events &&
           artifact_records == o.artifact_records;
  }
};

bool finite_metrics(const iecd::model::StepMetrics& m) {
  return std::isfinite(m.rise_time) && std::isfinite(m.overshoot_percent) &&
         std::isfinite(m.settling_time) &&
         std::isfinite(m.steady_state_error) && std::isfinite(m.peak_value);
}

class Devcycle final : public Workload {
 public:
  explicit Devcycle(const WorkloadOptions& options)
      : options_(options),
        artifact_path_(
            (std::filesystem::path(options.out_dir) / "cycle.evd").string()) {
    Rng rng(options.seed);
    std::vector<char> fixed(kPool, 0);
    for (std::size_t i = 0; i < kPool / 4; ++i) fixed[i] = 1;
    std::vector<std::uint32_t> bauds;
    std::vector<const char*> derivatives;
    for (std::size_t i = 0; i < kPool; ++i) {
      bauds.push_back(kBauds[i % 3]);
      derivatives.push_back(kDerivatives[i % 2]);
    }
    rng.shuffle(fixed);
    rng.shuffle(bauds);
    rng.shuffle(derivatives);
    for (std::size_t i = 0; i < kPool; ++i) {
      Input in;
      in.config.derivative = derivatives[i];
      in.config.fixed_point = fixed[i] != 0;
      in.config.kp = rng.uniform(0.003, 0.005);
      in.config.ki = rng.uniform(0.09, 0.15);
      in.config.setpoint = rng.uniform(80.0, 120.0);
      in.config.setpoint_time = rng.uniform(0.02, 0.08);
      in.baud = bauds[i];
      pool_.push_back(in);
    }
    first_.resize(kPool);
    std::filesystem::remove_all(options.out_dir);
    std::filesystem::create_directories(options.out_dir);
  }

  std::string inputs() const override {
    std::string text = "workload devcycle\n";
    for (const Input& in : pool_) {
      text += in.config.derivative + " fixed_point=" +
              std::to_string(in.config.fixed_point) +
              " baud=" + std::to_string(in.baud) +
              " kp=" + hexfloat(in.config.kp) +
              " ki=" + hexfloat(in.config.ki) +
              " setpoint=" + hexfloat(in.config.setpoint) +
              " step_time=" + hexfloat(in.config.setpoint_time) + "\n";
    }
    return text;
  }

  std::size_t workers() const override { return 1; }

  void warm_up() override {
    OpLog scratch;
    run_op(0, scratch, false);
  }

  void step(OpLog& log) override {
    const std::size_t slot = next_++ % kPool;
    run_op(slot, log, true);
  }

  bool covered() const override { return recorded_ == kPool; }

  std::string digest() const override {
    Digest d;
    d.add(std::string("devcycle"));
    for (const auto& out : first_) {
      if (!out) {
        d.add(std::string("missing"));
        continue;
      }
      d.add_bits(out->mil_iae);
      d.add_bits(out->pil_iae);
      d.add_bits(out->hil_iae);
      d.add(out->exchanges);
      d.add(out->frames);
      d.add(out->crc_errors);
      d.add(out->activations);
      d.add(out->overruns);
      d.add(out->trace_events);
      d.add(out->artifact_records);
    }
    return d.hex();
  }

  void begin_phase() override { phase_ = {}; }

  void layer_metrics(const std::vector<SpanRecord>& spans,
                     Metrics& out) const override {
    const auto stats = summarize_spans(spans);
    span_median_ms(stats, "core.setup", "core.setup_ms", out);
    span_median_ms(stats, "beans.validate", "beans.validate_ms", out);
    span_median_ms(stats, "model.mil", "model.mil_ms", out);
    span_median_ms(stats, "codegen.build", "codegen.build_ms", out);
    span_median_ms(stats, "pil.run", "pil.run_ms", out);
    span_median_ms(stats, "rt.hil", "rt.hil_ms", out);
    span_median_ms(stats, "evidence.write", "evidence.write_ms", out);
    span_median_ms(stats, "evidence.verify", "evidence.verify_ms", out);
    const double mil_ms = out["model.mil_ms"].value;
    out["model.mil_rtf"].value =
        mil_ms > 0.0 ? pool_[0].config.duration_s / (mil_ms * 1e-3) : 0.0;

    const double n = phase_.ops > 0 ? static_cast<double>(phase_.ops) : 1.0;
    out["pil.exchanges"].value = static_cast<double>(phase_.exchanges) / n;
    out["pil.frames_processed"].value = static_cast<double>(phase_.frames) / n;
    out["pil.crc_errors"].value = static_cast<double>(phase_.crc_errors) / n;
    out["rt.activations"].value = static_cast<double>(phase_.activations) / n;
    out["rt.overruns"].value = static_cast<double>(phase_.overruns) / n;
    out["trace.events"].value = static_cast<double>(phase_.trace_events) / n;
    out["trace.drops"].value = static_cast<double>(phase_.trace_drops) / n;
    out["evidence.bytes"].value = static_cast<double>(phase_.bytes) / n;
    const auto verify = stats.find("evidence.verify");
    if (verify != stats.end() && verify->second.total_ms > 0.0) {
      out["evidence.verify_mb_per_s"].value =
          static_cast<double>(phase_.bytes) / 1e6 /
          (verify->second.total_ms * 1e-3);
    }
    out["devcycle.stage_sum_ratio"].value =
        child_coverage(spans, "devcycle.op");

    double pil_err = 0.0;
    double hil_err = 0.0;
    std::size_t k = 0;
    for (const auto& o : first_) {
      if (!o || o->mil_iae == 0.0) continue;
      pil_err += std::abs(o->pil_iae - o->mil_iae) / o->mil_iae;
      hil_err += std::abs(o->hil_iae - o->mil_iae) / o->mil_iae;
      ++k;
    }
    if (k > 0) {
      out["core.pil_iae_rel_err"].value = pil_err / static_cast<double>(k);
      out["core.hil_iae_rel_err"].value = hil_err / static_cast<double>(k);
    }
  }

 private:
  struct PhaseCounters {
    std::uint64_t ops = 0;
    std::uint64_t exchanges = 0;
    std::uint64_t frames = 0;
    std::uint64_t crc_errors = 0;
    std::uint64_t activations = 0;
    std::uint64_t overruns = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t trace_drops = 0;
    std::uint64_t bytes = 0;
  };

  void run_op(std::size_t slot, OpLog& log, bool record) {
    const Input& in = pool_[slot];
    const std::uint64_t op = record ? ++ops_ : 0;
    Output out;
    bool ok = true;
    std::uint64_t drops = 0;
    std::uint64_t bytes = 0;
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    try {
      Span root("devcycle.op", op);
      std::unique_ptr<ServoSystem> servo;
      {
        Span s("core.setup");
        servo = std::make_unique<ServoSystem>(in.config);
      }
      {
        Span s("beans.validate");
        ok = ok && !servo->validate().has_errors();
      }
      ServoSystem::MilResult mil;
      {
        Span s("model.mil");
        mil = servo->run_mil();
      }
      {
        Span s("codegen.build");
        ok = ok && servo->build_target().ok();
      }
      ServoSystem::PilResult pil;
      {
        Span s("pil.run");
        recorder_.clear();
        iecd::trace::TraceSession session(recorder_);
        ServoSystem::PilRunOptions pil_options;
        pil_options.baud = in.baud;
        pil = servo->run_pil(pil_options);
      }
      ServoSystem::HilResult hil;
      {
        Span s("rt.hil");
        hil = servo->run_hil();
      }
      {
        Span s("evidence.write");
        const iecd::evidence::EvidenceWriter writer =
            iecd::evidence::build_run_artifact("devcycle", slot,
                                               options_.seed,
                                               pil.report.metrics, nullptr,
                                               &recorder_);
        ok = ok && writer.write_file(artifact_path_);
      }
      if (op != 0 && op == options_.flip_byte_op) flip_one_byte(artifact_path_);
      iecd::evidence::VerifyResult verified;
      {
        Span s("evidence.verify");
        verified = iecd::evidence::verify_artifact_file(artifact_path_);
      }
      ok = ok && verified.ok;
      bytes = verified.bytes;

      ok = ok && std::isfinite(mil.iae) && std::isfinite(pil.iae) &&
           std::isfinite(hil.iae) && finite_metrics(mil.metrics) &&
           finite_metrics(pil.metrics) && finite_metrics(hil.metrics) &&
           finite_log(mil.speed) && finite_log(mil.duty) &&
           finite_log(pil.speed) && finite_log(hil.speed) &&
           std::isfinite(hil.exec_us_mean) && std::isfinite(hil.jitter_us);
      out.mil_iae = mil.iae;
      out.pil_iae = pil.iae;
      out.hil_iae = hil.iae;
      out.exchanges = pil.report.exchanges;
      out.frames = pil.report.frames_processed;
      out.crc_errors = pil.report.crc_errors;
      out.activations = hil.activations;
      out.overruns = hil.overruns;
      out.trace_events = recorder_.total_recorded();
      out.artifact_records = verified.records;
      drops = recorder_.dropped();
    } catch (const std::exception&) {
      ok = false;
    }
    const double t1 = now_s();
    log.latency_ms.push_back((t1 - t0) * 1e3);
    log.busy_s += t1 - t0;
    log.cpu_s += process_cpu_s() - c0;
    ++log.attempted;
    if (record && ok) {
      if (!first_[slot]) {
        first_[slot] = out;
        ++recorded_;
      } else if (!(*first_[slot] == out)) {
        ok = false;  // the same input must reproduce the same outputs
      }
    }
    if (!ok) ++log.failed;
    if (record) {
      ++phase_.ops;
      phase_.exchanges += out.exchanges;
      phase_.frames += out.frames;
      phase_.crc_errors += out.crc_errors;
      phase_.activations += out.activations;
      phase_.overruns += out.overruns;
      phase_.trace_events += out.trace_events;
      phase_.trace_drops += drops;
      phase_.bytes += bytes;
    }
  }

  WorkloadOptions options_;
  std::string artifact_path_;
  std::vector<Input> pool_;
  std::vector<std::optional<Output>> first_;
  std::size_t recorded_ = 0;
  std::size_t next_ = 0;
  std::uint64_t ops_ = 0;
  iecd::trace::TraceRecorder recorder_;
  PhaseCounters phase_;
};

}  // namespace

std::unique_ptr<Workload> make_devcycle(const WorkloadOptions& options) {
  return std::make_unique<Devcycle>(options);
}

}  // namespace perfbench
