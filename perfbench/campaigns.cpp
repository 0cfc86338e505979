// pil_campaign and farm: fault campaigns under campaign::CampaignEngine
// with two workers, each pulling its next run only when the previous one
// is done (closed loop).  A timed step is one whole campaign; its runs are
// the ops.  The campaign seeds come from the workload seed, and steps
// cycle through a pool of them so every repeat of a campaign must
// reproduce the first one's report and manifest.
//
//   pil_campaign: many light runs with heavy evidence — a 0.5 s servo PIL
//     run over a 1 Mbaud line with the default fault plan and recovery on,
//     a per-run artifact and periodic checkpoints; verify_manifest over
//     every artifact after each campaign.
//   farm: a few heavy runs with light evidence — one E15 16-node servo
//     farm run (15 servos + supervisor, 500 kbit/s, 1.0 s, default plan)
//     per op; only the merged artifact is written.
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>

#include "campaign/engine.hpp"
#include "core/case_study.hpp"
#include "cosim/farm.hpp"
#include "evidence/sink.hpp"
#include "evidence/verify.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using iecd::fault::RunContext;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPoolCampaigns = 2;

bool finite_registry(const iecd::trace::MetricsRegistry& m) {
  for (const auto& [name, s] : m.all_stats()) {
    if (s.count() > 0 && !std::isfinite(s.mean())) return false;
  }
  for (const auto& [name, g] : m.gauges()) {
    if (!std::isfinite(g)) return false;
  }
  return true;
}

std::uint64_t merged_counter(const iecd::fault::CampaignReport& report,
                             const std::string& name) {
  const auto* c = report.merged.find_counter(name);
  return c ? c->value : 0;
}

/// Run index of a per-run artifact path ("run_0042.evd" -> 42), or -1.
long run_index_of(const std::string& path) {
  const std::string name = fs::path(path).filename().string();
  if (name.rfind("run_", 0) != 0 || name.size() < 9) return -1;
  try {
    return std::stol(name.substr(4, name.size() - 8));
  } catch (const std::exception&) {
    return -1;
  }
}

/// The campaign workload machinery; subclasses supply the scenario.
class CampaignWorkload : public Workload {
 public:
  struct Shape {
    const char* name;
    std::size_t runs;              ///< runs (ops) per campaign
    std::size_t checkpoint_every;  ///< 0 = no checkpoints
    bool run_artifacts;            ///< per-run evidence artifacts
  };

  CampaignWorkload(const WorkloadOptions& options, Shape shape)
      : options_(options), shape_(shape) {
    Rng rng(options.seed);
    for (std::size_t i = 0; i < kPoolCampaigns; ++i) {
      seeds_.push_back(rng.next() >> 1);
    }
    first_.resize(kPoolCampaigns);
    fs::remove_all(options.out_dir);
    fs::create_directories(options.out_dir);
  }

  std::string inputs() const override {
    std::string text = std::string("workload ") + shape_.name + "\n";
    for (std::uint64_t s : seeds_) {
      text += "campaign_seed=" + std::to_string(s) +
              " runs=" + std::to_string(shape_.runs) + "\n";
    }
    return text;
  }

  std::size_t workers() const override { return kWorkers; }

  void warm_up() override {
    iecd::fault::FaultInjector injector(
        iecd::fault::CampaignRunner::run_seed(seeds_[0], 0),
        iecd::fault::FaultPlan::defaults());
    iecd::trace::MetricsRegistry metrics;
    iecd::obs::HealthReport health;
    RunContext ctx{0, injector.seed(), injector, metrics, health};
    bool ok = false;
    (void)run_one(ctx, ok);
  }

  void step(OpLog& log) override {
    const std::size_t slot = next_++ % kPoolCampaigns;
    // Each slot rewrites its own directory in place: the slot's campaign is
    // deterministic, so every file is rewritten with the same name, and
    // only the manifest is removed so the one verified below is this
    // campaign's.  (Deleting and recreating ~130 files per campaign made
    // back-to-back runs ~25% slower within two minutes.)
    const std::string dir =
        (fs::path(options_.out_dir) / ("c" + std::to_string(slot))).string();
    fs::remove(fs::path(dir) / "MANIFEST.jsonl");

    iecd::campaign::EngineOptions eo;
    eo.campaign.name = shape_.name;
    eo.campaign.seed = seeds_[slot];
    eo.campaign.runs = shape_.runs;
    eo.campaign.threads = kWorkers;
    eo.campaign.plan = iecd::fault::FaultPlan::defaults();
    eo.evidence_dir = dir;
    eo.checkpoint_every = shape_.checkpoint_every;
    eo.resume = false;
    eo.write_run_artifacts = shape_.run_artifacts;

    const std::size_t runs = shape_.runs;
    std::vector<double> latency(runs, 0.0);
    std::vector<char> ok(runs, 0);
    const std::uint64_t op0 = ops_;
    const iecd::fault::CampaignScenario scenario = [&](RunContext& ctx) {
      const double s0 = now_s();
      bool recovered = false;
      bool run_ok = false;
      {
        Span root("campaign.run", op0 + ctx.index + 1);
        try {
          recovered = run_one(ctx, run_ok);
        } catch (const std::exception&) {
          run_ok = false;
        }
      }
      latency[ctx.index] = (now_s() - s0) * 1e3;
      ok[ctx.index] = run_ok;
      return recovered;
    };

    std::optional<iecd::campaign::EngineResult> result;
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    try {
      Span s("campaign.engine");
      result = iecd::campaign::CampaignEngine(eo).run(scenario);
    } catch (const std::exception&) {
      result.reset();
    }
    const double wall = now_s() - t0;
    log.busy_s += wall;
    log.cpu_s += process_cpu_s() - c0;
    ops_ += runs;

    // Self-test hook: corrupt one run's artifact before verification.
    if (shape_.run_artifacts && options_.flip_byte_op > op0 &&
        options_.flip_byte_op <= op0 + runs) {
      flip_one_byte((fs::path(dir) / iecd::evidence::run_artifact_filename(
                                         options_.flip_byte_op - op0 - 1))
                        .string());
    }

    bool campaign_ok = result.has_value() && result->report.runs == runs &&
                       !result->report.to_json().empty();
    if (campaign_ok) {
      iecd::evidence::ManifestVerifyResult verified;
      const double v0 = now_s();
      {
        Span s("evidence.verify_manifest");
        verified = iecd::evidence::verify_manifest(
            result->evidence.manifest_path);
      }
      const double verify_s = now_s() - v0;
      for (const auto& entry : verified.entries) {
        if (entry.verified) continue;
        const long index = run_index_of(entry.path);
        if (index >= 0 && static_cast<std::size_t>(index) < runs) {
          ok[static_cast<std::size_t>(index)] = 0;
        } else {
          campaign_ok = false;  // the merged artifact covers every run
        }
      }
      const std::size_t expected = shape_.run_artifacts ? runs + 1 : 1;
      campaign_ok = campaign_ok && verified.entries.size() == expected;

      // The same campaign seed must reproduce the same report + manifest.
      const std::string text =
          without_build_info(result->report.to_json()) +
          manifest_for_digest(read_file(result->evidence.manifest_path));
      if (!first_[slot]) {
        if (campaign_ok) {
          first_[slot] = text;
          ++recorded_;
        }
      } else if (*first_[slot] != text) {
        campaign_ok = false;
      }
      account(*result, wall, latency, verify_s, dir);
    }

    for (std::size_t i = 0; i < runs; ++i) {
      log.latency_ms.push_back(latency[i]);
      ++log.attempted;
      if (!campaign_ok || !ok[i]) ++log.failed;
    }
  }

  bool covered() const override { return recorded_ == kPoolCampaigns; }

  std::string digest() const override {
    Digest d;
    d.add(std::string(shape_.name));
    for (const auto& text : first_) d.add(text ? *text : "missing");
    add_extra_digest(d);
    return d.hex();
  }

  void begin_phase() override { phase_ = {}; }

  void layer_metrics(const std::vector<SpanRecord>& spans,
                     Metrics& out) const override {
    const auto stats = summarize_spans(spans);
    const double ops =
        phase_.ops > 0 ? static_cast<double>(phase_.ops) : 1.0;
    const double campaigns =
        phase_.campaigns > 0 ? static_cast<double>(phase_.campaigns) : 1.0;
    const double capacity_ms =
        phase_.engine_ms * static_cast<double>(kWorkers);
    out["campaign.outside_scenario_ms"].value =
        (capacity_ms - phase_.scenario_ms) / ops;
    out["campaign.scenario_sum_ratio"].value =
        capacity_ms > 0.0 ? phase_.scenario_ms / capacity_ms : 0.0;
    out["campaign.steals"].value = static_cast<double>(phase_.steals) / campaigns;
    out["campaign.steal_attempts"].value =
        static_cast<double>(phase_.steal_attempts) / campaigns;
    out["campaign.window_waits"].value =
        static_cast<double>(phase_.window_waits) / campaigns;
    out["campaign.peak_pending_groups"].value =
        static_cast<double>(phase_.peak_pending) / campaigns;
    out["campaign.checkpoints_sealed"].value =
        static_cast<double>(phase_.checkpoints) / campaigns;
    out["campaign.unrecovered"].value =
        static_cast<double>(phase_.unrecovered) / campaigns;
    out["fault.injected"].value = static_cast<double>(phase_.injected) / ops;
    out["fault.opportunities"].value =
        static_cast<double>(phase_.opportunities) / ops;
    out["evidence.artifacts"].value =
        static_cast<double>(phase_.artifacts) / campaigns;
    out["evidence.bytes_written"].value =
        static_cast<double>(phase_.bytes_written) / campaigns;
    out["evidence.verify_mb_per_s"].value =
        phase_.verify_s > 0.0 ? static_cast<double>(phase_.verified_bytes) /
                                    1e6 / phase_.verify_s
                              : 0.0;
    span_median_ms(stats, "evidence.verify_manifest", "evidence.verify_ms",
                   out);
    extra_layer_metrics(stats, ops, out);
  }

 protected:
  struct Phase {
    std::uint64_t ops = 0;
    std::uint64_t campaigns = 0;
    double engine_ms = 0.0;
    double scenario_ms = 0.0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t window_waits = 0;
    std::uint64_t peak_pending = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t unrecovered = 0;
    std::uint64_t injected = 0;
    std::uint64_t opportunities = 0;
    std::uint64_t artifacts = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t verified_bytes = 0;
    double verify_s = 0.0;
    // PIL counters from the merged registry.
    std::uint64_t exchanges = 0;
    std::uint64_t frames = 0;
    std::uint64_t crc_errors = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t recovered = 0;
    std::uint64_t abandoned = 0;
  };

  /// One campaign run; sets \p ok when its outputs pass the checks and
  /// returns the scenario's recovered verdict.
  virtual bool run_one(RunContext& ctx, bool& ok) = 0;
  virtual void add_extra_digest(Digest&) const {}
  virtual void extra_layer_metrics(const std::map<std::string, SpanStats>&,
                                   double, Metrics&) const {}

  WorkloadOptions options_;
  Shape shape_;
  std::vector<std::uint64_t> seeds_;
  Phase phase_;

 private:
  void account(const iecd::campaign::EngineResult& r, double wall_s,
               const std::vector<double>& latency, double verify_s,
               const std::string& dir) {
    phase_.ops += shape_.runs;
    ++phase_.campaigns;
    phase_.engine_ms += wall_s * 1e3;
    for (double ms : latency) phase_.scenario_ms += ms;
    phase_.steals += r.sched.steals;
    phase_.steal_attempts += r.sched.steal_attempts;
    phase_.window_waits += r.sched.window_waits;
    phase_.peak_pending += r.sched.peak_pending_groups;
    phase_.checkpoints += r.checkpoints_sealed;
    phase_.unrecovered += r.report.unrecovered;
    phase_.injected += r.report.faults_injected;
    phase_.opportunities += r.report.fault_opportunities;
    phase_.artifacts += r.evidence.runs.size() + 1;
    phase_.verified_bytes += r.evidence.merged.bytes;
    for (const auto& a : r.evidence.runs) phase_.verified_bytes += a.bytes;
    phase_.verify_s += verify_s;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file(ec)) phase_.bytes_written += entry.file_size(ec);
    }
    phase_.exchanges += merged_counter(r.report, "pil.exchanges");
    phase_.frames += merged_counter(r.report, "pil.frames_processed");
    phase_.crc_errors += merged_counter(r.report, "pil.crc_errors");
    phase_.retransmits += merged_counter(r.report, "pil.retransmits");
    phase_.recovered += merged_counter(r.report, "pil.recovered_exchanges");
    phase_.abandoned += merged_counter(r.report, "pil.exchanges_abandoned");
  }

  std::vector<std::optional<std::string>> first_;
  std::size_t recorded_ = 0;
  std::size_t next_ = 0;
  std::uint64_t ops_ = 0;
};

class PilCampaign final : public CampaignWorkload {
 public:
  explicit PilCampaign(const WorkloadOptions& options)
      : CampaignWorkload(options, {"pil_campaign", 64, 16, true}) {}

 protected:
  // The E11 PIL scenario: the case-study servo over a 1 Mbaud line with
  // every fault layer wired and recovery on; recovered = no exchange
  // exhausted its retransmit budget.
  bool run_one(RunContext& ctx, bool& ok) override {
    iecd::core::ServoConfig config;
    config.duration_s = 0.5;
    config.setpoint_time = 0.02;
    std::unique_ptr<iecd::core::ServoSystem> servo;
    {
      Span s("core.setup");
      servo = std::make_unique<iecd::core::ServoSystem>(config);
    }
    iecd::obs::MonitorHub hub;
    iecd::core::ServoSystem::PilRunOptions options;
    options.baud = 1000000;
    options.faults = &ctx.injector;
    options.monitors = &hub;
    options.recovery.enabled = true;
    iecd::core::ServoSystem::PilResult result;
    {
      Span s("pil.run");
      result = servo->run_pil(options);
    }
    ctx.metrics.merge(result.report.metrics);
    ctx.metrics.stats("campaign.iae").add(result.iae);
    ctx.metrics.counter("campaign.settled").value +=
        result.metrics.settled ? 1 : 0;
    ctx.health.merge(hub.report("pil"));
    ok = std::isfinite(result.iae) && finite_log(result.speed) &&
         finite_registry(result.report.metrics);
    const auto* abandoned =
        result.report.metrics.find_counter("pil.exchanges_abandoned");
    return abandoned == nullptr || abandoned->value == 0;
  }

  void extra_layer_metrics(const std::map<std::string, SpanStats>& stats,
                           double ops, Metrics& out) const override {
    span_median_ms(stats, "core.setup", "core.setup_ms", out);
    span_median_ms(stats, "pil.run", "pil.run_ms", out);
    out["pil.exchanges"].value = static_cast<double>(phase_.exchanges) / ops;
    out["pil.frames_processed"].value =
        static_cast<double>(phase_.frames) / ops;
    out["pil.crc_errors"].value = static_cast<double>(phase_.crc_errors) / ops;
    out["pil.retransmits"].value =
        static_cast<double>(phase_.retransmits) / ops;
    out["pil.recovered_exchanges"].value =
        static_cast<double>(phase_.recovered) / ops;
    out["pil.exchanges_abandoned"].value =
        static_cast<double>(phase_.abandoned) / ops;
    const auto lost = phase_.recovered + phase_.abandoned;
    out["pil.recovery_ratio"].value =
        lost > 0 ? static_cast<double>(phase_.recovered) /
                       static_cast<double>(lost)
                 : 0.0;
  }
};

class Farm final : public CampaignWorkload {
 public:
  explicit Farm(const WorkloadOptions& options)
      : CampaignWorkload(options, {"farm", 16, 0, false}) {}

  /// Runs the first kDirect runs of the first pool campaign again as bare
  /// ServoFarm builds + runs (same topology, same per-run fault seed):
  /// their node results join the digest, and their ctor / run() times are
  /// the cosim layer metrics.
  void check(OpLog& log) override {
    direct_.clear();
    for (std::size_t i = 0; i < kDirect; ++i) {
      Direct d;
      try {
        iecd::fault::FaultInjector injector(
            iecd::fault::CampaignRunner::run_seed(seeds_[0], i),
            iecd::fault::FaultPlan::defaults());
        iecd::obs::MonitorHub hub;
        iecd::cosim::ServoFarm::Options options;
        options.duration_s = config_.duration_s;
        options.settle_tolerance = config_.settle_tolerance;
        options.faults = &injector;
        options.monitors = &hub;
        const double t0 = now_s();
        iecd::cosim::ServoFarm farm(iecd::cosim::make_farm_topology(config_),
                                    options);
        const double t1 = now_s();
        d.result = farm.run();
        const double t2 = now_s();
        d.build_ms = (t1 - t0) * 1e3;
        d.run_ms = (t2 - t1) * 1e3;
      } catch (const std::exception&) {
        ++log.failed;
      }
      ++log.attempted;
      direct_.push_back(d);
    }
  }

 protected:
  bool run_one(RunContext& ctx, bool& ok) override {
    bool recovered = false;
    {
      Span s("cosim.farm_run");
      recovered = iecd::cosim::run_farm_campaign_run(config_, ctx);
    }
    ok = finite_registry(ctx.metrics);
    return recovered;
  }

  void add_extra_digest(Digest& d) const override {
    for (const Direct& run : direct_) {
      for (const auto& n : run.result.nodes) {
        d.add(n.name);
        d.add_bits(n.setpoint);
        d.add_bits(n.speed);
        d.add(static_cast<std::uint64_t>(n.settled) |
              static_cast<std::uint64_t>(n.killed) << 1 |
              static_cast<std::uint64_t>(n.degraded) << 2 |
              static_cast<std::uint64_t>(n.stale) << 3);
        d.add(n.control_ticks);
        d.add(n.status_frames);
        d.add(n.commands_seen);
      }
      d.add(run.result.events_executed);
      d.add(run.result.frames_delivered);
    }
  }

  void extra_layer_metrics(const std::map<std::string, SpanStats>&, double,
                           Metrics& out) const override {
    if (direct_.empty()) return;
    std::vector<double> build, run, events, negotiations, frames, busy, rate;
    for (const Direct& d : direct_) {
      build.push_back(d.build_ms);
      run.push_back(d.run_ms);
      events.push_back(static_cast<double>(d.result.events_executed));
      negotiations.push_back(static_cast<double>(d.result.negotiations));
      frames.push_back(static_cast<double>(d.result.frames_delivered));
      busy.push_back(d.result.bus_utilisation);
      rate.push_back(d.run_ms > 0.0 ? static_cast<double>(
                                          d.result.events_executed) /
                                          (d.run_ms * 1e-3)
                                    : 0.0);
    }
    out["cosim.build_ms"].value = median(build);
    out["cosim.run_ms"].value = median(run);
    out["cosim.events_executed"].value = median(events);
    out["cosim.negotiations"].value = median(negotiations);
    out["cosim.frames_delivered"].value = median(frames);
    out["cosim.bus_utilisation"].value = median(busy);
    out["cosim.events_per_host_s"].value = median(rate);
  }

 private:
  static constexpr std::size_t kDirect = 4;
  struct Direct {
    iecd::cosim::FarmResult result;
    double build_ms = 0.0;
    double run_ms = 0.0;
  };

  iecd::cosim::FarmConfig config_;  // the E15 farm: 15 servos, 500 kbit/s, 1 s
  std::vector<Direct> direct_;
};

}  // namespace

std::unique_ptr<Workload> make_pil_campaign(const WorkloadOptions& options) {
  return std::make_unique<PilCampaign>(options);
}

std::unique_ptr<Workload> make_farm(const WorkloadOptions& options) {
  return std::make_unique<Farm>(options);
}

}  // namespace perfbench
