/// \file campaign.hpp
/// Deterministic fault campaigns: N independent runs of one scenario, each
/// with its own FaultInjector seeded from (campaign seed, run index).  This
/// file holds the two campaign rules every runner shares — how one run is
/// seeded, executed and booked (campaign_group) and how finished runs fold
/// into a CampaignReport (CampaignReport::fold).  campaign::CampaignEngine
/// schedules the groups and folds them in index order, so the report
/// (per-site fault counts, IAE degradation, recovery-latency percentiles,
/// flight-recorder dumps of unrecovered runs) is byte-identical for any
/// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/rng.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

namespace iecd::fault {

struct CampaignOptions {
  std::string name = "campaign";
  std::uint64_t seed = 1;
  std::size_t runs = 8;
  /// Worker threads for the fan-out (0 = hardware_concurrency); the merged
  /// report and JSON are identical for every value.
  std::size_t threads = 1;
  /// Lane-group width: each work item covers up to `batch` consecutive
  /// run indices, which a BatchCampaignScenario advances in lockstep
  /// (src/batch/ engines) and a scalar scenario runs lane by lane.  Per-run
  /// seeding, metrics and the merge are unchanged, so the report stays
  /// byte-identical for every batch width and thread count.
  std::size_t batch = 1;
  FaultPlan plan;
};

/// Handed to the scenario for one campaign run.  The scenario wires
/// \p injector into the world it builds (sites.hpp helpers), runs it, and
/// records its results into \p metrics / \p health.  It must not touch
/// shared mutable state — runs execute on arbitrary pool threads.
struct RunContext {
  std::size_t index = 0;
  std::uint64_t run_seed = 0;
  FaultInjector& injector;
  trace::MetricsRegistry& metrics;
  obs::HealthReport& health;
};

/// One campaign run; returns true when the run RECOVERED (met its
/// scenario-defined acceptance: e.g. bounded tracking error, no abandoned
/// exchange).  A false return marks the run unrecovered in the report and
/// retains its health report's flight-recorder dumps.
using CampaignScenario = std::function<bool(RunContext&)>;

/// Batched scenario: one lane group of consecutive campaign runs, each
/// lane carrying its own seeded injector/registry/health triple exactly as
/// the scalar scenario would see it.  Sets recovered[k] for lane k
/// (recovered.size() == lanes.size(); entries are pre-set to true).
using BatchCampaignScenario =
    std::function<void(std::span<RunContext> lanes, std::span<bool> recovered)>;

/// Either scenario form.
using AnyCampaignScenario =
    std::variant<CampaignScenario, BatchCampaignScenario>;

/// The group form of a campaign: executes the lane group covering runs
/// [first, first + metrics.size()), recording run first + k into
/// metrics[k] / health[k].  Same signature as campaign::StreamRunner::GroupFn
/// and exec::SweepRunner::BatchHealthScenario, so either can drive it.
using CampaignGroupFn = std::function<void(
    std::size_t first, std::span<trace::MetricsRegistry> metrics,
    std::span<obs::HealthReport> health)>;

/// How one campaign run is seeded, executed and booked — the only copy of
/// that rule.  Each lane gets a FaultInjector seeded with
/// CampaignRunner::run_seed(options.seed, index) and options.plan; a batch
/// scenario advances the group in lockstep, a scalar one runs lane by
/// lane.  Every finished lane then exports its injector's per-site
/// counters and the campaign.* markers (runs/unrecovered/faults_injected/
/// fault_opportunities) into its registry.  The returned closure owns
/// copies of the options and the scenario and may run on any thread.
CampaignGroupFn campaign_group(const CampaignOptions& options,
                               AnyCampaignScenario scenario);

struct CampaignReport {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t runs = 0;

  trace::MetricsRegistry merged;  ///< index-order fold of all runs
  obs::HealthReport health;       ///< same fold; "pil.recovery" percentiles

  std::uint64_t unrecovered = 0;
  std::vector<std::size_t> unrecovered_runs;  ///< run indices, ascending
  /// Health reports of the unrecovered runs only, keyed by run index —
  /// what to_json()'s unrecovered_dumps section reads.  Retaining just
  /// these keeps a report O(unrecovered), not O(runs).
  std::map<std::size_t, obs::HealthReport> unrecovered_health;
  std::uint64_t faults_injected = 0;
  std::uint64_t fault_opportunities = 0;

  /// How a finished run folds into the report — the only copy of that
  /// rule.  Runs must arrive in ascending index order (the
  /// campaign::ReorderFold contract): merges the registry and health
  /// report, retains the health of an unrecovered run, and adds the run's
  /// campaign.* markers to the unrecovered / faults_injected /
  /// fault_opportunities totals (so they always equal the merged
  /// counters).
  void fold(std::size_t index, const trace::MetricsRegistry& run_metrics,
            const obs::HealthReport& run_health);

  /// Deterministic JSON artifact (CAMPAIGN_<name>.json in CI): campaign
  /// identity, per-site fault counters, scenario stats (campaign.* stats,
  /// e.g. IAE), recovery-latency percentiles, unrecovered run indices and
  /// the flight-recorder dumps their health reports retained.  Thread
  /// count and wall clock are deliberately absent — the document is
  /// byte-identical across 1..N worker threads.
  std::string to_json() const;
  bool write_json(const std::string& path) const;
  /// One-line human summary for bench tables / logs.
  std::string summary() const;
};

struct CampaignRunner {
  /// Seed of run \p index: a SplitMix64 hop from the campaign seed, so
  /// replaying one run in isolation (one FaultInjector with this seed)
  /// reproduces its exact fault sequence.
  static std::uint64_t run_seed(std::uint64_t campaign_seed,
                                std::size_t index) {
    return SplitMix64(campaign_seed +
                      0x9E3779B97F4A7C15ULL *
                          static_cast<std::uint64_t>(index + 1))
        .next();
  }
};

}  // namespace iecd::fault
