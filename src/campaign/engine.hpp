/// \file engine.hpp
/// CampaignEngine: the one way to run a fault campaign — the work-stealing
/// StreamRunner running fault::campaign_group and feeding one streaming,
/// index-ordered sink that folds each run into the report
/// (fault::CampaignReport::fold, which retains only the unrecovered runs'
/// health), writes per-run evidence as runs complete, and periodically
/// seals a resume checkpoint (checkpoint.hpp).  Memory is O(sites +
/// histograms + reorder window + unrecovered), never O(runs) — the
/// difference the E14 bench gates against exec::SweepRunner, which runs
/// the same campaign_group but retains every run.
///
/// Contracts (all locked by the campaign suite):
///   * the final CampaignReport and its JSON match a committed golden and
///     are byte-identical for any thread count, batch width, placement
///     and steal schedule, with or without evidence and checkpoints;
///   * kill the process after any checkpoint seal, run the engine again,
///     and the resumed merged report + evidence manifest are
///     byte-identical to the uninterrupted run's.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/stream.hpp"
#include "evidence/sink.hpp"
#include "fault/campaign.hpp"
#include "obs/progress.hpp"

namespace iecd::campaign {

struct EngineOptions {
  /// Campaign identity + fault plan + threads/batch (fault layer options;
  /// each run is seeded, executed and booked by fault::campaign_group).
  fault::CampaignOptions campaign;
  /// Evidence directory: run_<index>.evd artifacts stream in as runs
  /// complete, CHECKPOINT.evd lives here between seals, merged.evd and
  /// MANIFEST.jsonl seal the finished campaign.  Empty = write nothing to
  /// disk (EngineResult::evidence stays empty).
  std::string evidence_dir;
  /// Seal a checkpoint after (at least) this many runs since the previous
  /// seal, at the next lane-group boundary.  0 disables checkpointing;
  /// non-zero requires an evidence_dir (std::invalid_argument otherwise).
  std::size_t checkpoint_every = 0;
  /// Pick up a matching CHECKPOINT.evd and resume at its watermark.  A
  /// missing, corrupt or configuration-mismatched checkpoint silently
  /// starts fresh — a lost checkpoint costs recomputation, not
  /// correctness.
  bool resume = true;
  /// Stream one sealed artifact + sidecar per run.  Off for fleet-scale
  /// measurement campaigns where 100k files would dominate the cost; the
  /// merged artifact and manifest are still written.
  bool write_run_artifacts = true;

  /// Static-tiling baseline schedule: contiguous placement without work
  /// stealing (StreamOptions semantics) — the measured baseline, not the
  /// shipping configuration.  Outputs are identical either way.
  bool contiguous = false;
  /// Optional live progress tap (obs/progress.hpp), purely observational:
  /// outputs are byte-identical with it on or off.  runs_total is the
  /// campaign's run count and runs_completed starts at the resume
  /// watermark, so a resumed campaign still ends at 100%.
  obs::CampaignProgress* progress = nullptr;

  /// Called after every checkpoint seal with the state just written
  /// (checkpoint cadence tests and campaign_ctl's crash-after-checkpoint
  /// flag hang off this).  Runs on the fold's drain thread — keep it
  /// cheap.
  std::function<void(const CheckpointState&)> on_checkpoint;
};

struct EngineResult {
  /// The folded report; unrecovered_health carries the retained
  /// flight-recorder evidence of the unrecovered runs.
  fault::CampaignReport report;
  evidence::CampaignEvidence evidence;
  StreamStats sched;
  bool resumed = false;
  std::size_t resume_start = 0;      ///< watermark the run started from
  std::uint64_t checkpoints_sealed = 0;
};

class CampaignEngine {
 public:
  explicit CampaignEngine(EngineOptions options);

  const EngineOptions& options() const { return options_; }

  /// Runs the campaign.  Exceptions thrown by the scenario propagate (at
  /// any thread count); no run at or after the throwing one is folded.
  EngineResult run(fault::AnyCampaignScenario scenario) const;

  /// "CHECKPOINT.evd" within the evidence directory.
  static std::string checkpoint_filename();
  std::string checkpoint_path() const;

 private:
  EngineOptions options_;
};

}  // namespace iecd::campaign
