/// \file checkpoint.hpp
/// Run-granular campaign checkpoints: the folded-prefix state a streaming
/// campaign needs to resume exactly where it stopped.  A checkpoint is a
/// regular evidence artifact (format.hpp container, schema
/// kSchemaCampaignCheckpoint) holding
///
///   * the campaign identity (name, config hash, total runs),
///   * the completed-run watermark — every run below it is folded into the
///     merged state and, when per-run artifacts are on, sealed on disk,
///   * the merged MetricsRegistry as ordinary metric records (the
///     reader's exact raw-state round trip: counter values, RunningStats
///     {count, mean, m2, sum, min, max}, series samples and histogram bins
///     all travel as little-endian integers / IEEE-754 bit patterns),
///   * an opaque state blob carrying what the metric records cannot: the
///     merged obs::HealthReport (full TimingMonitor / WatermarkMonitor /
///     LatencyHistogram raw state, including the jitter seam), the report
///     totals, and the unrecovered-run indices with their retained health
///     reports.
///
/// Because every field round-trips bit-exactly, a campaign resumed from a
/// checkpoint produces a merged report — and an evidence manifest — that
/// is byte-identical to the uninterrupted run's (the kill/resume suite
/// locks this).  Checkpoint size is O(sites + histograms + unrecovered),
/// never O(runs).
///
/// The config hash covers everything that determines per-run RESULTS
/// (name, seed, run count, lane-batch width, every FaultPlan field as its
/// exact bit pattern) and deliberately excludes pure scheduling knobs
/// (threads, window, chunk, stealing) — a campaign checkpointed on 8
/// threads resumes bit-identically on 2.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "evidence/format.hpp"
#include "fault/campaign.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

namespace iecd::campaign {

/// Everything a resumed campaign starts from.
struct CheckpointState {
  std::uint64_t config_hash = 0;
  /// Runs [0, watermark) are folded into \p report (and their artifacts
  /// sealed on disk when per-run evidence is enabled).  Always lane-group
  /// aligned — the engine seals only at group boundaries, so a resume
  /// reproduces the uninterrupted run's exact group structure.
  std::uint64_t watermark = 0;
  /// The campaign's report so far: name and runs identify the campaign;
  /// merged, health, the unrecovered runs (ascending, all < watermark)
  /// with their retained health, and the totals are the
  /// CampaignReport::fold of runs [0, watermark).  seed is not stored (the
  /// config hash covers it).
  fault::CampaignReport report;
};

enum class CheckpointStatus {
  kOk = 0,
  kMissing,   ///< no checkpoint file at the path
  kCorrupt,   ///< artifact fails verification or the state blob is malformed
};

/// FNV-1a 64 over the result-determining campaign configuration: name,
/// seed, runs, batch and every FaultPlan field (doubles hashed as their
/// IEEE-754 bit pattern).  Scheduling knobs are excluded on purpose (see
/// file comment).
std::uint64_t campaign_config_hash(const fault::CampaignOptions& options);

/// Seals \p state into an evidence artifact and writes it atomically
/// (tmp + rename), so a crash mid-write can never leave a torn checkpoint
/// behind — the previous one stays intact until the new bytes are on disk.
bool save_checkpoint(const std::string& path, const CheckpointState& state);

/// Loads and verifies a checkpoint.  On kOk \p out carries the exact state
/// save_checkpoint serialized; on anything else \p out is unspecified and
/// the caller starts fresh (a lost checkpoint only costs recomputation —
/// never correctness).
CheckpointStatus load_checkpoint(const std::string& path,
                                 CheckpointState& out);

/// HealthReport raw-state codec (exposed for the round-trip tests): every
/// monitor serialized field-exactly, doubles as bit patterns.
void encode_health_report(std::vector<std::uint8_t>& out,
                          const obs::HealthReport& report);
bool decode_health_report(evidence::PayloadCursor& cur,
                          obs::HealthReport& out);

}  // namespace iecd::campaign
