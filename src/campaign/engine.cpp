#include "campaign/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "evidence/writer.hpp"

namespace iecd::campaign {

CampaignEngine::CampaignEngine(EngineOptions options)
    : options_(std::move(options)) {}

std::string CampaignEngine::checkpoint_filename() { return "CHECKPOINT.evd"; }

std::string CampaignEngine::checkpoint_path() const {
  return (std::filesystem::path(options_.evidence_dir) /
          checkpoint_filename())
      .string();
}

EngineResult CampaignEngine::run(fault::AnyCampaignScenario scenario) const {
  const fault::CampaignOptions& opts = options_.campaign;
  const std::size_t batch = std::max<std::size_t>(1, opts.batch);
  const std::string& dir = options_.evidence_dir;
  const bool to_disk = !dir.empty();
  if (!to_disk && options_.checkpoint_every > 0) {
    throw std::invalid_argument(
        "CampaignEngine: checkpoint_every needs an evidence_dir");
  }
  const bool run_artifacts = to_disk && options_.write_run_artifacts;
  if (to_disk) std::filesystem::create_directories(dir);
  const std::string ckpt_path = checkpoint_path();

  EngineResult result;

  CheckpointState state;
  state.config_hash = campaign_config_hash(opts);
  state.report.name = opts.name;
  state.report.runs = opts.runs;
  // HealthReport defaults to runs = 1; the fold counts folded runs.
  state.report.health.runs = 0;

  std::vector<evidence::RunArtifact> artifacts;

  if (options_.checkpoint_every > 0 && options_.resume) {
    CheckpointState loaded;
    if (load_checkpoint(ckpt_path, loaded) == CheckpointStatus::kOk &&
        loaded.report.name == opts.name &&
        loaded.config_hash == state.config_hash &&
        loaded.report.runs == opts.runs && loaded.watermark <= opts.runs &&
        (loaded.watermark % batch == 0 || loaded.watermark == opts.runs)) {
      // Re-describe the completed runs' artifacts instead of storing
      // O(runs) descriptors in the checkpoint; any missing or corrupt
      // file invalidates the resume (fresh start is always safe).
      bool intact = true;
      std::vector<evidence::RunArtifact> described(
          run_artifacts ? loaded.watermark : 0);
      for (std::size_t i = 0; i < described.size(); ++i) {
        if (!evidence::describe_artifact_file(
                dir, evidence::run_artifact_filename(i), described[i])) {
          intact = false;
          break;
        }
      }
      if (intact) {
        state = std::move(loaded);
        artifacts = std::move(described);
        result.resumed = true;
      }
    }
  }
  state.report.seed = opts.seed;
  result.resume_start = static_cast<std::size_t>(state.watermark);

  obs::CampaignProgress* progress = options_.progress;
  if (progress != nullptr) {
    progress->runs_total.store(opts.runs, std::memory_order_relaxed);
    progress->runs_completed.store(result.resume_start,
                                   std::memory_order_relaxed);
  }

  std::size_t last_checkpoint = result.resume_start;
  StreamRunner::SinkFn sink = [&](GroupResult& group) {
    for (std::size_t k = 0; k < group.metrics.size(); ++k) {
      const std::size_t index = group.first + k;
      state.report.fold(index, group.metrics[k], group.health[k]);
      if (run_artifacts) {
        const std::uint64_t seed =
            fault::CampaignRunner::run_seed(opts.seed, index);
        evidence::EvidenceWriter writer = evidence::build_run_artifact(
            opts.name, index, seed, group.metrics[k], &group.health[k],
            nullptr);
        artifacts.push_back(evidence::write_artifact_with_sidecar(
            dir, evidence::run_artifact_filename(index), writer, opts.name,
            index, seed));
      }
    }
    state.watermark = group.first + group.metrics.size();
    if (progress != nullptr) {
      progress->groups_completed.fetch_add(1, std::memory_order_relaxed);
      progress->runs_completed.fetch_add(group.metrics.size(),
                                         std::memory_order_relaxed);
    }
    // Seal at lane-group boundaries only, so the watermark stays
    // group-aligned and a resume reproduces the uninterrupted run's exact
    // group structure.
    if (options_.checkpoint_every > 0 && state.watermark < opts.runs &&
        state.watermark - last_checkpoint >= options_.checkpoint_every) {
      if (save_checkpoint(ckpt_path, state)) {
        last_checkpoint = static_cast<std::size_t>(state.watermark);
        ++result.checkpoints_sealed;
        if (progress != nullptr) {
          progress->checkpoints.fetch_add(1, std::memory_order_relaxed);
        }
        if (options_.on_checkpoint) options_.on_checkpoint(state);
      }
    }
  };

  StreamOptions so;
  so.threads = opts.threads;
  so.batch = batch;
  so.stealing = !options_.contiguous;
  so.placement = options_.contiguous ? Placement::kContiguous
                                     : Placement::kCyclic;
  result.sched = StreamRunner(so).run(
      opts.runs, result.resume_start,
      fault::campaign_group(opts, std::move(scenario)), sink);
  if (progress != nullptr) {
    progress->steals.fetch_add(result.sched.steals,
                               std::memory_order_relaxed);
    progress->steal_attempts.fetch_add(result.sched.steal_attempts,
                                       std::memory_order_relaxed);
    progress->window_waits.fetch_add(result.sched.window_waits,
                                     std::memory_order_relaxed);
  }

  result.report = std::move(state.report);
  if (!to_disk) return result;

  result.evidence = evidence::finish_campaign_evidence(
      dir, opts, result.report, std::move(artifacts));

  // The campaign finished; the checkpoint has served its purpose.  A
  // stale one must not survive into the next (possibly different)
  // campaign in the same directory.
  std::error_code ec;
  std::filesystem::remove(ckpt_path, ec);
  std::filesystem::remove(ckpt_path + ".tmp", ec);

  return result;
}

}  // namespace iecd::campaign
