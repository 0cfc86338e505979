// campaign_ctl — drives the streaming campaign engine from the command
// line: start a campaign, kill it mid-flight (deterministically, right
// after a checkpoint seal), resume it, and inspect a checkpoint.  The CI
// campaign-resume job runs exactly this sequence and byte-compares the
// resumed evidence against an uninterrupted run.
//
//   campaign_ctl run --dir DIR [--runs N] [--threads N] [--batch N]
//                    [--seed S] [--checkpoint-every N] [--crash-after K]
//                    [--no-artifacts] [--fresh]
//       Runs the built-in synthetic campaign (deterministic SplitMix64
//       spin work; output depends only on seed/runs/batch).  When a
//       matching CHECKPOINT.evd exists in DIR the run RESUMES at its
//       watermark.  --crash-after K calls _exit(42) right after the K-th
//       checkpoint seal — the crash the resume path is tested against.
//       --fresh wipes DIR first.  Writes DIR/REPORT.json on completion.
//   campaign_ctl status --dir DIR
//       Prints the checkpoint's identity and watermark; exit 0 when a
//       valid checkpoint exists, 1 otherwise.
//
// Exit code: 0 success, 1 status-missing/failure, 2 usage, 42 when
// --crash-after fired.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "campaign/engine.hpp"
#include "fault/campaign.hpp"
#include "fault/rng.hpp"

#if defined(__unix__)
#include <unistd.h>
#endif

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: campaign_ctl run --dir DIR [--runs N] [--threads N]\n"
      "                        [--batch N] [--seed S]\n"
      "                        [--checkpoint-every N] [--crash-after K]\n"
      "                        [--no-artifacts] [--fresh]\n"
      "       campaign_ctl status --dir DIR\n");
  return 2;
}

/// The synthetic run body: deterministic arithmetic seeded from the
/// per-run seed, so the campaign output is a pure function of
/// (seed, runs, batch) — what the resume byte-comparison needs.
bool scenario(iecd::fault::RunContext& ctx) {
  iecd::fault::SplitMix64 rng(ctx.run_seed);
  double acc = 0.0;
  for (int i = 0; i < 2000; ++i) {
    acc = acc * 0.9999999 +
          static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }
  ctx.metrics.stats("campaign.cost").add(acc);
  const auto t = static_cast<iecd::sim::SimTime>(1000 + ctx.index);
  ctx.health.tasks["ctl.work"].record(t, t + 1, t + 2);
  return true;
}

int cmd_status(const std::string& dir) {
  iecd::campaign::CheckpointState state;
  const std::string path =
      (std::filesystem::path(dir) /
       iecd::campaign::CampaignEngine::checkpoint_filename())
          .string();
  switch (iecd::campaign::load_checkpoint(path, state)) {
    case iecd::campaign::CheckpointStatus::kOk:
      std::printf("checkpoint %s: campaign \"%s\", config %016llx, "
                  "watermark %llu / %llu runs, %zu unrecovered so far\n",
                  path.c_str(), state.report.name.c_str(),
                  static_cast<unsigned long long>(state.config_hash),
                  static_cast<unsigned long long>(state.watermark),
                  static_cast<unsigned long long>(state.report.runs),
                  state.report.unrecovered_runs.size());
      return 0;
    case iecd::campaign::CheckpointStatus::kMissing:
      std::printf("no checkpoint at %s\n", path.c_str());
      return 1;
    case iecd::campaign::CheckpointStatus::kCorrupt:
      std::printf("checkpoint at %s is corrupt\n", path.c_str());
      return 1;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  std::string dir;
  std::size_t runs = 512;
  std::size_t threads = 2;
  std::size_t batch = 1;
  std::uint64_t seed = 2026;
  std::size_t checkpoint_every = 64;
  std::size_t crash_after = 0;
  bool artifacts = true;
  bool fresh = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--dir" && (v = next())) {
      dir = v;
    } else if (arg == "--runs" && (v = next())) {
      runs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads" && (v = next())) {
      threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--batch" && (v = next())) {
      batch = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next())) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--checkpoint-every" && (v = next())) {
      checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (arg == "--crash-after" && (v = next())) {
      crash_after = std::strtoull(v, nullptr, 10);
    } else if (arg == "--no-artifacts") {
      artifacts = false;
    } else if (arg == "--fresh") {
      fresh = true;
    } else {
      return usage();
    }
  }
  if (dir.empty()) return usage();

  if (cmd == "status") return cmd_status(dir);
  if (cmd != "run") return usage();

  if (fresh) std::filesystem::remove_all(dir);

  iecd::campaign::EngineOptions eo;
  eo.campaign.name = "campaign_ctl";
  eo.campaign.seed = seed;
  eo.campaign.runs = runs;
  eo.campaign.threads = threads;
  eo.campaign.batch = batch;
  eo.evidence_dir = dir;
  eo.checkpoint_every = checkpoint_every;
  eo.write_run_artifacts = artifacts;
  std::size_t sealed = 0;
  if (crash_after > 0) {
    eo.on_checkpoint =
        [&sealed, crash_after](const iecd::campaign::CheckpointState& state) {
          if (++sealed == crash_after) {
            std::printf("crash-after: exiting after checkpoint seal at "
                        "watermark %llu\n",
                        static_cast<unsigned long long>(state.watermark));
            std::fflush(stdout);
#if defined(__unix__)
            _exit(42);
#else
            std::_Exit(42);
#endif
          }
        };
  }

  iecd::campaign::CampaignEngine engine(eo);
  const iecd::campaign::EngineResult result = engine.run(
      iecd::fault::CampaignScenario(scenario));

  result.report.write_json(
      (std::filesystem::path(dir) / "REPORT.json").string());
  std::printf("%s%s: %zu runs (%zu threads, batch %zu), %llu checkpoints "
              "sealed, %llu steals, manifest %s\n",
              result.resumed ? "resumed at " : "ran",
              result.resumed
                  ? std::to_string(result.resume_start).c_str()
                  : "",
              runs, result.sched.threads_used,
              batch,
              static_cast<unsigned long long>(result.checkpoints_sealed),
              static_cast<unsigned long long>(result.sched.steals),
              result.evidence.manifest_path.c_str());
  return 0;
}
