// perfbench driver: runs one workload from a seed and prints one JSON
// report line (provenance, digests, checks and metrics).  run.py builds
// this binary and turns the report into the benchmark's result line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out DIR [--flip-byte-op K] [--dump-inputs]
//
// Untraced (--trace 0): ops run back to back for S seconds.  Set-up
// (inputs from the seed, the output directory, one untimed warm-up op) is
// measured kSetupReps times in process CPU time and its median reported.  Traced (--trace 1):
// S/2 seconds untraced, then S/2 seconds with spans recorded around every
// call into a layer; the per-layer metrics come from the traced half and
// the gap between the halves is the tracing overhead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/build_info.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 11;
/// cpu_ms_per_op is the CPU per op that nine steps in ten stay under.  On
/// a shared host other tenants slow the code in spells of seconds to
/// minutes; a whole-run mean follows the share of slow spells a run happens
/// to catch, while the slow tenth of the steps moves only when that share
/// crosses a tenth.
constexpr double kStepQuantile = 0.9;
/// The seed whose sim_digest is committed (digests.json); every run also
/// recomputes it so a change of simulated behaviour fails any run.
constexpr std::uint64_t kDefaultSeed = 1;

using Factory = std::function<std::unique_ptr<Workload>(const WorkloadOptions&)>;

const std::vector<std::pair<std::string, Factory>>& workloads() {
  static const std::vector<std::pair<std::string, Factory>> all = {
      {"devcycle", make_devcycle},
      {"mil_sweep", make_mil_sweep},
      {"pil_campaign", make_pil_campaign},
      {"farm", make_farm},
  };
  return all;
}

/// Every per-layer metric with its unit.  A workload that does not
/// exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"core.setup_ms", "ms"},
      {"beans.validate_ms", "ms"},
      {"model.mil_ms", "ms"},
      {"model.mil_rtf", "s/s"},
      {"codegen.build_ms", "ms"},
      {"pil.run_ms", "ms"},
      {"pil.exchanges", "count"},
      {"pil.frames_processed", "count"},
      {"pil.crc_errors", "count"},
      {"pil.retransmits", "count"},
      {"pil.recovered_exchanges", "count"},
      {"pil.exchanges_abandoned", "count"},
      {"pil.recovery_ratio", "ratio"},
      {"rt.hil_ms", "ms"},
      {"rt.activations", "count"},
      {"rt.overruns", "count"},
      {"trace.events", "count"},
      {"trace.drops", "count"},
      {"evidence.write_ms", "ms"},
      {"evidence.verify_ms", "ms"},
      {"evidence.bytes", "B"},
      {"evidence.artifacts", "count"},
      {"evidence.bytes_written", "B"},
      {"evidence.verify_mb_per_s", "MB/s"},
      {"exec.fold_ms", "ms"},
      {"batch.group_ms", "ms"},
      {"batch.lanes", "count"},
      {"batch.identical_ratio", "ratio"},
      {"campaign.outside_scenario_ms", "ms"},
      {"campaign.scenario_sum_ratio", "ratio"},
      {"campaign.steals", "count"},
      {"campaign.steal_attempts", "count"},
      {"campaign.window_waits", "count"},
      {"campaign.peak_pending_groups", "count"},
      {"campaign.checkpoints_sealed", "count"},
      {"campaign.unrecovered", "count"},
      {"fault.injected", "count"},
      {"fault.opportunities", "count"},
      {"cosim.build_ms", "ms"},
      {"cosim.run_ms", "ms"},
      {"cosim.events_executed", "count"},
      {"cosim.negotiations", "count"},
      {"cosim.frames_delivered", "count"},
      {"cosim.bus_utilisation", "ratio"},
      {"cosim.events_per_host_s", "1/s"},
      {"core.pil_iae_rel_err", "ratio"},
      {"core.hil_iae_rel_err", "ratio"},
      {"devcycle.stage_sum_ratio", "ratio"},
      {"bench.trace_overhead", "ratio"},
      {"host.parallelism_before", "x"},
      {"host.parallelism_after", "x"},
  };
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/out";
  std::uint64_t flip_byte_op = 0;
  bool dump_inputs = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 --out DIR "
               "[--flip-byte-op K] [--dump-inputs]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--dump-inputs") {
      a.dump_inputs = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--out") {
        a.out = value;
      } else if (key == "--flip-byte-op") {
        a.flip_byte_op = std::stoull(value);
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.seconds <= 0.0 || !std::isfinite(a.seconds)) usage("bad --seconds");
  return a;
}

/// One step of \p w, with what it added to \p log kept as a StepSample.
void timed_step(Workload& w, OpLog& log) {
  const std::uint64_t ops = log.attempted;
  const double cpu_s = log.cpu_s;
  w.step(log);
  log.steps.push_back({static_cast<double>(log.attempted - ops),
                       log.cpu_s - cpu_s});
}

void run_phase(Workload& w, OpLog& log, double seconds) {
  const double end = now_s() + seconds;
  do {
    timed_step(w, log);
  } while (now_s() < end);
}

/// Steps until every pool entry has a result (a short timed phase may end
/// first); gives up after \p budget_s so a failing entry cannot hang.
void cover_pool(Workload& w, OpLog& log, double budget_s) {
  const double end = now_s() + budget_s;
  while (!w.covered() && now_s() < end) w.step(log);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

int run(const Args& args) {
  const Factory* factory = nullptr;
  for (const auto& [name, f] : workloads()) {
    if (name == args.workload) factory = &f;
  }
  if (factory == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());
  const std::string out_dir =
      (std::filesystem::path(args.out) / args.workload).string();

  if (args.dump_inputs) {
    const auto w = (*factory)({args.seed, out_dir + "/inputs", 0});
    std::fputs(w->inputs().c_str(), stdout);
    return 0;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism_before = effective_parallelism(nproc);

  // Set-up of the instance that runs the timed phase, in process CPU time
  // (setup_s) and host time.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  const auto w = (*factory)({args.seed, out_dir + "/run", args.flip_byte_op});
  w->warm_up();
  setup_s.push_back(process_cpu_s() - c0);
  setup_wall_s.push_back(now_s() - t0);
  Digest inputs_digest;
  inputs_digest.add(w->inputs());
  const std::string inputs_sha = inputs_digest.hex();

  // The timed phase; between its steps the set-up is repeated on
  // throwaway instances, spread over the phase so the median set-up time
  // samples the host as the ops do.
  const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
  OpLog log;
  const double phase_end = now_s() + phase_s;
  double next_setup = now_s();
  do {
    timed_step(*w, log);
    if (static_cast<int>(setup_s.size()) < kSetupReps &&
        now_s() >= next_setup) {
      const double s0 = now_s();
      const double sc0 = process_cpu_s();
      const auto again = (*factory)({args.seed, out_dir + "/setup", 0});
      again->warm_up();
      setup_s.push_back(process_cpu_s() - sc0);
      setup_wall_s.push_back(now_s() - s0);
      next_setup += phase_s / kSetupReps;
    }
  } while (now_s() < phase_end);
  Metrics metrics;
  w->timed_metrics(metrics);

  OpLog traced;
  std::vector<SpanRecord> spans;
  if (args.trace) {
    clear_spans();
    w->begin_phase();
    set_tracing(true);
    run_phase(*w, traced, phase_s);
    set_tracing(false);
    spans = collect_spans();
  }

  // Untimed: finish the pool, run the whole-pool checks, digest.
  OpLog post;
  cover_pool(*w, post, std::max(30.0, args.seconds));
  w->check(post);
  const std::string digest = w->digest();

  std::string ref_digest = digest;
  if (args.seed != kDefaultSeed) {
    const auto ref = (*factory)({kDefaultSeed, out_dir + "/ref", 0});
    cover_pool(*ref, post, std::max(30.0, args.seconds));
    ref->check(post);
    ref_digest = ref->digest();
  }
  const double parallelism_after = effective_parallelism(nproc);

  const std::uint64_t attempted =
      log.attempted + traced.attempted + post.attempted;
  const std::uint64_t failed = log.failed + traced.failed + post.failed;

  const double ops = static_cast<double>(log.attempted);
  metrics["ops_per_s"] = {log.busy_s > 0.0 ? ops / log.busy_s : 0.0, "1/s"};
  metrics["op_ms_p50"] = {percentile(log.latency_ms, 0.5), "ms"};
  metrics["op_ms_p90"] = {percentile(log.latency_ms, 0.9), "ms"};
  std::vector<double> step_cpu_ms;
  for (const StepSample& s : log.steps) {
    if (s.ops > 0.0) step_cpu_ms.push_back(s.cpu_s * 1e3 / s.ops);
  }
  metrics["cpu_ms_per_op"] = {percentile(step_cpu_ms, kStepQuantile), "ms"};
  metrics["cpu_ms_per_op_mean"] = {ops > 0.0 ? log.cpu_s * 1e3 / ops : 0.0,
                                   "ms"};
  metrics["setup_s"] = {median(setup_s), "s"};
  metrics["setup_wall_s"] = {median(setup_wall_s), "s"};
  metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  std::string checks = "{";
  std::string self_ms = "{";
  if (args.trace) {
    for (const auto& [name, unit] : layer_units()) metrics[name] = {0.0, unit};
    w->layer_metrics(spans, metrics);
    const double untraced_per_op = log.busy_s / std::max(1.0, ops);
    const double traced_per_op =
        traced.busy_s / std::max(1.0, static_cast<double>(traced.attempted));
    metrics["bench.trace_overhead"].value =
        untraced_per_op > 0.0 ? traced_per_op / untraced_per_op - 1.0 : 0.0;
    metrics["host.parallelism_before"].value = parallelism_before;
    metrics["host.parallelism_after"].value = parallelism_after;
    if (args.workload == "devcycle") {
      // The stage spans must account for the whole op span.
      const double ratio = metrics["devcycle.stage_sum_ratio"].value;
      checks += "\"stage_coverage\":" +
                std::string(ratio >= 0.98 && ratio <= 1.0 + 1e-9 ? "true"
                                                                 : "false");
    }
    for (const auto& [name, s] : summarize_spans(spans)) {
      if (self_ms.size() > 1) self_ms += ",";
      self_ms += json_string(name) + ":" + json_number(s.self_ms);
    }
    std::filesystem::create_directories(out_dir);
    write_spans_csv(spans, out_dir + "/spans.csv");
  }
  checks += "}";
  self_ms += "}";

  std::string setup = "[";
  for (double s : setup_s) {
    if (setup.size() > 1) setup += ",";
    setup += json_number(s);
  }
  setup += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"workers\":%zu,\"nproc\":%u,\"build\":%s,"
      "\"host\":{\"effective_parallelism_before\":%s,"
      "\"effective_parallelism_after\":%s},"
      "\"inputs_sha\":%s,\"sim_digest\":%s,\"ref_seed\":%llu,"
      "\"ref_digest\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"fail_ratio\":%s,\"op_samples\":%zu,\"setup_samples_s\":%s,"
      "\"checks\":%s,\"self_ms\":%s,\"metrics\":%s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0, w->workers(),
      nproc, iecd::util::build_info_json().c_str(),
      json_number(parallelism_before).c_str(),
      json_number(parallelism_after).c_str(), json_string(inputs_sha).c_str(),
      json_string(digest).c_str(),
      static_cast<unsigned long long>(kDefaultSeed),
      json_string(ref_digest).c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      json_number(attempted > 0 ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 0.0)
          .c_str(),
      log.latency_ms.size(), setup.c_str(), checks.c_str(), self_ms.c_str(),
      json_metrics(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
