// E12 — evidence recorder ingest path (src/evidence/).  Three questions:
//
//   (a) raw ingest throughput: how many records/s (and MB/s) the
//       EvidenceWriter serializes from a loaded TraceRecorder +
//       MetricsRegistry into a sealed artifact (hash chain + SHA-256
//       included) — this is the path a million-run campaign pays per run;
//   (b) the same artifact parsed + verified back (reader MB/s), from
//       memory and from a file;
//   (c) ingest cost against the live trace path: ns/event to record into
//       the TraceRecorder ring vs ns/record to serialize + seal the same
//       events into an artifact (reported as evidence.trace_ingest_ratio
//       — sealing includes SHA-256, so ~2-3x the ring write is the
//       expected shape);
//   (d) recording overhead on the default campaign evidence path: a PIL
//       servo run bare vs with its metrics+health artifact built and
//       sealed afterwards.  This ratio is the CI-gated budget
//       (evidence.overhead_ratio <= 1.10) — the evidence step is strictly
//       serial after the run, so each session times the two parts
//       separately (min-of-N each) and the ratio is exactly
//       1 + artifact/run; the median across sessions is gated.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/case_study.hpp"
#include "evidence/hash.hpp"
#include "evidence/reader.hpp"
#include "evidence/sink.hpp"
#include "evidence/verify.hpp"
#include "evidence/writer.hpp"
#include "obs/monitor.hpp"
#include "trace/trace.hpp"

using namespace iecd;

namespace {

// ------------------------------------------------------ synthetic workload
/// Fills a recorder with a realistic event mix (spans, counters, instants
/// across several tracks) and a registry with every metric kind.
void fill_workload(trace::TraceRecorder& rec, trace::MetricsRegistry& m,
                   std::size_t events) {
  static const char* kTracks[] = {"cpu", "bus", "pil", "plant"};
  static const char* kNames[] = {"step", "isr", "frame", "sample"};
  sim::SimTime t = 0;
  for (std::size_t i = 0; i < events; ++i) {
    const char* track = kTracks[i % 4];
    const char* name = kNames[(i / 4) % 4];
    t += 250;
    switch (i % 3) {
      case 0:
        rec.span_complete("sim", name, track, t, t + 120,
                          static_cast<double>(i % 17));
        break;
      case 1:
        rec.counter("sim", name, track, t, static_cast<double>(i % 251));
        break;
      default:
        rec.instant("sim", name, track, t);
        break;
    }
  }
  m.counter("steps").value = events;
  m.gauge("iae") = 6.375;
  auto& s = m.stats("exec_us");
  for (int i = 0; i < 256; ++i) s.add(10.0 + (i % 13));
  auto& series = m.series("rtt_us");
  for (int i = 0; i < 256; ++i) series.add(800.0 + (i % 37));
  auto& h = m.histogram("lat_us", 0.0, 1000.0, 64);
  for (int i = 0; i < 512; ++i) h.add(static_cast<double>((i * 97) % 1000));
}

std::vector<std::uint8_t> build_artifact(const trace::TraceRecorder& rec,
                                         const trace::MetricsRegistry& m) {
  evidence::EvidenceWriter w;
  w.record_build_info();
  w.record_run_meta("bench_e12", 0, 1);
  w.record_metrics(m);
  w.record_trace(rec);
  w.finish();
  return w.bytes();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void print_table() {
  std::printf("E12: evidence recorder — deterministic binary artifacts "
              "(schema registry, hash chain, SHA-256)\n\n");

  const std::size_t events = bench::smoke() ? 20000 : 200000;
  const int reps = bench::smoke() ? 5 : 10;

  trace::TraceRecorder rec(events + 16);
  trace::MetricsRegistry metrics;
  fill_workload(rec, metrics, events);

  // (a) ingest throughput ------------------------------------------------
  std::vector<std::uint8_t> artifact;
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench::Stopwatch sw;
    artifact = build_artifact(rec, metrics);
    best_ms = std::min(best_ms, sw.elapsed_ms());
  }
  evidence::EvidenceReader probe;
  probe.parse(artifact);
  const double records = static_cast<double>(probe.record_count());
  const double records_per_s = records / (best_ms / 1e3);
  const double mb_per_s =
      static_cast<double>(artifact.size()) / 1e6 / (best_ms / 1e3);
  std::printf("(a) writer ingest: %zu records -> %zu bytes in %.2f ms "
              "(best of %d)\n    %.2fM records/s, %.1f MB/s, sealed with "
              "chain hash + sha256\n\n",
              static_cast<std::size_t>(records), artifact.size(), best_ms,
              reps, records_per_s / 1e6, mb_per_s);
  bench::summarize("evidence.ingest_records_per_s", records_per_s);
  bench::summarize("evidence.ingest_mb_per_s", mb_per_s);
  bench::summarize("evidence.artifact_bytes",
                   static_cast<double>(artifact.size()));
  bench::summarize("evidence.bytes_per_record",
                   static_cast<double>(artifact.size()) / records);

  // (b) read-back + verify ----------------------------------------------
  double verify_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench::Stopwatch sw;
    const auto result = evidence::verify_artifact(artifact);
    verify_ms = std::min(verify_ms, sw.elapsed_ms());
    if (!result.ok) {
      std::printf("verify FAILED: %s\n", result.summary().c_str());
      return;
    }
  }
  const double verify_mb_per_s =
      static_cast<double>(artifact.size()) / 1e6 / (verify_ms / 1e3);
  std::printf("(b) reader+verify: %.2f ms (%.1f MB/s), every record "
              "decoded, both hashes checked\n\n",
              verify_ms, verify_mb_per_s);
  bench::summarize("evidence.verify_mb_per_s", verify_mb_per_s);

  // (b') the same artifact verified from a file, as evidence_verify and
  // the campaign resume path do: one sized read, then (b).
  const std::string path = "bench_e12_verify.evd";
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(artifact.data()),
             static_cast<std::streamsize>(artifact.size()));
  double file_ms = 1e300;
  evidence::VerifyResult from_file;
  for (int r = 0; r < reps; ++r) {
    bench::Stopwatch sw;
    from_file = evidence::verify_artifact_file(path);
    file_ms = std::min(file_ms, sw.elapsed_ms());
    if (!from_file.ok) break;
  }
  std::remove(path.c_str());
  if (!from_file.ok) {
    std::printf("file verify FAILED: %s\n", from_file.summary().c_str());
    return;
  }
  const double file_mb_per_s =
      static_cast<double>(artifact.size()) / 1e6 / (file_ms / 1e3);
  std::printf("(b') read file + verify: %.2f ms (%.1f MB/s)\n\n", file_ms,
              file_mb_per_s);
  bench::summarize("evidence.verify_file_mb_per_s", file_mb_per_s);

  // (c) ingest cost vs the live trace path ------------------------------
  double live_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    trace::TraceRecorder live(events + 16);
    trace::MetricsRegistry unused;
    bench::Stopwatch sw;
    fill_workload(live, unused, events);
    live_ms = std::min(live_ms, sw.elapsed_ms());
  }
  const double live_ns_per_event = live_ms * 1e6 / static_cast<double>(events);
  const double ingest_ns_per_record = best_ms * 1e6 / records;
  const double trace_ingest_ratio = ingest_ns_per_record / live_ns_per_event;
  std::printf("(c) vs live trace path: ring record %.0f ns/event, "
              "serialize+seal %.0f ns/record\n    trace_ingest_ratio %.2f "
              "(sealing includes the SHA-256 digest%s)\n\n",
              live_ns_per_event, ingest_ns_per_record, trace_ingest_ratio,
              evidence::Sha256::hardware_accelerated() ? ", SHA-NI"
                                                       : ", scalar SHA");
  bench::summarize("evidence.live_record_ns_per_event", live_ns_per_event);
  bench::summarize("evidence.ingest_ns_per_record", ingest_ns_per_record);
  bench::summarize("evidence.trace_ingest_ratio", trace_ingest_ratio);

  // (d) campaign-path recording overhead --------------------------------
  // What a fault-campaign run pays per run: its metrics + health sealed
  // into the per-run artifact (no trace — campaigns record summaries).
  core::ServoConfig scfg;
  scfg.duration_s = bench::smoke() ? 0.2 : 0.3;
  scfg.setpoint_time = 0.02;
  // Cheap enough (a PIL run is ~2 ms) to afford full sessions in smoke
  // mode too — the gate needs the noise floor, not a faster bench.
  const int sessions = 5;
  const int runs_per_mode = 3;

  // The evidence step runs strictly after the campaign run, so the
  // overhead ratio decomposes exactly into 1 + artifact_time/run_time.
  // Timing the two parts separately (min-of-N each) keeps the run-vs-run
  // scheduler noise out of the numerator.
  std::vector<double> ratios;
  for (int s = 0; s < sessions; ++s) {
    double run_ms = 1e300;
    trace::MetricsRegistry run_metrics;
    obs::HealthReport health;
    for (int r = 0; r < runs_per_mode; ++r) {
      core::ServoSystem servo(scfg);
      obs::MonitorHub hub;
      core::ServoSystem::PilRunOptions run;
      run.baud = 1000000;
      run.monitors = &hub;
      bench::Stopwatch sw;
      const auto result = servo.run_pil(run);
      // A campaign produces the health report either way (RunContext
      // keeps it); evidence adds only the serialize-and-seal step.
      health = hub.report("pil");
      run_ms = std::min(run_ms, sw.elapsed_ms());
      benchmark::DoNotOptimize(result.iae);
      run_metrics = result.report.metrics;
    }
    double artifact_ms = 1e300;
    for (int r = 0; r < 10; ++r) {
      bench::Stopwatch sw;
      const auto writer = evidence::build_run_artifact(
          "bench_e12", 0, 42, run_metrics, &health);
      artifact_ms = std::min(artifact_ms, sw.elapsed_ms());
      benchmark::DoNotOptimize(writer.bytes().data());
    }
    ratios.push_back(1.0 + artifact_ms / run_ms);
  }
  const double overhead_ratio = median(ratios);
  std::printf("(d) campaign-path overhead: PIL servo %.1fs, bare run vs "
              "+ sealed metrics/health artifact\n    overhead ratio %.4f "
              "(median of %d sessions; CI budget 1.10)\n\n",
              scfg.duration_s, overhead_ratio, sessions);
  bench::summarize("evidence.overhead_ratio", overhead_ratio);
}

// ------------------------------------------------------- microbenchmarks
void BM_WriterIngest(benchmark::State& state) {
  trace::TraceRecorder rec(1 << 15);
  trace::MetricsRegistry metrics;
  fill_workload(rec, metrics, 1 << 15);
  for (auto _ : state) {
    auto bytes = build_artifact(rec, metrics);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rec.size()));
}
BENCHMARK(BM_WriterIngest)->Unit(benchmark::kMillisecond);

void BM_VerifyArtifact(benchmark::State& state) {
  trace::TraceRecorder rec(1 << 15);
  trace::MetricsRegistry metrics;
  fill_workload(rec, metrics, 1 << 15);
  const auto artifact = build_artifact(rec, metrics);
  for (auto _ : state) {
    auto result = evidence::verify_artifact(artifact);
    benchmark::DoNotOptimize(result.ok);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(artifact.size()));
}
BENCHMARK(BM_VerifyArtifact)->Unit(benchmark::kMillisecond);

}  // namespace

IECD_BENCH_MAIN(print_table)
