/// \file harness.hpp
/// Measurement plumbing shared by every perfbench workload: clocks, the
/// seeded input generator, in-memory spans for the traced run, the op log
/// the end-to-end metrics are computed from, and the simulated-output
/// digest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "evidence/hash.hpp"

namespace perfbench {

// ------------------------------------------------------------------ clocks

/// Monotonic host time [s].
double now_s();
/// CPU time of the whole process, all threads [s].
double process_cpu_s();
/// Peak resident set of this process [MB].
double peak_rss_mb();
/// Spin-calibrated effective parallelism of the host right now: the same
/// fixed arithmetic is timed on one thread, then on \p threads threads at
/// once; the result is threads * t1 / tN (ideal = threads).
double effective_parallelism(unsigned threads);

// ------------------------------------------------------------ seeded inputs

/// SplitMix64: the benchmark's own input generator, kept separate from the
/// library's PRNGs so a library change can never alter the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Fisher-Yates shuffle of \p v.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Exact, locale-free text of a double (hex float) for the inputs dump.
std::string hexfloat(double v);

// ------------------------------------------------------------------- spans

/// Spans around the calls into each layer, recorded in memory per thread
/// and collected when the run ends.  Off by default: a Span constructed
/// while tracing is off costs one branch.
struct SpanRecord {
  const char* name = "";
  std::uint32_t thread = 0;
  std::uint32_t parent = 0;  ///< index within the same thread, or kNoParent
  std::uint64_t op = 0;      ///< op id shared by every span of one op
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  double ms() const { return static_cast<double>(t1_ns - t0_ns) * 1e-6; }
};

void set_tracing(bool on);
bool tracing();

class Span {
 public:
  /// Opens a span under the innermost open span of this thread.
  explicit Span(const char* name);
  /// Opens an op root span: \p op becomes the op id of every span opened
  /// on this thread until the next root.
  Span(const char* name, std::uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name);
  std::uint32_t index_ = SpanRecord::kNoParent;
};

/// Every span recorded since the last clear, thread by thread (call only
/// when no other thread is recording).
std::vector<SpanRecord> collect_spans();
void clear_spans();

/// Per-name aggregate of a span set.
struct SpanStats {
  std::vector<double> ms;  ///< every occurrence, recording order
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus time covered by child spans
  double median() const;
};
std::map<std::string, SpanStats> summarize_spans(
    const std::vector<SpanRecord>& spans);
/// Σ durations of the direct children of every span named \p parent,
/// divided by Σ durations of those parents (1.0 = children cover it).
double child_coverage(const std::vector<SpanRecord>& spans,
                      const std::string& parent);
bool write_spans_csv(const std::vector<SpanRecord>& spans,
                     const std::string& path);

// ------------------------------------------------------------------ op log

/// What one Workload::step added to an OpLog.
struct StepSample {
  double ops = 0.0;
  double cpu_s = 0.0;
};

/// What the timed phase measured: every op's host latency, the host time
/// and process CPU spent inside the calls that executed ops, the ops
/// attempted / failed, and the ops and CPU of each step.
struct OpLog {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  std::vector<StepSample> steps;
};

/// Linear-interpolated percentile (q in [0, 1]) of \p v.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// ------------------------------------------------------------------ digest

/// SHA-256 over a canonical byte stream of simulated outputs.
class Digest {
 public:
  void add(const std::string& s);
  void add(std::uint64_t v);
  /// The bit pattern of \p v (bitwise identity, not numeric closeness).
  void add_bits(double v);
  std::string hex();

 private:
  iecd::evidence::Sha256 sha_;
};

/// Text with every occurrence of util::build_info_json() blanked to "{}":
/// report JSON embeds build provenance, which is not a simulated output.
std::string without_build_info(std::string text);
/// A campaign MANIFEST.jsonl reduced to its simulated content: the build
/// line is dropped and each artifact line loses its byte count and hashes
/// (artifacts embed build provenance, so those depend on the build, not on
/// the simulation).
std::string manifest_for_digest(const std::string& manifest);

std::string read_file(const std::string& path);

}  // namespace perfbench
