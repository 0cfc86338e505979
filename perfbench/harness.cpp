#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/build_info.hpp"
#include "workload.hpp"

namespace perfbench {

// ------------------------------------------------------------------ clocks

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fixed floating-point work for the parallelism calibration.
double spin(std::uint64_t iters) {
  double acc = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc = acc * 0.999999937 + 1e-9 * static_cast<double>(i & 1023);
  }
  return acc;
}

}  // namespace

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark.  ru_maxrss is not:
  // Linux carries the parent's peak across fork + exec, so a driver
  // started from Python would report Python's resident set.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

double effective_parallelism(unsigned threads) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::atomic<double> sink{0.0};
  const double t0 = now_s();
  sink = spin(kIters);
  const double single = now_s() - t0;

  std::vector<std::thread> pool;
  pool.reserve(threads);
  const double t1 = now_s();
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&sink] { sink = spin(kIters); });
  }
  for (std::thread& t : pool) t.join();
  const double parallel = now_s() - t1;
  return parallel > 0.0 ? static_cast<double>(threads) * single / parallel
                        : 0.0;
}

// ------------------------------------------------------------ seeded inputs

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// ------------------------------------------------------------------- spans

namespace {

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::uint32_t> open;
  std::uint64_t op = 0;
};

std::atomic<bool> g_tracing{false};
std::mutex g_registry_mutex;
// Owns every thread's buffer so spans outlive the worker threads that
// recorded them (campaign pools are torn down after each campaign).
std::vector<std::unique_ptr<ThreadSpans>> g_registry;

ThreadSpans& thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto buffer = std::make_unique<ThreadSpans>();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    buffer->thread = static_cast<std::uint32_t>(g_registry.size());
    mine = buffer.get();
    g_registry.push_back(std::move(buffer));
  }
  return *mine;
}

}  // namespace

void set_tracing(bool on) { g_tracing = on; }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (tracing()) open(name);
}

Span::Span(const char* name, std::uint64_t op) {
  if (!tracing()) return;
  thread_spans().op = op;
  open(name);
}

void Span::open(const char* name) {
  ThreadSpans& ts = thread_spans();
  SpanRecord rec;
  rec.name = name;
  rec.thread = ts.thread;
  rec.parent = ts.open.empty() ? SpanRecord::kNoParent : ts.open.back();
  rec.op = ts.op;
  index_ = static_cast<std::uint32_t>(ts.spans.size());
  ts.open.push_back(index_);
  rec.t0_ns = now_ns();
  ts.spans.push_back(rec);
}

Span::~Span() {
  if (index_ == SpanRecord::kNoParent) return;
  ThreadSpans& ts = thread_spans();
  ts.spans[index_].t1_ns = now_ns();
  ts.open.pop_back();
}

std::vector<SpanRecord> collect_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<SpanRecord> all;
  for (const auto& ts : g_registry) {
    all.insert(all.end(), ts->spans.begin(), ts->spans.end());
  }
  return all;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& ts : g_registry) ts->spans.clear();
}

double SpanStats::median() const { return perfbench::median(ms); }

std::map<std::string, SpanStats> summarize_spans(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanStats> out;
  // Child time per span, keyed by (thread, index within thread).  Spans of
  // one thread are contiguous in collect_spans() order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent != SpanRecord::kNoParent) {
      child_ms[{s.thread, s.parent}] += s.ms();
    }
  }
  std::uint32_t first = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].thread != spans[i - 1].thread) {
      first = static_cast<std::uint32_t>(i);
    }
    const auto local = static_cast<std::uint32_t>(i - first);
    SpanStats& s = out[spans[i].name];
    const double ms = spans[i].ms();
    s.ms.push_back(ms);
    s.total_ms += ms;
    const auto it = child_ms.find({spans[i].thread, local});
    s.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

double child_coverage(const std::vector<SpanRecord>& spans,
                      const std::string& parent) {
  double parent_ms = 0.0;
  double covered_ms = 0.0;
  std::uint32_t first = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].thread != spans[i - 1].thread) {
      first = static_cast<std::uint32_t>(i);
    }
    if (parent == spans[i].name) parent_ms += spans[i].ms();
    if (spans[i].parent != SpanRecord::kNoParent &&
        parent == spans[first + spans[i].parent].name) {
      covered_ms += spans[i].ms();
    }
  }
  return parent_ms > 0.0 ? covered_ms / parent_ms : 0.0;
}

bool write_spans_csv(const std::vector<SpanRecord>& spans,
                     const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "name,thread,index,parent,op,start_ns,end_ns\n";
  std::uint32_t first = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i == 0 || s.thread != spans[i - 1].thread) {
      first = static_cast<std::uint32_t>(i);
    }
    os << s.name << ',' << s.thread << ',' << (i - first) << ',';
    if (s.parent == SpanRecord::kNoParent) {
      os << -1;
    } else {
      os << s.parent;
    }
    os << ',' << s.op << ',' << s.t0_ns << ',' << s.t1_ns << '\n';
  }
  return os.good();
}

// ------------------------------------------------------------------ op log

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ------------------------------------------------------------------ digest

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  sha_.update(reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size());
}

void Digest::add(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  sha_.update(bytes, sizeof bytes);
}

void Digest::add_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string Digest::hex() { return iecd::evidence::hex(sha_.digest()); }

std::string without_build_info(std::string text) {
  const std::string build = iecd::util::build_info_json();
  for (std::size_t pos = text.find(build); pos != std::string::npos;
       pos = text.find(build, pos + 2)) {
    text.replace(pos, build.size(), "{}");
  }
  return text;
}

std::string manifest_for_digest(const std::string& manifest) {
  std::istringstream in(manifest);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"kind\":\"build\"", 0) == 0) continue;
    // Artifact lines end ,"bytes":N,"records":N,"chain_hash":"..",
    // "sha256":".."}; keep the record count, drop the rest.
    const std::size_t bytes = line.find(",\"bytes\":");
    const std::size_t records = line.find(",\"records\":");
    const std::size_t chain = line.find(",\"chain_hash\":");
    if (bytes != std::string::npos && records != std::string::npos &&
        chain != std::string::npos) {
      line = line.substr(0, bytes) + line.substr(records, chain - records) +
             "}";
    }
    out += line;
    out += '\n';
  }
  return out;
}

void span_median_ms(const std::map<std::string, SpanStats>& stats,
                    const std::string& span, const std::string& name,
                    Metrics& out) {
  const auto it = stats.find(span);
  out[name].value = it == stats.end() ? 0.0 : it->second.median();
}

bool finite_log(const iecd::model::SampleLog& log) {
  for (double v : log.values()) {
    if (!std::isfinite(v)) return false;
  }
  return !log.empty();
}

void flip_one_byte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const std::streamoff at = static_cast<std::streamoff>(f.tellg()) / 2;
  f.seekg(at);
  char c = 0;
  f.get(c);
  f.seekp(at);
  f.put(static_cast<char>(c ^ 0x01));
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace perfbench
