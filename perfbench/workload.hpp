/// \file workload.hpp
/// The interface main.cpp drives every workload through, and the
/// factories of the four workloads.  A workload owns its seeded input
/// pool; timed steps cycle through the pool, the first result of every
/// pool entry is kept as the reference the digest covers, and every later
/// result of the same entry must be bitwise equal to it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "model/logging.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Directory the workload writes its artifacts into (created and
  /// emptied by the workload).
  std::string out_dir;
  /// Self-test hook: flip one byte of the evidence artifact written by the
  /// op with this 1-based number before it is verified (0 = never).
  std::uint64_t flip_byte_op = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Canonical text of the inputs generated from the seed.
  virtual std::string inputs() const = 0;
  /// Host threads executing ops.
  virtual std::size_t workers() const = 0;
  /// One untimed op (part of set-up).
  virtual void warm_up() = 0;
  /// One unit of timed work: a single op, or one sweep / campaign of ops.
  virtual void step(OpLog& log) = 0;
  /// True once every pool entry has a recorded result.
  virtual bool covered() const = 0;
  /// Checks that need the whole pool (run after the timed phase).
  virtual void check(OpLog&) {}
  /// End-to-end metrics of the workload's own, measured over the untraced
  /// timed phase (called right after it).
  virtual void timed_metrics(Metrics&) const {}
  /// sim_digest over the pool's first results.
  virtual std::string digest() const = 0;
  /// Starts a fresh set of layer counters (start of the traced phase).
  virtual void begin_phase() = 0;
  /// Per-layer metrics of the phase since begin_phase(), from the spans it
  /// recorded and the layer counters gathered along the way.
  virtual void layer_metrics(const std::vector<SpanRecord>& spans,
                             Metrics& out) const = 0;
};

std::unique_ptr<Workload> make_devcycle(const WorkloadOptions& options);
std::unique_ptr<Workload> make_mil_sweep(const WorkloadOptions& options);
std::unique_ptr<Workload> make_pil_campaign(const WorkloadOptions& options);
std::unique_ptr<Workload> make_farm(const WorkloadOptions& options);

/// Sets \p name in \p out to the median duration [ms] of the spans named
/// \p span (0 when none were recorded).
void span_median_ms(const std::map<std::string, SpanStats>& stats,
                    const std::string& span, const std::string& name,
                    Metrics& out);

/// True when \p log has samples and every one is finite.
bool finite_log(const iecd::model::SampleLog& log);

/// Flips one bit in the middle of the file at \p path (self-test hook).
void flip_one_byte(const std::string& path);

}  // namespace perfbench
