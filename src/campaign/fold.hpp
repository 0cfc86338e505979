/// \file fold.hpp
/// Windowed index-order fold: the streaming half of the campaign engine.
/// Workers hand finished lane groups to a ReorderFold in whatever order
/// they complete; the fold buffers out-of-order groups and invokes the
/// sink strictly in ascending run-index order, so the merged output is
/// byte-identical to a sequential execution no matter which threads ran
/// which groups — the same determinism contract exec::SweepRunner has
/// always had, but with O(window) buffered state instead of O(runs).
///
/// Bounding the buffer without deadlock: submits NEVER block — a finished
/// group is always accepted.  Instead, the *claim* side is throttled: a
/// group whose first run index is at or beyond `watermark + window` is not
/// eligible to start executing (eligible() / wait_eligible()).  The group
/// that starts at the watermark is always eligible, and the scheduler
/// guarantees its holder claims lowest-index-first, so at any moment at
/// least one worker can make progress — the window throttles, it cannot
/// wedge.  Every buffered group was eligible when it was claimed, hence
/// started below (watermark_at_claim + window) <= (current watermark +
/// window): the buffer holds strictly fewer than `window` runs beyond the
/// watermark, plus whatever single group each worker has in flight.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

namespace iecd::campaign {

/// One executed lane group's results, produced by a worker thread and
/// handed to the fold.  Covers run indices [first, first + metrics.size());
/// health.size() == metrics.size().
struct GroupResult {
  std::size_t first = 0;
  std::vector<trace::MetricsRegistry> metrics;
  std::vector<obs::HealthReport> health;
};

class ReorderFold {
 public:
  /// Called exactly once per group, strictly in ascending `first` order,
  /// from whichever thread's submit() drained the group — always under the
  /// fold lock, so sinks never run concurrently and need no locking of
  /// their own.
  using Sink = std::function<void(GroupResult&)>;

  /// \p start: first run index of the whole execution (resume point);
  /// \p window: reorder window in runs (>= 1).
  ReorderFold(std::size_t start, std::size_t window, Sink sink)
      : next_(start), watermark_(start), window_(window ? window : 1),
        sink_(std::move(sink)) {}

  ReorderFold(const ReorderFold&) = delete;
  ReorderFold& operator=(const ReorderFold&) = delete;

  /// First run index not yet folded.  Monotonic; safe from any thread.
  std::size_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// May the group starting at \p first begin executing?  (Folding has
  /// caught up to within the reorder window.)
  bool eligible(std::size_t first) const {
    return first < watermark() + window_;
  }

  /// Blocks until eligible(\p first) or until \p cancelled() turns true
  /// (re-checked after every watermark advance and every notify()).
  /// Returns eligible(first).  \p cancelled is evaluated under the fold
  /// lock; it may take other locks as long as no code path acquires the
  /// fold lock while holding them.
  bool wait_eligible(std::size_t first,
                     const std::function<bool()>& cancelled) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return eligible(first) || cancelled(); });
    return eligible(first);
  }

  /// Accepts a finished group — never blocks.  Drains the contiguous
  /// prefix: every buffered group that is now next in index order is
  /// folded (sink called) and the watermark advanced.
  void submit(std::unique_ptr<GroupResult> group) {
    bool advanced = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.emplace(group->first, std::move(group));
      if (pending_.size() > peak_pending_) peak_pending_ = pending_.size();
      while (!pending_.empty() && pending_.begin()->first == next_) {
        std::unique_ptr<GroupResult> ready =
            std::move(pending_.begin()->second);
        pending_.erase(pending_.begin());
        sink_(*ready);
        next_ = ready->first + ready->metrics.size();
        watermark_.store(next_, std::memory_order_release);
        advanced = true;
      }
    }
    if (advanced) cv_.notify_all();
  }

  /// Wakes wait_eligible() callers so they re-check their cancel
  /// predicate after external state changed (a steal emptied a deque, the
  /// run is shutting down, ...).
  void notify() {
    // Taking the lock orders the caller's state change before any waiter's
    // next predicate check, so the wake-up cannot be lost.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  /// Peak number of groups buffered out of order (memory telemetry).
  std::size_t peak_pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_pending_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::size_t, std::unique_ptr<GroupResult>> pending_;
  std::size_t next_;                    ///< next run index to fold
  std::atomic<std::size_t> watermark_;  ///< == next_, lock-free mirror
  const std::size_t window_;
  Sink sink_;
  std::size_t peak_pending_ = 0;
};

}  // namespace iecd::campaign
