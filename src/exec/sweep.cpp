#include "exec/sweep.hpp"

#include <algorithm>
#include <utility>

namespace iecd::exec {

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

SweepRunner::Result SweepRunner::run_groups(
    std::size_t runs, std::size_t batch, bool with_health,
    const BatchHealthScenario& scenario) const {
  Result result;
  result.runs = runs;
  result.per_run.resize(runs);
  if (with_health) {
    result.per_run_health.resize(runs);
    // Result::health counts folded sweep points, not the default single
    // run.
    result.health.runs = 0;
  }
  campaign::StreamOptions so;
  so.threads = options_.threads;
  so.batch = batch;
  // Called strictly in run-index order (serialized), so the merged
  // registry/health are byte-identical for any thread count, batch width
  // and steal schedule.  The group buffers move into the per-run slots.
  result.sched = campaign::StreamRunner(so).run(
      runs, scenario, [&result, with_health](campaign::GroupResult& group) {
        for (std::size_t k = 0; k < group.metrics.size(); ++k) {
          const std::size_t index = group.first + k;
          result.merged.merge(group.metrics[k]);
          result.per_run[index] = std::move(group.metrics[k]);
          if (with_health) {
            result.health.merge(group.health[k]);
            result.per_run_health[index] = std::move(group.health[k]);
          }
        }
      });
  result.threads_used = result.sched.threads_used;
  result.wall_ms = result.sched.wall_ms;
  return result;
}

SweepRunner::Result SweepRunner::run(std::size_t runs,
                                     const Scenario& scenario) const {
  return run_groups(
      runs, 1, false,
      [&scenario](std::size_t first, std::span<trace::MetricsRegistry> metrics,
                  std::span<obs::HealthReport>) {
        scenario(first, metrics[0]);
      });
}

SweepRunner::Result SweepRunner::run(std::size_t runs,
                                     const HealthScenario& scenario) const {
  return run_groups(
      runs, 1, true,
      [&scenario](std::size_t first, std::span<trace::MetricsRegistry> metrics,
                  std::span<obs::HealthReport> health) {
        scenario(first, metrics[0], health[0]);
      });
}

SweepRunner::Result SweepRunner::run(std::size_t runs,
                                     const BatchScenario& scenario) const {
  return run_groups(
      runs, std::max<std::size_t>(1, options_.batch), false,
      [&scenario](std::size_t first, std::span<trace::MetricsRegistry> metrics,
                  std::span<obs::HealthReport>) { scenario(first, metrics); });
}

SweepRunner::Result SweepRunner::run(
    std::size_t runs, const BatchHealthScenario& scenario) const {
  return run_groups(runs, std::max<std::size_t>(1, options_.batch), true,
                    scenario);
}

}  // namespace iecd::exec
