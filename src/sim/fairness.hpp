// Fairness metrics over simulation results.
//
// The heterogeneity-aware scheduling literature Hare builds on
// (Gandiva_fair, Themis, AlloX) evaluates fairness alongside efficiency.
// We report the standard quantities over per-job *slowdowns* — realized
// JCT divided by the job's ideal duration (its critical path at fastest
// speeds on an empty cluster): Jain's index (1 = perfectly equal
// slowdowns), and the max slowdown (worst-treated job).
#pragma once

#include <algorithm>
#include <vector>

#include "profiler/time_table.hpp"
#include "sim/metrics.hpp"
#include "workload/job.hpp"

namespace hare::sim {

/// Jain's fairness index: (Σx)² / (n·Σx²); 1/n..1, higher = fairer.
[[nodiscard]] inline double jains_index(const std::vector<double>& values) {
  if (values.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum /
         (static_cast<double>(values.size()) * sum_sq);
}

/// Per-job slowdown: JCT / (rounds × fastest round time). Always >= ~1.
[[nodiscard]] inline std::vector<double> job_slowdowns(
    const workload::JobSet& jobs, const profiler::TimeTable& times,
    const SimResult& result) {
  std::vector<double> slowdowns;
  slowdowns.reserve(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    const double ideal =
        static_cast<double>(job.rounds()) * times.min_total(job.id);
    const double jct =
        result.jobs[static_cast<std::size_t>(job.id.value())].jct();
    slowdowns.push_back(ideal > 0.0 ? jct / ideal : 1.0);
  }
  return slowdowns;
}

[[nodiscard]] inline double max_slowdown(const std::vector<double>& values) {
  double worst = 0.0;
  for (double v : values) worst = std::max(worst, v);
  return worst;
}

}  // namespace hare::sim
