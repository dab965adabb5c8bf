// Output checks and schedule-quality numbers shared by the workloads.
#pragma once

#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/schedule.hpp"
#include "workload/job.hpp"

namespace perfbench {

/// Bit identity of two plans: sequences, predicted starts, objective.
[[nodiscard]] bool identical(const hare::sim::Schedule& a,
                             const hare::sim::Schedule& b);

/// sim::validate_schedule as a predicate; the diagnostic lands in `why`.
[[nodiscard]] bool validates(const hare::sim::Schedule& schedule,
                             const hare::workload::JobSet& jobs,
                             std::string* why = nullptr);

/// Schedule quality of one simulated run. Only completed jobs enter the
/// JCT sums; cancelled jobs are counted apart from dead-lettered ones.
struct Quality {
  double weighted_flow = 0.0;    ///< Σ w (C − a) over completed jobs
  double weight = 0.0;           ///< Σ w over completed jobs
  double makespan = 0.0;
  std::size_t jobs = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t dead_lettered = 0;
  double switch_overhead_s = 0.0;  ///< summed switching time, all GPUs
  std::size_t switches = 0;        ///< cross-job switches
  std::size_t resident_hits = 0;   ///< switches that found the model resident

  [[nodiscard]] double weighted_jct() const {
    return weight > 0.0 ? weighted_flow / weight : 0.0;
  }
  /// Completed ÷ submitted, deliberate cancellations excluded.
  [[nodiscard]] double completed_ratio() const {
    const std::size_t denom = jobs - cancelled;
    return denom > 0 ? static_cast<double>(completed) /
                           static_cast<double>(denom)
                     : 0.0;
  }
  [[nodiscard]] double resident_hit_ratio() const {
    return switches > 0 ? static_cast<double>(resident_hits) /
                              static_cast<double>(switches)
                        : 0.0;
  }
};

[[nodiscard]] Quality quality_of(const hare::sim::SimResult& result);

/// The jobs with keep[j] != 0, re-indexed into their own JobSet, and the
/// plan restricted to their tasks. Plan entries of dropped jobs are left
/// out.
struct SubInstance {
  hare::workload::JobSet jobs;
  hare::sim::Schedule schedule;
};

[[nodiscard]] SubInstance restrict_to(const hare::sim::Schedule& schedule,
                                      const hare::workload::JobSet& jobs,
                                      const std::vector<char>& keep);

}  // namespace perfbench
