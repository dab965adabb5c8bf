// Reference profiler: the per-(shape, GPU) walk the library's class walk
// must match.
//
// profiler::Profiler resolves each job shape once per GPU class and
// broadcasts the values to the class's GPUs. This oracle does none of
// that: it visits every (shape, GPU) cell, builds that cell's ProfileDb
// key, and evaluates the performance model for every cell of the exact
// table. Measurement keys, their seeds and the db lookups are met in
// per-GPU first-seen order, measurements run serially, and every
// arithmetic step is the library's, so the two must agree bit for bit:
// same tables, same profiling cost, same memo counts for profile(), same
// db contents and counters.
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "profiler/profile_db.hpp"
#include "profiler/profiler.hpp"
#include "profiler/time_table.hpp"
#include "workload/job.hpp"
#include "workload/perf_model.hpp"

namespace hare::testing {

/// Reference profiler::Profiler, stateful like it: successive profile()
/// calls continue one RNG stream.
class OracleProfiler {
 public:
  OracleProfiler(workload::PerfModel perf, profiler::ProfilerConfig config,
                 std::uint64_t seed)
      : perf_(perf), config_(config), rng_(seed) {}

  /// Reference profiler::Profiler::profile.
  [[nodiscard]] profiler::TimeTable profile(const workload::JobSet& jobs,
                                            const cluster::Cluster& cluster,
                                            profiler::ProfileDb* db = nullptr);

  /// Reference profiler::Profiler::exact: one perf-model evaluation per
  /// (shape, GPU) cell.
  [[nodiscard]] profiler::TimeTable exact(
      const workload::JobSet& jobs, const cluster::Cluster& cluster) const;

  [[nodiscard]] Time last_profiling_cost() const { return profiling_cost_; }
  /// profile(): cells served by an already-resolved measurement key.
  [[nodiscard]] std::uint64_t last_memo_hits() const { return memo_hits_; }
  [[nodiscard]] std::uint64_t last_rows_computed() const { return rows_; }

 private:
  workload::PerfModel perf_;
  profiler::ProfilerConfig config_;
  common::Rng rng_;
  Time profiling_cost_ = 0.0;
  std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t rows_ = 0;
};

}  // namespace hare::testing
