// Task profiler (§3 preparation stage).
//
// The real profiler trains a small slice of data per (job, GPU) pair and
// records batch times. Offline, "running a batch" means sampling the
// analytic performance model with multiplicative measurement noise
// (testbed jitter: input pipeline variance, clock throttling, network).
// The profiler averages `sample_batches` draws after `warmup_batches`
// discarded warmups, which is exactly the shape of the real measurement
// loop, and optionally consults/extends a ProfileDb to skip repeat work.
//
// Three scaling mechanisms keep profiling off the critical path at
// six-figure job counts and thousand-GPU clusters:
//
//  * **Shape memoization.** A job's (T^c, T^s) row is a pure function of
//    its shape — (model, effective batch size, batches per task) — given
//    the cluster, and one measurement is keyed by (shape, GPU type,
//    uplink), exactly like the ProfileDb. Jobs sharing a shape share one
//    interned TimeTable row, and measurement keys are profiled once per
//    call, so a 100k-job trace with a handful of distinct shapes costs a
//    handful of row builds instead of 100k × G model evaluations.
//
//  * **Class memoization.** Within a row, GPUs of one class (GPU type and
//    exact machine uplink, see gpu_classes.hpp) read identical cells, so
//    each shape is resolved once per class and the table stores one column
//    per class: 10k shapes on a 1,024-GPU, 4-class cluster cost 40k key
//    lookups and 40k cells, not 10M. Classes are walked in first-GPU
//    order, which keeps every key, seed and db lookup in the order of a
//    per-GPU walk.
//
//  * **Deterministic parallel measurement.** profile()'s measurements fan
//    out across common::shared_pool() following the hare::exp engine
//    contract (HARE_EXP_SERIAL forces the serial path, HARE_JOBS caps
//    workers, nested calls from a pool worker degrade to inline). Each
//    measurement key draws a private RNG seed from the profiler stream
//    *serially in canonical first-seen order* before the fan-out, so
//    serial and pooled runs produce bit-identical tables: parallelism
//    changes wall-clock only, never a number. exact() always runs on the
//    calling thread: shapes × classes perf-model evaluations are too
//    little work to pay for a fan-out.
//
// Telemetry (hare::obs): `profiler.exact` / `profiler.profile` spans with
// `profiler.enumerate` / `profiler.measure` / `profiler.build_rows` stage
// spans under them, plus `profiler.cells`, `profiler.memo_hits`,
// `profiler.measurements`, and `profiler.rows_computed` counters — the
// profile stage shows up in Chrome traces exactly like the planner.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "profiler/profile_db.hpp"
#include "profiler/time_table.hpp"
#include "workload/job.hpp"
#include "workload/perf_model.hpp"

namespace hare::profiler {

struct ProfilerConfig {
  std::uint32_t warmup_batches = 2;
  std::uint32_t sample_batches = 5;
  /// Coefficient of variation of one measured batch (testbed jitter).
  double measurement_noise_cv = 0.03;
  /// Run profile()'s measurements on the calling thread in canonical
  /// order. ORed with the HARE_EXP_SERIAL environment variable. The result
  /// is bit-identical either way; this is a debugging/TSan escape hatch.
  bool serial = false;
};

/// Shape (model, effective batch size, batches per task) → the interned
/// row of one table that Profiler::profile_appended() or exact_appended()
/// keeps extending.
using ShapeRows =
    std::map<std::tuple<int, std::uint32_t, std::uint32_t>, TimeTable::RowId>;

class Profiler {
 public:
  Profiler(workload::PerfModel perf, ProfilerConfig config, std::uint64_t seed)
      : perf_(perf), config_(config), rng_(seed) {}

  /// Profile every (job, GPU) pair; uses `db` when provided (lookups keyed
  /// by GPU *type*, so a 160-GPU cluster needs only |models| × |types|
  /// actual profiling runs). Jobs with the same shape share one interned
  /// row — see the memoization notes above.
  [[nodiscard]] TimeTable profile(const workload::JobSet& jobs,
                                  const cluster::Cluster& cluster,
                                  ProfileDb* db = nullptr);

  /// Exact (noise-free) table straight from the performance model — the
  /// simulator's ground truth. Shape- and class-memoized like profile(),
  /// minus the measurement noise, and built on the calling thread.
  [[nodiscard]] TimeTable exact(const workload::JobSet& jobs,
                                const cluster::Cluster& cluster) const;

  /// Incremental profile(): extend `table` — empty, or built by earlier
  /// calls over a prefix of `jobs` with the same `rows` — with the jobs
  /// appended since. Shapes already in `rows` bind to their row; only new
  /// shapes are measured, their seeds drawn from this profiler's stream in
  /// first-seen order. A profiler that profiles a growing jobset slice by
  /// slice therefore leaves `table` (every cell and α) and `db` exactly as
  /// one profile() of the whole jobset by a profiler with the same seed
  /// would. Costs O(appended jobs + new shapes × classes).
  void profile_appended(const workload::JobSet& jobs,
                        const cluster::Cluster& cluster, TimeTable& table,
                        ShapeRows& rows, ProfileDb* db = nullptr);

  /// Incremental exact(), on the same contract as profile_appended().
  void exact_appended(const workload::JobSet& jobs,
                      const cluster::Cluster& cluster, TimeTable& table,
                      ShapeRows& rows) const;

  /// Total simulated profiling cost in GPU-seconds of the last profile()
  /// or profile_appended() call (what the ProfileDb saves on repeat
  /// submissions).
  [[nodiscard]] Time last_profiling_cost() const { return profiling_cost_; }

  /// (job, GPU) cells of the last profile()/exact() call that were served
  /// from already-resolved work instead of fresh work — the in-call memo's
  /// savings (ProfileDb hits are counted by the db itself).
  [[nodiscard]] std::uint64_t last_memo_hits() const { return memo_hits_; }
  /// Fresh work of the last call (= cells - memo hits): first-seen
  /// measurement keys for profile(), shape × class evaluations for exact().
  [[nodiscard]] std::uint64_t last_memo_misses() const { return memo_misses_; }
  /// Unique rows interned by the last call (= distinct job shapes).
  [[nodiscard]] std::uint64_t last_rows_computed() const { return rows_; }

 private:
  workload::PerfModel perf_;
  ProfilerConfig config_;
  common::Rng rng_;
  Time profiling_cost_ = 0.0;
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
  mutable std::uint64_t rows_ = 0;
};

}  // namespace hare::profiler
