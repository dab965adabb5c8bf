// Profiled task time tables: T^c_{i,m} and T^s_{i,m}.
//
// §5.1 (Fig 11) observes that per-round training and sync times are stable,
// so times are indexed by (job, GPU) — all tasks of a job share the same
// profile, exactly as the real profiler feeds Algorithm 1. The table also
// exposes α = max_i max{T^c max/min, T^s max/min}, the heterogeneity ratio
// in the α(2+α) approximation bound (Lemma 3 / Theorem 4).
//
// Storage is struct-of-arrays with **row interning**: the G-wide (T^c, T^s)
// row of a job is a pure function of its shape (model, batch size, batches
// per task) given a cluster, so the many identical jobs a trace emits can
// share one physical row. Jobs hold a 32-bit row index into an append-only
// row arena; `intern_row()` adds a unique row and `bind_row()` points a job
// at it. The classic per-job mutators still work: `set()` copies a shared
// (or the canonical zero) row on write, so callers that fill tables cell by
// cell see exactly the old dense semantics while interned tables stay
// interned. At the 100k-job × 8k-GPU bench point this is the difference
// between a 13 GB dense matrix and a few hundred KB of unique rows.
//
// Per-row reductions (min/max T^c, min/max T^s, min total, fastest GPU) are
// cached: a single O(G) pass per row fills every aggregate, so the H_i
// computation and alpha() cost O(1) per lookup instead of rescanning the
// GPU axis inside the planner's O(T) loops. `set()` invalidates only the
// touched row's cache (plus α). Lazy recomputation mutates the cache from
// const accessors; call `precompute()` before sharing one table across
// threads so every later accessor is a pure read.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hare::profiler {

class TimeTable {
 public:
  /// Row index type of the interning arena. 32 bits cover every realistic
  /// instance (even fully private rows top out at the job count).
  using RowId = std::uint32_t;

  /// The canonical all-zero row every job points at until written/bound.
  static constexpr RowId kZeroRow = 0;

  TimeTable() = default;
  TimeTable(std::size_t job_count, std::size_t gpu_count) {
    reset(job_count, gpu_count);
  }

  [[nodiscard]] std::size_t job_count() const { return row_of_.size(); }
  [[nodiscard]] std::size_t gpu_count() const { return gpu_count_; }
  /// Physical rows in the arena (including the zero row). The memory
  /// footprint scales with this, not with job_count().
  [[nodiscard]] std::size_t row_count() const { return owners_.size(); }

  [[nodiscard]] Time tc(JobId job, GpuId gpu) const {
    return tc_[index(job, gpu)];
  }
  [[nodiscard]] Time ts(JobId job, GpuId gpu) const {
    return ts_[index(job, gpu)];
  }
  /// Contiguous T^c row of a job (indexed by GpuId value), for the planner's
  /// hot candidate scans. Values are the exact doubles tc() returns.
  [[nodiscard]] const Time* tc_row(JobId job) const {
    return tc_.data() + row_base(job);
  }
  [[nodiscard]] const Time* ts_row(JobId job) const {
    return ts_.data() + row_base(job);
  }

  /// Write one (job, GPU) cell. Copy-on-write: a job sharing its row with
  /// other jobs (or sitting on the zero row) is detached onto a private
  /// copy first, so the write never leaks into neighbours.
  void set(JobId job, GpuId gpu, Time compute, Time sync) {
    const std::size_t j = static_cast<std::size_t>(job.value());
    RowId row = row_of_[j];
    if (row == kZeroRow || owners_[row] > 1) {
      const RowId fresh = allocate_row();
      copy_row(row, fresh);
      --owners_[row];
      ++owners_[fresh];
      row_of_[j] = fresh;
      row = fresh;
    }
    const std::size_t base = static_cast<std::size_t>(row) * gpu_count_;
    tc_[base + static_cast<std::size_t>(gpu.value())] = compute;
    ts_[base + static_cast<std::size_t>(gpu.value())] = sync;
    agg_valid_[row] = 0;
    alpha_valid_ = false;
  }

  /// The interned row a job currently points at. Stable until the next
  /// set()/bind_row() on that job; gather_sub_table() keys its
  /// deduplication on it.
  [[nodiscard]] RowId row_of(JobId job) const {
    return row_of_[static_cast<std::size_t>(job.value())];
  }

  /// Append a unique row (gpu_count values from each of `tc`/`ts`, which
  /// must not point into this table) to the arena and return its id. The
  /// row starts with no owners; point jobs at it with bind_row(). Reuses a
  /// previously freed slot when one exists.
  RowId intern_row(const Time* tc, const Time* ts);

  /// Reserve arena room for `rows` more rows, so that many intern_row()
  /// calls grow each arena array at most once instead of geometrically.
  void reserve_rows(std::size_t rows);

  /// Re-point `job` at arena row `row` (from intern_row or row_of). Owner
  /// counts move with it; a non-zero row left with no owners is recycled by
  /// later intern_row/set calls.
  void bind_row(JobId job, RowId row) {
    const std::size_t j = static_cast<std::size_t>(job.value());
    const RowId old = row_of_[j];
    if (old == row) return;
    if (--owners_[old] == 0 && old != kZeroRow) free_rows_.push_back(old);
    ++owners_[row];
    row_of_[j] = row;
    alpha_valid_ = false;
  }

  /// Re-shape in place to a zero-filled (job_count × gpu_count) table,
  /// reusing the underlying storage. The per-shard planners rebuild a local
  /// sub-table for every plan; resetting a standing table lets the
  /// allocation survive across shard plans and migration re-plans instead
  /// of being malloc'd fresh each time. Every cached aggregate (and α) is
  /// dropped and every job points back at the zero row.
  void reset(std::size_t job_count, std::size_t gpu_count) {
    gpu_count_ = gpu_count;
    row_of_.assign(job_count, kZeroRow);
    tc_.assign(gpu_count, 0.0);
    ts_.assign(gpu_count, 0.0);
    owners_.assign(1, static_cast<std::uint32_t>(job_count));
    agg_.assign(1, JobAggregates{});
    agg_valid_.assign(1, 0);
    free_rows_.clear();
    alpha_valid_ = false;
  }

  /// Grow the job axis by one job on the zero row (the streaming-admission
  /// path: a served arrival profiles into the row its JobId was just
  /// assigned). Returns the new job's index. Existing rows and their cached
  /// aggregates are untouched; α is invalidated.
  std::size_t append_job() {
    if (owners_.empty()) {
      // Degenerate table grown from the default constructor: materialize
      // the zero row first so the new job has something to point at.
      tc_.assign(gpu_count_, 0.0);
      ts_.assign(gpu_count_, 0.0);
      owners_.assign(1, 0);
      agg_.assign(1, JobAggregates{});
      agg_valid_.assign(1, 0);
    }
    row_of_.push_back(kZeroRow);
    ++owners_[kZeroRow];
    alpha_valid_ = false;
    return row_of_.size() - 1;
  }

  /// Total (compute + sync) time of one task of `job` on `gpu`.
  [[nodiscard]] Time total(JobId job, GpuId gpu) const {
    return tc(job, gpu) + ts(job, gpu);
  }

  /// Fastest compute time of a job's task across GPUs.
  [[nodiscard]] Time min_tc(JobId job) const { return aggregates(job).min_tc; }
  [[nodiscard]] Time max_tc(JobId job) const { return aggregates(job).max_tc; }
  [[nodiscard]] Time min_ts(JobId job) const { return aggregates(job).min_ts; }
  [[nodiscard]] Time max_ts(JobId job) const { return aggregates(job).max_ts; }

  /// Smallest T^c + T^s of a job's task across GPUs.
  [[nodiscard]] Time min_total(JobId job) const {
    return aggregates(job).min_total;
  }

  /// GPU with the smallest T^c for this job.
  [[nodiscard]] GpuId fastest_gpu(JobId job) const {
    return aggregates(job).fastest;
  }

  /// α = max over tasks of max{T^c,max/T^c,min, T^s,max/T^s,min} (Lemma 3).
  [[nodiscard]] double alpha() const;

  /// Force every per-row aggregate (and α) into the cache. After this, all
  /// aggregate accessors are pure reads until the next set()/bind_row() —
  /// required before concurrent readers share the table. Cost is O(rows ×
  /// G), not O(jobs × G): interned tables precompute in microseconds.
  void precompute() const;

 private:
  struct JobAggregates {
    Time min_tc = 0.0;
    Time max_tc = 0.0;
    Time min_ts = 0.0;
    Time max_ts = 0.0;
    Time min_total = 0.0;
    GpuId fastest{};
  };

  [[nodiscard]] std::size_t row_base(JobId job) const {
    return static_cast<std::size_t>(
               row_of_[static_cast<std::size_t>(job.value())]) *
           gpu_count_;
  }
  [[nodiscard]] std::size_t index(JobId job, GpuId gpu) const {
    return row_base(job) + static_cast<std::size_t>(gpu.value());
  }

  /// Arena slot with no owners and unspecified contents, for the caller to
  /// overwrite. Pops a recycled slot when available (skipping stale
  /// free-list entries whose row was re-bound in the meantime), else
  /// appends.
  [[nodiscard]] RowId allocate_row();
  /// Copy row `src`'s values into row `dst`.
  void copy_row(RowId src, RowId dst);

  [[nodiscard]] const JobAggregates& aggregates(JobId job) const;
  [[nodiscard]] const JobAggregates& row_aggregates(RowId row) const;

  std::size_t gpu_count_ = 0;
  std::vector<RowId> row_of_;          ///< per job: arena row index
  std::vector<Time> tc_;               ///< arena, row-major, rows × G
  std::vector<Time> ts_;               ///< arena, row-major, rows × G
  std::vector<std::uint32_t> owners_;  ///< per row: jobs pointing at it
  std::vector<RowId> free_rows_;       ///< zero-owner rows ready for reuse

  mutable std::vector<JobAggregates> agg_;  ///< per row
  mutable std::vector<char> agg_valid_;
  mutable double alpha_ = 1.0;
  mutable bool alpha_valid_ = false;
};

/// Staging buffers of gather_sub_table(). Keep one per thread and pass it
/// to every gather: capacity then survives across gathers.
struct GatherBuffers {
  std::vector<Time> tc;  ///< one sub-table row being gathered
  std::vector<Time> ts;  ///< one sub-table row being gathered
  std::vector<TimeTable::RowId> row_map;  ///< source row → sub-table row
};

/// Rebuild `into` as the sub-table of `from` over `jobs` × `gpus`: sub job
/// j reads `jobs[j]`'s times, sub GPU g reads GPU `gpus[g]`. Each distinct
/// source row is gathered and interned once and every job binds to it, so
/// with J jobs over U unique rows the cost is O(U·|gpus| + J) and the
/// sub-table shares rows like its source. Values are copied verbatim: the
/// result reads cell for cell like a per-cell set() fill.
void gather_sub_table(const TimeTable& from, const std::vector<JobId>& jobs,
                      const std::vector<GpuId>& gpus, GatherBuffers& buffers,
                      TimeTable& into);

}  // namespace hare::profiler
