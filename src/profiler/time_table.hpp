// Profiled task time tables: T^c_{i,m} and T^s_{i,m}.
//
// §5.1 (Fig 11) observes that per-round training and sync times are stable,
// so times are indexed by (job, GPU) — all tasks of a job share the same
// profile, exactly as the real profiler feeds Algorithm 1. The table also
// exposes α = max_i max{T^c max/min, T^s max/min}, the heterogeneity ratio
// in the α(2+α) approximation bound (Lemma 3 / Theorem 4).
//
// Storage is factored twice, once along each axis:
//
//  * **Columns.** A cell depends on the GPU only through its type (T^c) and
//    its machine's uplink (T^s), so GPUs that agree on both share one
//    column: a row holds one (T^c, T^s) pair per column, and a GPU → column
//    map resolves tc(job, gpu) to row[column(gpu)]. A table built on a
//    cluster's GpuClasses has one column per class (4 on a 1,024-GPU
//    simulation cluster); TimeTable(jobs, gpus) is the dense layout with
//    one column per GPU. Every column has at least one GPU.
//  * **Rows.** A job's row is a pure function of its shape (model, batch
//    size, batches per task) given a cluster, so the many identical jobs a
//    trace emits share one physical row. Jobs hold a 32-bit row index into
//    an append-only row arena; `intern_row()` adds a unique row and
//    `bind_row()` points a job at it.
//
// The per-cell `set()` keeps the dense semantics on any layout: a GPU that
// shares its column is first split into a column of its own (every row
// keeps its values), then the write goes copy-on-write to a private row.
// A table perturbed cell by cell degrades to the dense layout, never to a
// wrong read. A 10k-shape × 1,024-GPU table over 4 classes takes 640 KB
// instead of 164 MB.
//
// Per-row reductions (min/max T^c, min/max T^s, min total, fastest GPU) are
// cached: one O(columns) pass per row fills every aggregate, so the H_i
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
  /// Dense layout: one column per GPU.
  TimeTable(std::size_t job_count, std::size_t gpu_count) {
    reset(job_count, gpu_count);
  }
  /// Column layout `column_of` (per GPU; see reset()).
  TimeTable(std::size_t job_count,
            const std::vector<std::uint32_t>& column_of) {
    reset(job_count, column_of);
  }

  [[nodiscard]] std::size_t job_count() const { return row_of_.size(); }
  [[nodiscard]] std::size_t gpu_count() const { return column_of_.size(); }
  /// Values per row: one per column, not per GPU.
  [[nodiscard]] std::size_t column_count() const { return first_gpu_.size(); }
  /// Physical rows in the arena (including the zero row). The memory
  /// footprint is row_count() × column_count(), not jobs × GPUs.
  [[nodiscard]] std::size_t row_count() const { return owners_.size(); }

  /// Column GPU `gpu` reads (indexed by GpuId value), and the whole map.
  [[nodiscard]] std::uint32_t column_of(GpuId gpu) const {
    return column_of_[static_cast<std::size_t>(gpu.value())];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& column_map() const {
    return column_of_;
  }

  [[nodiscard]] Time tc(JobId job, GpuId gpu) const {
    return tc_[index(job, gpu)];
  }
  [[nodiscard]] Time ts(JobId job, GpuId gpu) const {
    return ts_[index(job, gpu)];
  }
  /// A job's column_count() T^c values (indexed by column), for the hot
  /// candidate scans; GPU g reads entry column_of(g). Stable until the next
  /// set() or reshape.
  [[nodiscard]] const Time* tc_columns(JobId job) const {
    return tc_.data() + row_base(job);
  }
  [[nodiscard]] const Time* ts_columns(JobId job) const {
    return ts_.data() + row_base(job);
  }

  /// Write one (job, GPU) cell and nothing else: a GPU sharing its column
  /// is split off into its own column first, and a job sharing its row
  /// with other jobs (or sitting on the zero row) is detached onto a
  /// private copy, so the write never leaks into neighbours.
  void set(JobId job, GpuId gpu, Time compute, Time sync);

  /// The interned row a job currently points at. Stable until the next
  /// set()/bind_row() on that job; gather_sub_table() keys its
  /// deduplication on it.
  [[nodiscard]] RowId row_of(JobId job) const {
    return row_of_[static_cast<std::size_t>(job.value())];
  }

  /// Append a unique row (column_count() values from each of `tc`/`ts`,
  /// which must not point into this table) to the arena and return its id.
  /// The row starts with no owners; point jobs at it with bind_row().
  /// Reuses a previously freed slot when one exists.
  RowId intern_row(const Time* tc, const Time* ts);

  /// Re-point `job` at arena row `row` (from intern_row or row_of). Owner
  /// counts move with it; a non-zero row left with no owners is recycled by
  /// later intern_row/set calls.
  void bind_row(JobId job, RowId row) {
    const std::size_t j = static_cast<std::size_t>(job.value());
    const RowId old = row_of_[j];
    if (old == row) return;
    if (--owners_[old] == 0 && old != kZeroRow) {
      free_rows_.push_back(old);
      alpha_valid_ = false;  // α may drop: recompute on demand
    }
    // A row's first owner can only raise α: fold it into a valid cache.
    if (owners_[row]++ == 0 && alpha_valid_) fold_alpha(row);
    row_of_[j] = row;
  }

  /// Re-shape in place to a zero-filled dense (job_count × gpu_count)
  /// table, reusing the underlying storage. Every cached aggregate (and α)
  /// is dropped and every job points back at the zero row.
  void reset(std::size_t job_count, std::size_t gpu_count);

  /// Same, with GPU g reading column `column_of[g]`. Columns must be
  /// numbered 0..C-1 with every one used by some GPU. The per-shard
  /// planners rebuild a local sub-table for every plan; resetting a
  /// standing table lets the allocation survive across shard plans and
  /// migration re-plans instead of being malloc'd fresh each time.
  void reset(std::size_t job_count,
             const std::vector<std::uint32_t>& column_of);

  /// Grow the job axis by one job on the zero row (the streaming-admission
  /// path: a served arrival profiles into the row its JobId was just
  /// assigned). Returns the new job's index. Existing rows, their cached
  /// aggregates and α are untouched.
  std::size_t append_job() {
    if (owners_.empty()) reset(0, column_of_);  // default-constructed
    row_of_.push_back(kZeroRow);
    ++owners_[kZeroRow];  // the all-zero row never contributes to α
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

  /// Lowest-id GPU with the smallest T^c for this job.
  [[nodiscard]] GpuId fastest_gpu(JobId job) const {
    return aggregates(job).fastest;
  }

  /// α = max over tasks of max{T^c,max/T^c,min, T^s,max/T^s,min} (Lemma 3).
  [[nodiscard]] double alpha() const;

  /// Force every per-row aggregate (and α) into the cache. After this, all
  /// aggregate accessors are pure reads until the next set()/bind_row() —
  /// required before concurrent readers share the table. Only rows whose
  /// cache went stale since the last call (new, recycled or set() rows)
  /// are visited, and α is kept up to date as rows gain owners, so a
  /// growing table pays O(new rows × columns) per call, not O(rows); a
  /// row losing its last owner (or a set()) makes the next call rescan α
  /// over the rows.
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
           column_count();
  }
  [[nodiscard]] std::size_t index(JobId job, GpuId gpu) const {
    return row_base(job) + column_of(gpu);
  }

  /// Move GPU `gpu` out of its shared column into a new last column that
  /// starts as a copy of the old one in every row.
  void split_column(std::size_t gpu);

  /// Arena slot with no owners and unspecified contents, for the caller to
  /// overwrite. Pops a recycled slot when available (skipping stale
  /// free-list entries whose row was re-bound in the meantime), else
  /// appends.
  [[nodiscard]] RowId allocate_row();

  [[nodiscard]] const JobAggregates& aggregates(JobId job) const;
  [[nodiscard]] const JobAggregates& row_aggregates(RowId row) const;
  /// Mark `row`'s cached aggregates stale.
  void invalidate_row(RowId row) {
    if (agg_valid_[row]) stale_rows_.push_back(row);
    agg_valid_[row] = 0;
  }
  /// Raise alpha_ to `row`'s T^c and T^s ratios.
  void fold_alpha(RowId row) const;

  std::vector<std::uint32_t> column_of_;  ///< per GPU: its column
  std::vector<std::uint32_t> column_gpus_;  ///< per column: GPUs reading it
  std::vector<GpuId> first_gpu_;          ///< per column: lowest GPU id
  std::vector<RowId> row_of_;          ///< per job: arena row index
  std::vector<Time> tc_;               ///< arena, row-major, rows × columns
  std::vector<Time> ts_;               ///< arena, row-major, rows × columns
  std::vector<std::uint32_t> owners_;  ///< per row: jobs pointing at it
  std::vector<RowId> free_rows_;       ///< zero-owner rows ready for reuse

  mutable std::vector<JobAggregates> agg_;  ///< per row
  mutable std::vector<char> agg_valid_;
  /// Every row whose agg_valid_ is 0 (possibly plus rows filled lazily
  /// since): what precompute() visits.
  mutable std::vector<RowId> stale_rows_;
  mutable double alpha_ = 1.0;
  mutable bool alpha_valid_ = false;
};

/// Staging buffers of gather_sub_table(). Keep one per thread and pass it
/// to every gather: capacity then survives across gathers.
struct GatherBuffers {
  std::vector<Time> tc;  ///< one sub-table row being gathered
  std::vector<Time> ts;  ///< one sub-table row being gathered
  std::vector<TimeTable::RowId> row_map;  ///< source row → sub-table row
  std::vector<std::uint32_t> column_of;   ///< sub GPU → sub column
  std::vector<std::uint32_t> source_column;  ///< sub column → source column
  std::vector<std::uint32_t> column_map;  ///< source column → sub column
};

/// Rebuild `into` as the sub-table of `from` over `jobs` × `gpus`: sub job
/// j reads `jobs[j]`'s times, sub GPU g reads GPU `gpus[g]`. The sub-table
/// keeps only the source columns some chosen GPU reads, renumbered in
/// first-use order, so a class with no GPU in `gpus` adds nothing to any
/// min, max, fastest GPU or α. Each distinct source row is gathered and
/// interned once and every job binds to it: with J jobs over U unique rows
/// the cost is O(U·columns + J + |gpus|). Values are copied verbatim: the
/// result reads cell for cell like a per-cell set() fill.
void gather_sub_table(const TimeTable& from, const std::vector<JobId>& jobs,
                      const std::vector<GpuId>& gpus, GatherBuffers& buffers,
                      TimeTable& into);

}  // namespace hare::profiler
