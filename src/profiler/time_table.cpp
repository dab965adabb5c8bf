#include "profiler/time_table.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace hare::profiler {

void TimeTable::reset(std::size_t job_count, std::size_t gpu_count) {
  std::vector<std::uint32_t> dense(gpu_count);
  std::iota(dense.begin(), dense.end(), 0u);
  reset(job_count, dense);
}

void TimeTable::reset(std::size_t job_count,
                      const std::vector<std::uint32_t>& column_of) {
  column_of_ = column_of;
  const std::uint32_t columns =
      column_of_.empty()
          ? 0u
          : *std::max_element(column_of_.begin(), column_of_.end()) + 1u;
  column_gpus_.assign(columns, 0);
  first_gpu_.assign(columns, GpuId{});
  for (std::size_t g = column_of_.size(); g-- > 0;) {
    ++column_gpus_[column_of_[g]];
    first_gpu_[column_of_[g]] = GpuId(static_cast<int>(g));
  }
  HARE_CHECK_MSG(std::find(column_gpus_.begin(), column_gpus_.end(), 0u) ==
                     column_gpus_.end(),
                 "time table column map leaves a column without GPUs");
  row_of_.assign(job_count, kZeroRow);
  tc_.assign(columns, 0.0);
  ts_.assign(columns, 0.0);
  owners_.assign(1, static_cast<std::uint32_t>(job_count));
  agg_.assign(1, JobAggregates{});
  agg_valid_.assign(1, 0);
  stale_rows_.assign(1, kZeroRow);
  free_rows_.clear();
  alpha_valid_ = false;
}

void TimeTable::set(JobId job, GpuId gpu, Time compute, Time sync) {
  const auto g = static_cast<std::size_t>(gpu.value());
  if (column_gpus_[column_of_[g]] > 1) split_column(g);
  const std::size_t j = static_cast<std::size_t>(job.value());
  const std::size_t width = column_count();
  RowId row = row_of_[j];
  if (row == kZeroRow || owners_[row] > 1) {
    const RowId fresh = allocate_row();
    std::copy_n(tc_.data() + row * width, width, tc_.data() + fresh * width);
    std::copy_n(ts_.data() + row * width, width, ts_.data() + fresh * width);
    --owners_[row];
    ++owners_[fresh];
    row_of_[j] = fresh;
    row = fresh;
  }
  tc_[row * width + column_of_[g]] = compute;
  ts_[row * width + column_of_[g]] = sync;
  invalidate_row(row);
  alpha_valid_ = false;
}

// Every row's values, and so every cached aggregate, survive a split: the
// new column repeats the old one, and the lowest GPU id over the two
// columns is the old column's lowest.
void TimeTable::split_column(std::size_t gpu) {
  const std::uint32_t from = column_of_[gpu];
  const std::size_t width = column_count();
  const std::size_t rows = owners_.size();
  const auto widen = [&](std::vector<Time>& arena) {
    std::vector<Time> wide(rows * (width + 1));
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(arena.data() + r * width, width,
                  wide.data() + r * (width + 1));
      wide[r * (width + 1) + width] = arena[r * width + from];
    }
    arena.swap(wide);
  };
  widen(tc_);
  widen(ts_);
  column_of_[gpu] = static_cast<std::uint32_t>(width);
  --column_gpus_[from];
  column_gpus_.push_back(1);
  first_gpu_.push_back(GpuId(static_cast<int>(gpu)));
  if (first_gpu_[from] == GpuId(static_cast<int>(gpu))) {
    std::size_t next = gpu + 1;
    while (column_of_[next] != from) ++next;
    first_gpu_[from] = GpuId(static_cast<int>(next));
  }
}

TimeTable::RowId TimeTable::allocate_row() {
  while (!free_rows_.empty()) {
    const RowId candidate = free_rows_.back();
    free_rows_.pop_back();
    if (owners_[candidate] == 0) {  // stale entries were re-bound; skip them
      invalidate_row(candidate);
      return candidate;
    }
  }
  const auto row = static_cast<RowId>(owners_.size());
  tc_.resize(tc_.size() + column_count());
  ts_.resize(ts_.size() + column_count());
  owners_.push_back(0);
  agg_.emplace_back();
  agg_valid_.push_back(0);
  stale_rows_.push_back(row);
  return row;
}

TimeTable::RowId TimeTable::intern_row(const Time* tc, const Time* ts) {
  HARE_CHECK_MSG(!owners_.empty(), "intern_row on an unshaped time table");
  const RowId row = allocate_row();
  const std::size_t base = static_cast<std::size_t>(row) * column_count();
  std::copy_n(tc, column_count(), tc_.data() + base);
  std::copy_n(ts, column_count(), ts_.data() + base);
  return row;  // ownerless until bound, so α is unchanged
}

// One pass over the columns fills every aggregate for the row. Columns are
// not in GPU order (a split appends one), so a T^c tie goes to the column
// with the lower first GPU: the lowest-id fastest GPU, as a GPU scan finds.
const TimeTable::JobAggregates& TimeTable::row_aggregates(RowId row) const {
  HARE_CHECK_MSG(!column_of_.empty(), "time table has no GPUs");
  if (agg_valid_[row]) return agg_[row];

  const std::size_t width = column_count();
  const Time* tc = tc_.data() + static_cast<std::size_t>(row) * width;
  const Time* ts = ts_.data() + static_cast<std::size_t>(row) * width;
  JobAggregates agg;
  agg.min_tc = agg.max_tc = tc[0];
  agg.min_ts = agg.max_ts = ts[0];
  agg.min_total = tc[0] + ts[0];
  agg.fastest = first_gpu_[0];
  for (std::size_t c = 1; c < width; ++c) {
    if (tc[c] < agg.min_tc ||
        (tc[c] == agg.min_tc && first_gpu_[c] < agg.fastest)) {
      agg.min_tc = tc[c];
      agg.fastest = first_gpu_[c];
    }
    agg.max_tc = std::max(agg.max_tc, tc[c]);
    agg.min_ts = std::min(agg.min_ts, ts[c]);
    agg.max_ts = std::max(agg.max_ts, ts[c]);
    agg.min_total = std::min(agg.min_total, tc[c] + ts[c]);
  }
  agg_[row] = agg;
  agg_valid_[row] = 1;
  return agg_[row];
}

const TimeTable::JobAggregates& TimeTable::aggregates(JobId job) const {
  const std::size_t j = static_cast<std::size_t>(job.value());
  HARE_CHECK_MSG(j < row_of_.size(), "time table has no job " << job);
  return row_aggregates(row_of_[j]);
}

void TimeTable::fold_alpha(RowId row) const {
  const JobAggregates& agg = row_aggregates(row);
  if (agg.min_tc > 0.0) alpha_ = std::max(alpha_, agg.max_tc / agg.min_tc);
  if (agg.min_ts > 0.0) alpha_ = std::max(alpha_, agg.max_ts / agg.min_ts);
}

double TimeTable::alpha() const {
  if (alpha_valid_) return alpha_;
  // Each owned row contributes its ratio once — the max over jobs equals
  // the max over distinct rows, and rows nobody points at are dead values.
  // max is exact, so folding rows in as they gain owners (bind_row) gives
  // the same value as this rescan.
  alpha_ = 1.0;
  for (std::size_t r = 0; r < owners_.size(); ++r) {
    if (owners_[r] != 0) fold_alpha(static_cast<RowId>(r));
  }
  alpha_valid_ = true;
  return alpha_;
}

void TimeTable::precompute() const {
  if (column_of_.empty()) return;
  for (const RowId row : stale_rows_) (void)row_aggregates(row);
  stale_rows_.clear();
  if (!row_of_.empty()) (void)alpha();
}

void gather_sub_table(const TimeTable& from, const std::vector<JobId>& jobs,
                      const std::vector<GpuId>& gpus, GatherBuffers& buffers,
                      TimeTable& into) {
  // Sentinel for "source row not yet gathered" / "column not kept".
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  buffers.column_map.assign(from.column_count(), kNone);
  buffers.source_column.clear();
  buffers.column_of.resize(gpus.size());
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    std::uint32_t& sub = buffers.column_map[from.column_of(gpus[g])];
    if (sub == kNone) {
      sub = static_cast<std::uint32_t>(buffers.source_column.size());
      buffers.source_column.push_back(from.column_of(gpus[g]));
    }
    buffers.column_of[g] = sub;
  }
  into.reset(jobs.size(), buffers.column_of);

  const std::size_t width = buffers.source_column.size();
  buffers.row_map.assign(from.row_count(), kNone);
  buffers.tc.resize(width);
  buffers.ts.resize(width);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    TimeTable::RowId& row = buffers.row_map[from.row_of(jobs[j])];
    if (row == kNone) {
      const Time* tc = from.tc_columns(jobs[j]);
      const Time* ts = from.ts_columns(jobs[j]);
      for (std::size_t c = 0; c < width; ++c) {
        buffers.tc[c] = tc[buffers.source_column[c]];
        buffers.ts[c] = ts[buffers.source_column[c]];
      }
      row = into.intern_row(buffers.tc.data(), buffers.ts.data());
    }
    into.bind_row(JobId(static_cast<int>(j)), row);
  }
}

}  // namespace hare::profiler
