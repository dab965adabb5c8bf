#include "profiler/time_table.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hare::profiler {

TimeTable::RowId TimeTable::allocate_row() {
  while (!free_rows_.empty()) {
    const RowId candidate = free_rows_.back();
    free_rows_.pop_back();
    if (owners_[candidate] == 0) {  // stale entries were re-bound; skip them
      agg_valid_[candidate] = 0;
      return candidate;
    }
  }
  const auto row = static_cast<RowId>(owners_.size());
  tc_.resize(tc_.size() + gpu_count_);
  ts_.resize(ts_.size() + gpu_count_);
  owners_.push_back(0);
  agg_.emplace_back();
  agg_valid_.push_back(0);
  return row;
}

void TimeTable::copy_row(RowId src, RowId dst) {
  const std::size_t from = static_cast<std::size_t>(src) * gpu_count_;
  const std::size_t to = static_cast<std::size_t>(dst) * gpu_count_;
  std::copy_n(tc_.data() + from, gpu_count_, tc_.data() + to);
  std::copy_n(ts_.data() + from, gpu_count_, ts_.data() + to);
  agg_valid_[dst] = 0;
}

TimeTable::RowId TimeTable::intern_row(const Time* tc, const Time* ts) {
  HARE_CHECK_MSG(!owners_.empty(), "intern_row on an unshaped time table");
  const RowId row = allocate_row();
  const std::size_t base = static_cast<std::size_t>(row) * gpu_count_;
  std::copy_n(tc, gpu_count_, tc_.data() + base);
  std::copy_n(ts, gpu_count_, ts_.data() + base);
  alpha_valid_ = false;
  return row;
}

void TimeTable::reserve_rows(std::size_t rows) {
  tc_.reserve(tc_.size() + rows * gpu_count_);
  ts_.reserve(ts_.size() + rows * gpu_count_);
  owners_.reserve(owners_.size() + rows);
  agg_.reserve(agg_.size() + rows);
  agg_valid_.reserve(agg_valid_.size() + rows);
}

// One pass over the GPU axis fills every aggregate for the row; the old
// reduce_over_gpus helper ran a separate O(G) scan per min/max accessor.
const TimeTable::JobAggregates& TimeTable::row_aggregates(RowId row) const {
  HARE_CHECK_MSG(gpu_count_ > 0, "time table has no GPUs");
  if (agg_valid_[row]) return agg_[row];

  const std::size_t base = static_cast<std::size_t>(row) * gpu_count_;
  JobAggregates agg;
  agg.min_tc = agg.max_tc = tc_[base];
  agg.min_ts = agg.max_ts = ts_[base];
  agg.min_total = tc_[base] + ts_[base];
  agg.fastest = GpuId(0);
  for (std::size_t g = 1; g < gpu_count_; ++g) {
    const Time c = tc_[base + g];
    const Time s = ts_[base + g];
    if (c < agg.min_tc) {
      agg.min_tc = c;
      agg.fastest = GpuId(static_cast<int>(g));
    }
    agg.max_tc = std::max(agg.max_tc, c);
    agg.min_ts = std::min(agg.min_ts, s);
    agg.max_ts = std::max(agg.max_ts, s);
    agg.min_total = std::min(agg.min_total, c + s);
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

double TimeTable::alpha() const {
  if (alpha_valid_) return alpha_;
  double alpha = 1.0;
  // Each owned row contributes its ratio once — the max over jobs equals
  // the max over distinct rows, and rows nobody points at are dead values.
  for (std::size_t r = 0; r < owners_.size(); ++r) {
    if (owners_[r] == 0) continue;
    const JobAggregates& agg = row_aggregates(static_cast<RowId>(r));
    if (agg.min_tc > 0.0) alpha = std::max(alpha, agg.max_tc / agg.min_tc);
    if (agg.min_ts > 0.0) alpha = std::max(alpha, agg.max_ts / agg.min_ts);
  }
  alpha_ = alpha;
  alpha_valid_ = true;
  return alpha_;
}

void TimeTable::precompute() const {
  if (gpu_count_ == 0) return;
  for (std::size_t r = 0; r < owners_.size(); ++r) {
    if (owners_[r] == 0 && r != kZeroRow) continue;
    (void)row_aggregates(static_cast<RowId>(r));
  }
  if (!row_of_.empty()) (void)alpha();
}

void gather_sub_table(const TimeTable& from, const std::vector<JobId>& jobs,
                      const std::vector<GpuId>& gpus, GatherBuffers& buffers,
                      TimeTable& into) {
  // Sentinel for "source row not yet gathered".
  constexpr TimeTable::RowId kUngathered = 0xFFFFFFFFu;
  into.reset(jobs.size(), gpus.size());
  buffers.row_map.assign(from.row_count(), kUngathered);
  buffers.tc.resize(gpus.size());
  buffers.ts.resize(gpus.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    TimeTable::RowId& row = buffers.row_map[from.row_of(jobs[j])];
    if (row == kUngathered) {
      const Time* tc = from.tc_row(jobs[j]);
      const Time* ts = from.ts_row(jobs[j]);
      for (std::size_t g = 0; g < gpus.size(); ++g) {
        const auto source = static_cast<std::size_t>(gpus[g].value());
        buffers.tc[g] = tc[source];
        buffers.ts[g] = ts[source];
      }
      row = into.intern_row(buffers.tc.data(), buffers.ts.data());
    }
    into.bind_row(JobId(static_cast<int>(j)), row);
  }
}

}  // namespace hare::profiler
