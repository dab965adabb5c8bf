#include "profiler_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hare::testing {

namespace {

using profiler::ProfileEntry;
using profiler::ProfileKey;
using profiler::TimeTable;

using ShapeKey = std::tuple<workload::ModelType, std::uint32_t, std::uint32_t>;

/// Distinct shapes in first-seen job order, and each job's shape index.
std::vector<ShapeKey> shapes_of(const workload::JobSet& jobs,
                                std::vector<std::size_t>& shape_of) {
  std::vector<ShapeKey> shapes;
  std::map<ShapeKey, std::size_t> seen;
  shape_of.resize(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    const ShapeKey key{job.spec.model, job.effective_batch_size(),
                       job.spec.batches_per_task};
    const auto [it, inserted] = seen.try_emplace(key, shapes.size());
    if (inserted) shapes.push_back(key);
    shape_of[static_cast<std::size_t>(job.id.value())] = it->second;
  }
  return shapes;
}

/// Intern one row per shape from a shapes × G cell matrix and bind jobs.
TimeTable intern_rows(const workload::JobSet& jobs, std::size_t gpu_count,
                      std::size_t shape_count,
                      const std::vector<std::size_t>& shape_of,
                      const std::vector<Time>& tc,
                      const std::vector<Time>& ts) {
  TimeTable table(jobs.job_count(), gpu_count);
  std::vector<TimeTable::RowId> row_of_shape(shape_count);
  for (std::size_t s = 0; s < shape_count; ++s) {
    row_of_shape[s] = table.intern_row(tc.data() + s * gpu_count,
                                       ts.data() + s * gpu_count);
  }
  for (const auto& job : jobs.jobs()) {
    table.bind_row(job.id, row_of_shape[shape_of[static_cast<std::size_t>(
                               job.id.value())]]);
  }
  return table;
}

}  // namespace

TimeTable OracleProfiler::profile(const workload::JobSet& jobs,
                                  const cluster::Cluster& cluster,
                                  profiler::ProfileDb* db) {
  const std::size_t gpu_count = cluster.gpu_count();
  profiling_cost_ = 0.0;
  memo_hits_ = rows_ = 0;
  if (jobs.job_count() == 0 || gpu_count == 0) {
    return TimeTable(jobs.job_count(), gpu_count);
  }
  std::vector<std::size_t> shape_of;
  const std::vector<ShapeKey> shapes = shapes_of(jobs, shape_of);

  // Every (shape, GPU) cell: build its key; a first-seen key is looked up
  // in the db or measured at once, drawing its seed from the stream.
  std::unordered_map<ProfileKey, ProfileEntry, profiler::ProfileKeyHash>
      resolved;
  std::vector<Time> tc(shapes.size() * gpu_count);
  std::vector<Time> ts(shapes.size() * gpu_count);
  std::vector<std::pair<ProfileKey, ProfileEntry>> measured;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& [model, batch, batches_per_task] = shapes[s];
    for (const auto& gpu : cluster.gpus()) {
      const double uplink = cluster.machine(gpu.machine).network_gbps;
      ProfileKey key;
      key.model = model;
      key.gpu = gpu.type;
      key.batch_size = batch;
      key.batches_per_task = batches_per_task;
      key.network_mbps = static_cast<std::uint32_t>(uplink * 1000.0 + 0.5);
      auto it = resolved.find(key);
      if (it == resolved.end()) {
        std::optional<ProfileEntry> hit;
        if (db != nullptr) hit = db->lookup(key);
        if (hit) {
          it = resolved.emplace(key, *hit).first;
        } else {
          common::Rng rng(rng_.next_u64());
          const Time true_batch = perf_.batch_time(model, gpu.type, batch);
          const double sigma =
              std::sqrt(std::log(1.0 + config_.measurement_noise_cv *
                                           config_.measurement_noise_cv));
          Time cost = 0.0;
          for (std::uint32_t w = 0; w < config_.warmup_batches; ++w) {
            cost += true_batch * rng.log_normal(-sigma * sigma / 2.0, sigma) *
                    2.0;
          }
          Time measured_sum = 0.0;
          const std::uint32_t samples = std::max(1u, config_.sample_batches);
          for (std::uint32_t k = 0; k < samples; ++k) {
            const Time one =
                true_batch * rng.log_normal(-sigma * sigma / 2.0, sigma);
            measured_sum += one;
            cost += one;
          }
          ProfileEntry entry;
          entry.tc = measured_sum / samples * batches_per_task;
          entry.ts = perf_.sync_time(model, uplink);
          entry.sample_count = samples;
          profiling_cost_ += cost;
          measured.emplace_back(key, entry);
          it = resolved.emplace(key, entry).first;
        }
      } else {
        ++memo_hits_;
      }
      const std::size_t cell =
          s * gpu_count + static_cast<std::size_t>(gpu.id.value());
      tc[cell] = it->second.tc;
      ts[cell] = it->second.ts;
    }
  }
  if (db != nullptr) {
    for (const auto& [key, entry] : measured) db->store(key, entry);
  }
  // Cells of duplicate-shape jobs are memo hits too.
  memo_hits_ += static_cast<std::uint64_t>(jobs.job_count() - shapes.size()) *
                gpu_count;
  rows_ = shapes.size();
  return intern_rows(jobs, gpu_count, shapes.size(), shape_of, tc, ts);
}

TimeTable OracleProfiler::exact(const workload::JobSet& jobs,
                                const cluster::Cluster& cluster) const {
  const std::size_t gpu_count = cluster.gpu_count();
  rows_ = 0;
  if (jobs.job_count() == 0 || gpu_count == 0) {
    return TimeTable(jobs.job_count(), gpu_count);
  }
  std::vector<std::size_t> shape_of;
  const std::vector<ShapeKey> shapes = shapes_of(jobs, shape_of);
  std::vector<Time> tc(shapes.size() * gpu_count);
  std::vector<Time> ts(shapes.size() * gpu_count);
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& [model, batch, batches_per_task] = shapes[s];
    for (const auto& gpu : cluster.gpus()) {
      const std::size_t cell =
          s * gpu_count + static_cast<std::size_t>(gpu.id.value());
      tc[cell] =
          perf_.task_compute_time(model, gpu.type, batch, batches_per_task);
      ts[cell] = perf_.sync_time(
          model, cluster.machine(gpu.machine).network_gbps);
    }
  }
  rows_ = shapes.size();
  return intern_rows(jobs, gpu_count, shapes.size(), shape_of, tc, ts);
}

}  // namespace hare::testing
