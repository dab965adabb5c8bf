#include "profiler/gpu_classes.hpp"

#include <map>
#include <utility>

namespace hare::profiler {

GpuClasses::GpuClasses(const cluster::Cluster& cluster) {
  class_of_.resize(cluster.gpu_count());
  std::map<std::pair<cluster::GpuType, double>, std::uint32_t> seen;
  for (const auto& gpu : cluster.gpus()) {
    const double uplink = cluster.machine(gpu.machine).network_gbps;
    const auto [it, inserted] = seen.try_emplace(
        {gpu.type, uplink}, static_cast<std::uint32_t>(first_gpu_.size()));
    const auto g = static_cast<std::size_t>(gpu.id.value());
    if (inserted) {
      first_gpu_.push_back(g);
      type_.push_back(gpu.type);
      uplink_.push_back(uplink);
    }
    class_of_[g] = it->second;
  }
}

void exact_row(const workload::PerfModel& perf, const GpuClasses& classes,
               workload::ModelType model, std::uint32_t batch_size,
               std::uint32_t batches_per_task, Time* tc, Time* ts) {
  for (std::size_t c = 0; c < classes.size(); ++c) {
    tc[c] = perf.task_compute_time(model, classes.type(c), batch_size,
                                   batches_per_task);
    ts[c] = perf.sync_time(model, classes.uplink_gbps(c));
  }
}

}  // namespace hare::profiler
