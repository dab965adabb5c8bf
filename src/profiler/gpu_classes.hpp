// GPU classes: the profiler's unit of work.
//
// A (T^c, T^s) cell depends on the job and on two properties of the GPU:
// its type (T^c) and its machine's uplink (T^s). GPUs that agree on both
// form one class and read identical cells, so a row is resolved once per
// class, and a time table built on the classes stores one column per
// class: a 1,024-GPU simulation cluster has 4 columns, not 1,024. This
// mirrors Hare's preparation stage (§3), which profiles each job once per
// GPU type.
//
// Classes are keyed by the *exact* uplink, not the ProfileDb's rounded
// Mbit/s, so an exact row never mixes two uplinks' sync times. They are
// numbered in first-GPU order and each keeps its first GPU as the
// representative; the profiler relies on that order to draw measurement
// keys, seeds and db lookups in the same sequence as a per-GPU walk.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "workload/perf_model.hpp"

namespace hare::profiler {

class GpuClasses {
 public:
  explicit GpuClasses(const cluster::Cluster& cluster);

  /// Number of classes.
  [[nodiscard]] std::size_t size() const { return first_gpu_.size(); }
  [[nodiscard]] std::size_t gpu_count() const { return class_of_.size(); }

  /// Class of GPU `gpu` (indexed by GpuId value), and the whole map: the
  /// column map of a time table with one column per class.
  [[nodiscard]] std::uint32_t class_of(std::size_t gpu) const {
    return class_of_[gpu];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& class_map() const {
    return class_of_;
  }
  /// First GPU of class `c`.
  [[nodiscard]] std::size_t representative(std::size_t c) const {
    return first_gpu_[c];
  }
  [[nodiscard]] cluster::GpuType type(std::size_t c) const { return type_[c]; }
  [[nodiscard]] double uplink_gbps(std::size_t c) const { return uplink_[c]; }

 private:
  std::vector<std::uint32_t> class_of_;  ///< per GPU
  std::vector<std::size_t> first_gpu_;   ///< per class
  std::vector<cluster::GpuType> type_;   ///< per class
  std::vector<double> uplink_;           ///< per class, Gbit/s
};

/// The exact (noise-free) row of one job shape — (model, effective batch
/// size, batches per task) — over the classes: one perf-model evaluation
/// per class into `tc`/`ts`, which hold classes.size() slots each. The one
/// way to build an exact row: Profiler::exact() and serve admission share it.
void exact_row(const workload::PerfModel& perf, const GpuClasses& classes,
               workload::ModelType model, std::uint32_t batch_size,
               std::uint32_t batches_per_task, Time* tc, Time* ts);

}  // namespace hare::profiler
