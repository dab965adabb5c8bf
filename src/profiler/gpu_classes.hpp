// GPU classes: the profiler's unit of work.
//
// A (T^c, T^s) cell depends on the job and on two properties of the GPU:
// its type (T^c) and its machine's uplink (T^s). GPUs that agree on both
// form one class and read identical cells, so a row is resolved once per
// class and broadcast to the class's GPUs — a 1,024-GPU simulation
// cluster has 4 classes, not 1,024 columns of work. This mirrors Hare's
// preparation stage (§3), which profiles each job once per GPU type.
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

  /// Class of GPU `gpu` (indexed by GpuId value).
  [[nodiscard]] std::uint32_t class_of(std::size_t gpu) const {
    return class_of_[gpu];
  }
  /// First GPU of class `c`, the one whose cell the class's others copy.
  [[nodiscard]] std::size_t representative(std::size_t c) const {
    return first_gpu_[c];
  }
  [[nodiscard]] cluster::GpuType type(std::size_t c) const { return type_[c]; }
  [[nodiscard]] double uplink_gbps(std::size_t c) const { return uplink_[c]; }

  /// Fill a gpu_count()-wide (T^c, T^s) row from per-class values:
  /// `value(c)` returns class c's {T^c, T^s} and is called once per class,
  /// at its representative; the class's later GPUs copy that cell.
  template <typename ClassValue>
  void fill_row(Time* tc, Time* ts, ClassValue&& value) const {
    for (std::size_t g = 0; g < class_of_.size(); ++g) {
      const std::uint32_t c = class_of_[g];
      const std::size_t first = first_gpu_[c];
      if (first == g) {
        const auto [compute, sync] = value(c);
        tc[g] = compute;
        ts[g] = sync;
      } else {
        tc[g] = tc[first];
        ts[g] = ts[first];
      }
    }
  }

 private:
  std::vector<std::uint32_t> class_of_;  ///< per GPU
  std::vector<std::size_t> first_gpu_;   ///< per class
  std::vector<cluster::GpuType> type_;   ///< per class
  std::vector<double> uplink_;           ///< per class, Gbit/s
};

/// The exact (noise-free) row of one job shape — (model, effective batch
/// size, batches per task) — on every GPU: one perf-model evaluation per
/// class, broadcast. `tc`/`ts` hold classes.gpu_count() slots each. The one
/// way to build an exact row: Profiler::exact() and serve admission share it.
void exact_row(const workload::PerfModel& perf, const GpuClasses& classes,
               workload::ModelType model, std::uint32_t batch_size,
               std::uint32_t batches_per_task, Time* tc, Time* ts);

}  // namespace hare::profiler
