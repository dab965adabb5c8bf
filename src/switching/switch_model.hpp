// Task-switching cost model (§4, Table 3, Figs 7-8).
//
// When two tasks of different jobs run back-to-back on a GPU, the
// switch-out/switch-in cost depends on the executor design:
//
//  * Default  — the predecessor tears down its CUDA context and frees
//    memory, then the successor launches a fresh process: context creation,
//    framework + model (re)construction, cudaMalloc, and a bulk host→device
//    copy of the full model. Seconds per switch.
//  * PipeSwitch — contexts are pre-created in a standby-process pool, the
//    allocator is cached, and the model transfer is pipelined per layer so
//    execution starts after the first layer group lands. Milliseconds.
//  * Hare — PipeSwitch plus (a) *early task cleaning*: each layer's
//    intermediate data is freed as soon as its backward pass finishes, so
//    cleanup is fully overlapped with the predecessor's tail and the
//    successor can begin pre-loading into the freed region (halving the
//    exposed transfer); and (b) *speculative memory management*: if the
//    successor job's model state is still resident (SpeculativeMemoryManager
//    keep heuristic), the transfer disappears entirely.
//
// Same-job back-to-back tasks share their context and weights under every
// policy (the pre-Hare status quo: consecutive tasks on a GPU belong to the
// same job), costing only a round-bookkeeping epsilon.
//
// Cold-start constants are per-model calibrations standing in for measured
// process-launch + import + model-build times on the testbed.
#pragma once

#include <cstdint>
#include <optional>

#include "cluster/gpu.hpp"
#include "common/types.hpp"
#include "switching/memory_manager.hpp"
#include "workload/model_zoo.hpp"

namespace hare::switching {

enum class SwitchPolicy : std::uint8_t { Default, PipeSwitch, Hare };

[[nodiscard]] std::string_view switch_policy_name(SwitchPolicy policy);

struct SwitchBreakdown {
  Time clean = 0.0;     ///< predecessor teardown exposed on the critical path
  Time context = 0.0;   ///< CUDA context creation
  Time init = 0.0;      ///< process/framework/model construction
  Time alloc = 0.0;     ///< allocator setup
  Time transfer = 0.0;  ///< exposed host→device model transfer
  bool model_resident = false;

  [[nodiscard]] Time total() const {
    return clean + context + init + alloc + transfer;
  }
};

/// The prototype's pool of standby trainer processes with pre-created
/// contexts is modelled as always warm: PipeSwitch and Hare never pay
/// context creation, however many distinct jobs interleave on a GPU, and
/// Default pays the GPU's `context_create_s` on every cross-job switch.
struct SwitchModelConfig {
  SwitchPolicy policy = SwitchPolicy::Hare;
  /// Scheduling-theory mode: every switch costs exactly zero. Used to
  /// check that planner timelines and simulator executions coincide when
  /// the §5.1 formulation's "ignore switching" idealization holds.
  bool free_switching = false;
  /// Fixed bookkeeping for a same-job continuation (checkpoint round id,
  /// hook updates).
  Time same_job_overhead_s = 0.0002;
  /// Per-layer pipeline stage launch overhead.
  Time per_layer_overhead_s = 0.00005;
  /// Residual bookkeeping on any cross-job switch (kernel caches, streams).
  Time switch_base_s = 0.0008;
  /// Fraction of the pipelined transfer exposed after Hare's early cleaning
  /// lets pre-loading start during the predecessor's tail.
  double hare_preload_overlap = 0.5;
};

class SwitchCostModel {
 public:
  explicit SwitchCostModel(SwitchModelConfig config) : config_(config) {}
  SwitchCostModel() : SwitchCostModel(SwitchModelConfig{}) {}

  /// Cost of starting a task of (`job`, `model`) on `gpu` when the previous
  /// task on that GPU belonged to `previous_job` (nullopt = GPU was idle
  /// and cold). `memory` is consulted/updated only under the Hare policy;
  /// pass nullptr to model a memory-manager-less executor.
  [[nodiscard]] SwitchBreakdown switch_cost(
      JobId job, workload::ModelType model, cluster::GpuType gpu,
      std::optional<JobId> previous_job,
      const SpeculativeMemoryManager* memory) const;

  /// The pure cost function behind switch_cost: a breakdown for one
  /// (model, GPU type, same-job?, had-predecessor?, model-resident?)
  /// combination, with no metrics recorded. SwitchCostTable enumerates
  /// this once per run.
  [[nodiscard]] SwitchBreakdown compute(workload::ModelType model,
                                        cluster::GpuType gpu, bool same_job,
                                        bool has_previous,
                                        bool resident) const;

  [[nodiscard]] const SwitchModelConfig& config() const { return config_; }

  /// Calibrated cold process-start + framework import + model construction
  /// time (seconds) for the Default policy.
  [[nodiscard]] static Time cold_init_seconds(workload::ModelType model);

  /// Calibrated extra exposed transfer for models whose first pipeline
  /// stage is large (embedding tables, packed RNN weights).
  [[nodiscard]] static Time pipeline_residual_seconds(workload::ModelType model);

 private:
  SwitchModelConfig config_;
};

/// Memoized switch costs: every (model, GPU type, predecessor?, resident?)
/// breakdown precomputed in one pass, so the simulator's per-event lookup
/// is a flat array read instead of re-deriving model-spec/PCIe/pipeline
/// arithmetic. The speculative memory manager is still consulted per
/// lookup (its residency state evolves during a run), and the same
/// per-switch metrics are recorded as the unmemoized path.
class SwitchCostTable {
 public:
  SwitchCostTable() = default;

  /// (Re)build for `model`'s config. Cheap: kModelCount x kGpuTypeCount x 4
  /// closed-form evaluations.
  void build(const SwitchCostModel& model);

  [[nodiscard]] bool built() const { return !entries_.empty(); }

  /// Bitwise-identical to `model.switch_cost(...)` for the model passed to
  /// build(), including the recorded metrics.
  [[nodiscard]] const SwitchBreakdown& lookup(
      JobId job, workload::ModelType model, cluster::GpuType gpu,
      std::optional<JobId> previous_job,
      const SpeculativeMemoryManager* memory) const;

 private:
  [[nodiscard]] static std::size_t index(workload::ModelType model,
                                         cluster::GpuType gpu,
                                         bool has_previous, bool resident) {
    return ((static_cast<std::size_t>(model) * cluster::kGpuTypeCount +
             static_cast<std::size_t>(gpu)) *
                2 +
            (has_previous ? 1 : 0)) *
               2 +
           (resident ? 1 : 0);
  }

  std::vector<SwitchBreakdown> entries_;  ///< cross-job variants
  SwitchBreakdown same_job_;              ///< model/GPU independent
};

}  // namespace hare::switching
