// Hare's task scheduling algorithm (§5.2, Algorithm 1).
//
// Step 1 relaxes Hare_Sched (HareRelaxation) to obtain fluid starts x̂ and
// middle completion times H_i = x̂_i + max_m T^c_{i,m}/2. Step 2 sorts all
// tasks by non-descending H and list-schedules them: a task is available at
// its job's arrival (round 0) or at the realized barrier of its previous
// round; it is placed on the GPU with the earliest available time φ_m
// (Algorithm 1 line 12), which becomes busy until x̃ + T̃^c — the sync
// T̃^s overlaps the GPU's next task (line 16). The result is an
// α(2+α)-approximation of the optimal total weighted completion time
// (Theorem 4).
//
// Options beyond the paper's default, used by the ablation bench:
//  * Placement::EarliestFinish — replace line 12's argmin φ_m with the
//    speed-aware argmin max(t_i, φ_m) + T^c_{i,m}.
//  * Sync::Strict — disable the relaxed scale-fixed scheme: a round's
//    tasks gang on |D_r| distinct GPUs with a common start (what Tiresias/
//    Gandiva-style scale-fixed systems do, Fig 4(a)).
//
// Incremental planning (the online extension): schedule_jobs and
// schedule_jobs_with_h plan one batch — a strictly ascending list of JobIds
// — on top of the per-GPU commitment horizons φ an IncrementalState carries
// across calls. π is built from the batch jobs' contiguous task ranges,
// and the relaxation outputs, the per-round progress table and the plan's
// predicted starts grow by appending, with a call writing only its batch's
// entries; so a batch costs O(batch tasks × placement + G) however many
// jobs were planned before it. Offline schedule() plans the whole instance
// from φ = 0 with call-local buffers.
#pragma once

#include <span>
#include <vector>

#include "core/placement_index.hpp"
#include "core/relaxation.hpp"
#include "sched/scheduler.hpp"

namespace hare::core {

enum class Placement : std::uint8_t { EarliestAvailable, EarliestFinish };
enum class SyncScheme : std::uint8_t { Relaxed, Strict };

struct HareConfig {
  RelaxationConfig relaxation{};
  /// Line 12 interpretation. The pseudocode's literal argmin φ_m is
  /// speed-blind and lets slow GPUs onto every round's critical path; the
  /// earliest-finish reading (the same greedy the relaxation's fluid pass
  /// uses) is required to reproduce the paper's reported wins and is the
  /// default. The ablation bench quantifies the difference.
  Placement placement = Placement::EarliestFinish;
  SyncScheme sync = SyncScheme::Relaxed;
};

/// Algorithm 1's progress on one round of one job while list scheduling.
struct RoundProgress {
  int scheduled = 0;       ///< tasks of the round placed so far
  Time barrier = 0.0;      ///< max realized x̃ + T̃^c + T̃^s
  std::vector<TaskId> waiting;  ///< deferred tasks blocked on this round
};

/// Commitment horizon parked on a dead GPU: finite (no inf-arithmetic
/// hazards in the fluid relaxation) but beyond any plannable time, so
/// earliest-finish placement never selects it while capacity survives
/// elsewhere. A φ at or above it marks the GPU dead.
inline constexpr Time kDeadHorizon = 1e18;

class HareScheduler final : public sched::Scheduler {
 public:
  explicit HareScheduler(HareConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return "Hare"; }
  [[nodiscard]] sim::Schedule schedule(
      const sched::SchedulerInput& input) override;

  /// Incremental planning state for the online extension: per-GPU
  /// commitment horizons carried across planning rounds, the φ-independent
  /// planning buffers (fitting matrix, placement index), and the
  /// job- and task-indexed tables a batch writes into. Everything here
  /// grows by appending and a call resets and writes only its batch's
  /// entries, so a streaming caller pays for the batch — its tasks, their
  /// placements and one O(G) re-seed of the index — never for the jobs
  /// admitted before it. The instance behind one state may therefore only
  /// grow between calls: jobs are append-only and the cluster is fixed
  /// (the φ size check enforces the latter; PlannerScratch::sync rebuilds
  /// on a shrink).
  struct IncrementalState {
    std::vector<Time> phi;
    PlannerScratch scratch;
    /// schedule_jobs' Fluid relaxation: task-indexed x̂, ŷ and h of every
    /// batch it planned (h is what it list-schedules with), and the last
    /// batch's relaxed objective.
    RelaxationResult relaxation;
    /// [job][round] list-scheduling progress.
    std::vector<std::vector<RoundProgress>> rounds;
  };

  /// Plan only the `batch` jobs (ids strictly ascending, checked) on top
  /// of `state` (prior commitments): relax them into `state.relaxation`,
  /// then list-schedule them with its h. Placements are appended to
  /// `schedule`'s per-GPU sequences (sized to the cluster when empty) and
  /// their starts written into `predicted_start`, which grows to span the
  /// instance. Used by OnlineHareScheduler, the serving loop's flat path
  /// and the sharded online path; requires the Fluid relaxation mode and
  /// relaxed sync. Costs O(batch tasks × placement + G): nothing outside
  /// the batch is read or written. Returns the planned weighted-completion
  /// contribution of the batch (0 for an empty batch).
  double schedule_jobs(const sched::SchedulerInput& input,
                       std::span<const JobId> batch, IncrementalState& state,
                       sim::Schedule& schedule);

  /// Like schedule_jobs, but list-schedule the batch with externally
  /// supplied middle completion times `h` (indexed by TaskId value and
  /// spanning the task array; only the batch tasks' entries are read)
  /// instead of running the relaxation. The serving loop derives h from
  /// the closed-form optimum of the batch's own relaxation block (or an
  /// arrival-keyed greedy order when its replan budget is exhausted) and
  /// hands the ordering here, so placement semantics stay identical to
  /// every other planner path. Requires relaxed sync.
  double schedule_jobs_with_h(const sched::SchedulerInput& input,
                              std::span<const JobId> batch,
                              const std::vector<Time>& h,
                              IncrementalState& state,
                              sim::Schedule& schedule);

  /// Relaxation diagnostics of the last schedule() call.
  [[nodiscard]] const RelaxationResult& last_relaxation() const {
    return last_relaxation_;
  }

 private:
  HareConfig config_;
  RelaxationResult last_relaxation_;
};

}  // namespace hare::core
