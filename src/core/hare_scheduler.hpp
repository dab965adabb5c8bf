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
#pragma once

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
  /// commitment horizons carried across planning rounds, plus the
  /// φ-independent planning buffers (fitting matrix, placement index).
  /// Carrying the scratch across batches means a streaming caller pays
  /// append-only cost per batch — only jobs added since the previous call
  /// get new rows — instead of rebuilding O(jobs × GPUs) state every time.
  /// The instance behind one state may therefore only grow between calls:
  /// jobs are append-only and the cluster is fixed (the φ size check
  /// enforces the latter; PlannerScratch::sync rebuilds on a shrink).
  struct IncrementalState {
    std::vector<Time> phi;
    PlannerScratch scratch;
  };

  /// Plan only the jobs with `job_mask[id] != 0` on top of `state` (prior
  /// commitments), appending to `schedule`. Used by OnlineHareScheduler;
  /// requires the Fluid relaxation mode and relaxed sync. Returns the
  /// planned weighted-completion contribution of the batch.
  double schedule_jobs(const sched::SchedulerInput& input,
                       const std::vector<char>& job_mask,
                       IncrementalState& state, sim::Schedule& schedule);

  /// Like schedule_jobs, but list-schedule the masked jobs with externally
  /// supplied middle completion times `h` (indexed by TaskId value; only
  /// masked tasks' entries are read) instead of running the relaxation.
  /// The serving loop derives h from one cold LP solve of the batch's own
  /// block (or an arrival-keyed greedy order when its replan budget is
  /// exhausted) and hands the ordering here, so placement semantics stay
  /// identical to every other planner path. Requires relaxed sync.
  double schedule_jobs_with_h(const sched::SchedulerInput& input,
                              const std::vector<char>& job_mask,
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
