// Two-level hierarchical planner: fluid inter-shard assignment, parallel
// intra-shard planning, deterministic merge.
//
// Level 1 (assignment) walks the jobs in the same arrival-adjusted WSPT
// order the fluid relaxation uses and assigns each job to the feasible
// shard with the earliest estimated completion horizon — a fluid estimate
// (work / feasible-GPU-count on top of the shard's current load), not a
// schedule. Level 2 plans every shard independently with the flat
// core::HareScheduler over the shard's re-indexed sub-cluster / sub-jobset
// / sub-timetable: LP-with-cuts when the shard's job count is small enough
// to afford it (`lp_max_jobs`), the fluid relaxation otherwise. Shard plans
// fan out over the hare::exp engine machinery and land in slots indexed by
// shard; the merge then walks shards in ascending index regardless of
// completion order, so the global schedule is **bit-identical** to planning
// the shards serially — parallelism changes wall-clock only, never a
// number.
//
// Between planning and merging, offline plans run a bounded cross-shard
// migration pass. The level-1 fluid estimate can strand jobs that straddled
// a shard boundary (the donor looked marginally better at assignment time,
// but the realized plan queues them): the pass finds the max-horizon donor
// shard, ranks its jobs by realized queueing delay (planned completion
// minus the job's own fluid best case on the donor), offers each to the
// receiver with the earliest fluid completion estimate — seeded from the
// assignment-time fluid loads, so the test engages even on
// arrival-dominated streamed instances where every realized horizon sits at
// the last arrival — provided that estimate strictly beats the job's
// realized completion. It then re-plans only the affected shards and keeps
// the result only when the summed planned objective strictly improves,
// halving the move bundle down to its highest-delay prefix when a larger
// bundle overshoots that gate.
// Every decision is computed serially from the barriered outcomes, so
// serial, pooled, and order-shuffled runs still agree bit for bit.
//
// Planning cost: a flat plan is Ω(J·G) in the fitting matrix and masked
// T^c rows alone; with S shards each sub-instance is ~(J/S)·(G/S), so even
// the *serial* sharded plan does ~1/S of the flat work, and workers stack
// on top. The price is fidelity — jobs cannot span shards, so the planned
// objective is an approximation of the flat planner's (tests bound the
// gap; with one shard the planner reproduces the flat plan bit for bit).
//
// Nested fan-out: when shard planning is itself invoked from inside a
// thread-pool worker (e.g. one cell of an exp sweep), the planner detects
// it via common::ThreadPool::current() and plans shards inline on that
// worker instead of spinning up a second pool (oversubscription guard).
//
// The online entry point runs the same level 1 and level 2 on one batch, a
// strictly ascending list of JobIds: shard loads start from the standing
// horizons φ instead of 0, and each shard plans incrementally on its slice
// of φ instead of from scratch, touching only the batch's jobs.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/hare_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "shard/shard_partition.hpp"

namespace hare::exp {
class Engine;
}  // namespace hare::exp

namespace hare::shard {

struct ShardPlannerConfig {
  /// Shard count handed to partition_cluster; 0 = one per network domain.
  std::size_t shards = 0;
  /// Worker threads for the shard fan-out; 0 = HARE_JOBS-aware default.
  std::size_t workers = 0;
  /// Plan shards serially on the calling thread (also forced when already
  /// running on a thread-pool worker, or by HARE_EXP_SERIAL).
  bool serial = false;
  /// Shards with at most this many jobs plan with the LpCuts relaxation;
  /// larger shards use Fluid. 0 = always use `hare.relaxation.mode` as-is.
  std::size_t lp_max_jobs = 0;
  /// Bounded cross-shard migration (offline plans only). After the
  /// per-shard plans land, up to this many jobs may leave the worst
  /// (max-horizon) shard for shards with fluid headroom; only the affected
  /// shards are re-planned, and the migration is kept only when the summed
  /// planned objective strictly improves. 0 disables the pass.
  std::size_t migration_max_moves = 8;
  /// Per-shard planner configuration (relaxation, placement rule, sync).
  core::HareConfig hare{};
};

struct ShardStats {
  std::size_t jobs = 0;
  std::size_t gpus = 0;
  double objective = 0.0;       ///< planned Σ w C of the shard's jobs
  double est_load = 0.0;        ///< assignment-time completion horizon
  std::size_t cut_count = 0;    ///< Queyranne cuts (LpCuts shards)
  std::size_t sep_tasks_total = 0;
  std::size_t sep_tasks_resorted = 0;
};

/// Diagnostics of the last HierarchicalPlanner::schedule call.
struct HierarchicalPlanInfo {
  std::size_t shard_count = 0;
  /// max / mean of the shards' estimated load horizons (1.0 = perfectly
  /// balanced assignment).
  double imbalance = 1.0;
  std::vector<ShardStats> shards;
  std::size_t sep_tasks_total = 0;
  std::size_t sep_tasks_resorted = 0;
  /// Jobs moved out of the bottleneck shard by the accepted migration pass
  /// (0 when migration was disabled, found no candidates, or was rejected
  /// for not improving the planned objective).
  std::size_t migrated_jobs = 0;
};

class HierarchicalPlanner final : public sched::Scheduler {
 public:
  explicit HierarchicalPlanner(ShardPlannerConfig config = {})
      : config_(config) {}

  [[nodiscard]] std::string_view name() const override {
    return "Hare_Sharded";
  }
  [[nodiscard]] sim::Schedule schedule(
      const sched::SchedulerInput& input) override;

  /// Test/diagnostic hook: plan the shards serially in `plan_order` (any
  /// permutation of [0, shard_count)). The merge is canonical-order, so
  /// the result must be bit-identical to schedule() for every permutation —
  /// the determinism tests shuffle completion order through this.
  [[nodiscard]] sim::Schedule schedule_with_order(
      const sched::SchedulerInput& input,
      const std::vector<std::size_t>& plan_order);

  /// Online entry point (the serving loop's sharded replan): plan only the
  /// `batch` jobs (ids strictly ascending, checked) on top of the standing
  /// per-GPU commitment horizons `phi`, appending the batch onto
  /// `schedule`, whose sequences must already span the cluster and whose
  /// predicted_start must span the instance. Level 1 is the offline
  /// assignment, over the batch only, with each shard's load seeded from
  /// its worst horizon among alive GPUs; GPUs whose φ sits at
  /// core::kDeadHorizon count as dead, both for the seed and for the
  /// fitting-GPU count. Level 2 plans **only** the shards that received a
  /// batch job (an arrival replans its shard, not the cluster) through the
  /// flat incremental contract (HareScheduler::schedule_jobs), so the
  /// Fluid relaxation is used regardless of `lp_max_jobs`; there is no
  /// migration pass. Commitments are never revised and `phi` advances in
  /// place. A call costs O(batch + G) plus the planned shards' work on the
  /// batch's jobs, not O(instance). Returns the batch's planned
  /// weighted-completion contribution. Bit-identical across serial and
  /// pooled shard fan-out.
  double schedule_online(const sched::SchedulerInput& input,
                         std::span<const JobId> batch, std::vector<Time>& phi,
                         sim::Schedule& schedule);

  [[nodiscard]] const HierarchicalPlanInfo& last_plan() const {
    return last_plan_;
  }

 private:
  /// Per-*worker* planning buffers — the local sub-jobset, sub-timetable,
  /// and row-gather staging a shard plan is built from. Slots are keyed by
  /// ThreadPool::current_worker_index() (slot 0 = the non-worker caller),
  /// so each pool worker reuses **its own** buffers across every shard it
  /// plans: capacity survives across shards, plan calls, migration
  /// re-plans, and the serve loop's repeated online batches, and no two
  /// threads ever touch the same slot. Cache-line alignment keeps one
  /// worker's vector headers out of its neighbours' lines (false-sharing
  /// guard for the pooled fan-out's hot rebuild loop).
  struct alignas(64) WorkerScratch {
    workload::JobSet jobs;
    profiler::TimeTable times;
    profiler::GatherBuffers gather;
  };

  /// One shard's plan, already translated to global task ids.
  struct ShardOutcome;

  /// The calling thread's scratch slot (grown on demand; see WorkerScratch).
  [[nodiscard]] WorkerScratch& scratch_slot();

  /// The engine of one call (one pool for the shard fan-out and every
  /// migration re-plan), with worker scratch pre-sized for every thread
  /// that may plan a shard.
  [[nodiscard]] std::unique_ptr<exp::Engine> make_engine();

  /// Level 2 for one shard: re-index its jobs (ascending global ids) and
  /// times onto the shard, plan them, and map the result back to global
  /// ids. Offline (`phi` null) plans from scratch with the `lp_max_jobs`
  /// mode choice; online plans incrementally on the shard's slice of φ.
  [[nodiscard]] ShardOutcome plan_shard(const sched::SchedulerInput& input,
                                        const ShardSpec& spec,
                                        const std::vector<JobId>& shard_jobs,
                                        const std::vector<Time>* phi);

  /// Merge the outcomes in ascending shard order: each shard's sequences
  /// are appended after `schedule`'s (a move when the target is empty, as
  /// in a fresh offline plan), its starts written, and their objective sum
  /// added once. Online (`phi` non-null) also writes back the advanced
  /// horizons of the shards that planned. Returns the objective sum.
  static double merge(const ShardPartition& partition,
                      std::vector<ShardOutcome>& outcomes,
                      sim::Schedule& schedule, std::vector<Time>* phi);

  [[nodiscard]] sim::Schedule plan(const sched::SchedulerInput& input,
                                   const std::vector<std::size_t>* order);

  ShardPlannerConfig config_;
  HierarchicalPlanInfo last_plan_;
  std::vector<WorkerScratch> worker_scratch_;
};

}  // namespace hare::shard
