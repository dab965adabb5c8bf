// hare::serve — long-lived streaming scheduler service.
//
// The offline pipeline plans a fixed JobSet once; the serving loop instead
// drains a time-ordered event stream (arrivals, failures, recoveries,
// cancellations) and keeps a single growing plan current by *incremental*
// replanning: every flushed admission batch is planned on top of the
// standing per-GPU commitment horizons phi, commitments are never revised,
// and phi advances monotonically — the same contract the online scheduler
// and the shard planner's online entry point obey. The one exception is an
// early JobComplete: committed tasks of the completed job that have not
// started yet will never run, so contiguous committed tails are popped and
// phi rolls back to the surviving tail's finish (a pure release — no
// surviving commitment moves).
//
// Replan paths, chosen per batch:
//  * Closed-form block (batches of at most `lp_max_batch_jobs` jobs) —
//    relax_batch relaxes the batch's own small LP block (below) and hands
//    middle completion times to HareScheduler::schedule_jobs_with_h.
//  * Flat fluid (larger batches) — HareScheduler::schedule_jobs with the
//    Fluid relaxation, exactly the OnlineHareScheduler path.
//  * Sharded (batches of at least `shard_min_batch_jobs`, when enabled) —
//    HierarchicalPlanner::schedule_online plans only the shards that
//    received batch jobs, with a bit-identical serial/pooled fan-out.
//  * Greedy fallback — once `replan_budget` non-greedy replans have been
//    spent, batches are list-scheduled in arrival order (h = arrival)
//    through the same placement code, so even the fallback is a valid
//    Algorithm-1 step-2 schedule.
//
// Fault semantics are planning-level (no re-simulation): the loop walks
// the fault::FaultPlan directly (machine events one GPU at a time,
// stragglers skipped). A GPU failure parks its horizon at
// core::kDeadHorizon (earliest-finish placement then never picks it, and
// the sharded path does not count it as shard capacity), tasks committed to it at or after the failure instant
// count as displaced, and each affected job's remaining rounds re-enter
// the stream as a *continuation job* arriving at the failure time.
// Recovery restores max(event time, pre-failure horizon). A cancellation
// that lands before its job is planned removes the job from every future
// batch (the JobSet row stays, keeping arrival-index == JobId).
//
// The batch block. Per job j with R_j rounds, start variables x_{j,r}
// and a completion C_j, bounded below by the release L_j = max(a_j,
// phi_floor) plus r fastest per-task totals t_j and chained by
// x_{j,r+1} - x_{j,r} >= t_j and C_j - x_{j,last} >= t_j, plus one
// aggregate parallel-load cut over the batch's tasks,
//
//   sum_j p_j sum_r x_{j,r}  >=  ((sum p)^2 - sum p^2) / (2 * alive GPUs),
//
// with p_j = tasks_per_round * t_j (the classic completion-time
// polymatroid bound). The objective is sum_j w_j C_j plus
// opt::perturbation_cost(k, n) on the k-th of the block's n variables
// (job-major), so its optimum is a unique vertex, and that vertex has a
// closed form: every chain at its release (x_{j,r} = L_j + r t_j) when the
// cut holds there; otherwise, since any feasible point is the release
// vertex plus non-negative shifts of chain suffixes and a whole chain is
// each job's cheapest suffix, the cut is a fractional knapsack over whole
// chains: the job with the least c_j / (R_j p_j), where c_j is w_j plus
// the perturbation of its R_j + 1 variables, shifts by the missing load
// over R_j p_j. relax_batch
// writes that vertex in O(block variables) with no solver; the tests solve
// the same block as an LP (testing::append_batch_block) with both simplex
// codes and compare. Values are snapped to the perturbation's 1e-6 grid
// (opt::snap_lp_value), which makes the two agree bit for bit except where
// a shifted start lies within rounding of a grid midpoint, where they may
// differ by one grid step.
//
// Determinism: for a fixed event stream the served schedule is
// bit-identical across serial and pooled execution. Blocks of different
// batches share no row or column, so each block's vertex is also the one
// it takes inside a program stacking every block of the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/hare_scheduler.hpp"
#include "fault/fault_plan.hpp"
#include "profiler/gpu_classes.hpp"
#include "profiler/time_table.hpp"
#include "serve/admission_batcher.hpp"
#include "shard/hierarchical_planner.hpp"
#include "sim/schedule.hpp"
#include "workload/job.hpp"
#include "workload/perf_model.hpp"
#include "workload/trace.hpp"

namespace hare::serve {

/// Per-batch relaxation counters. Every closed-form batch counts one block
/// in `batches` and `cold_solves`; the other four fields are always 0 (kept
/// so existing readers of these names still parse).
struct ReplannerStats {
  std::size_t batches = 0;      ///< blocks relaxed
  std::size_t warm_solves = 0;  ///< always 0
  std::size_t cold_solves = 0;  ///< blocks relaxed
  std::size_t warm_pivots = 0;  ///< always 0
  std::size_t cold_pivots = 0;  ///< always 0
  std::size_t compactions = 0;  ///< always 0
};

/// Write the batch block's optimal vertex as the middle completion time of
/// every task of every batch job into `h` (indexed by TaskId value; `h`
/// must already span the task array): h_i = x_{j,r} + max_m T^c_{j,m} / 2.
/// `phi_floor` is the earliest commitment horizon across alive GPUs (the
/// start lower bound) and `gpus_alive` the parallel capacity in the cut.
void relax_batch(const workload::JobSet& jobs, const profiler::TimeTable& times,
                 const std::vector<JobId>& batch, Time phi_floor,
                 std::size_t gpus_alive, std::vector<Time>& h);

struct ServeConfig {
  /// Admission batching window (seconds); 0 coalesces only simultaneous
  /// arrivals (arrival-time planning).
  Time tick = 0.0;
  /// Batches up to this many jobs take the closed-form block path; 0
  /// disables it (every batch plans flat/sharded).
  std::size_t lp_max_batch_jobs = 32;
  /// Non-greedy replans allowed before the greedy fallback takes over
  /// permanently; 0 = unlimited.
  std::size_t replan_budget = 0;
  /// Batches with at least this many plannable jobs use the sharded online
  /// planner; 0 = never shard.
  std::size_t shard_min_batch_jobs = 0;
  shard::ShardPlannerConfig shard{};
  /// Planner configuration for the flat and greedy paths (the relaxation
  /// mode is forced to Fluid, sync to Relaxed).
  core::HareConfig hare{};
};

struct ServeReport {
  sim::Schedule schedule;      ///< cumulative served plan
  double objective = 0.0;      ///< planned sum of weighted completions
  std::size_t arrivals = 0;    ///< stream arrivals admitted
  std::size_t planned_jobs = 0;
  /// Jobs held, because no GPU was alive, until the stream ended.
  std::size_t unplanned_jobs = 0;
  std::size_t batches = 0;     ///< planned (non-empty) batches
  std::size_t max_batch_jobs = 0;
  std::size_t canceled = 0;      ///< cancels that landed before planning
  std::size_t late_cancels = 0;  ///< cancels after the job was planned
  std::size_t completions = 0;
  std::size_t fault_events = 0;  ///< GPU failures + recoveries applied
  std::size_t displaced_tasks = 0;
  /// Committed tasks freed by early JobComplete events (horizon release).
  std::size_t released_tasks = 0;
  std::size_t continuations = 0;  ///< continuation jobs re-entered
  // Per-path batch counts.
  std::size_t lp_batches = 0;
  std::size_t flat_batches = 0;
  std::size_t sharded_batches = 0;
  std::size_t greedy_batches = 0;
  ReplannerStats lp;  ///< closed-form block counts
};

class ServeService {
 public:
  ServeService(const cluster::Cluster& cluster, workload::PerfModel perf,
               ServeConfig config);

  /// Drain a pull-based arrival stream (plus scripted fault events) to the
  /// end and return the served plan. A service instance serves one stream.
  ServeReport run(workload::TraceStream& stream,
                  const fault::FaultPlan& faults = {});

  /// Same, over an explicit arrival list (specs in nondecreasing arrival
  /// order) — the porting surface for the offline benches and tests.
  ServeReport run(const std::vector<workload::JobSpec>& arrivals,
                  const fault::FaultPlan& faults = {});

  /// Post-run instance state, for replaying the served schedule through
  /// the simulator or inspecting per-job outcomes.
  [[nodiscard]] const workload::JobSet& jobs() const { return jobs_; }
  [[nodiscard]] const profiler::TimeTable& times() const { return times_; }

 private:
  template <typename NextSpec>
  ServeReport serve(NextSpec&& next_spec, const fault::FaultPlan& faults);

  JobId admit(workload::JobSpec spec, AdmissionBatcher& batcher);
  void flush_batch(AdmissionBatcher& batcher);
  /// Apply one scripted event; GPU events act on `gpu` (the event's GPU,
  /// or one GPU of a machine event).
  void apply_event(const fault::FaultEvent& event, GpuId gpu,
                   AdmissionBatcher& batcher);
  void plan_batch(const std::vector<JobId>& plannable);

  const cluster::Cluster& cluster_;
  workload::PerfModel perf_;
  ServeConfig config_;

  workload::JobSet jobs_;
  profiler::GpuClasses classes_;
  profiler::TimeTable times_;  ///< one column per GPU class
  /// Interned row of each admitted shape (model, effective batch size,
  /// batches per task): a repeat shape binds to it instead of a new row.
  std::map<std::tuple<int, std::uint32_t, std::uint32_t>,
           profiler::TimeTable::RowId>
      row_of_shape_;
  sim::Schedule schedule_;
  core::HareScheduler::IncrementalState state_;
  std::vector<Time> saved_phi_;  ///< pre-failure horizons of dead GPUs
  std::vector<char> alive_;
  std::size_t alive_count_ = 0;  ///< GPUs with alive_ set
  std::vector<char> canceled_;   ///< admitted but never to be planned
  std::vector<char> planned_;
  std::vector<char> continued_;  ///< a continuation was already spawned
  std::vector<char> precanceled_;  ///< cancel seen before arrival (by index)
  std::vector<Time> h_;

  core::HareScheduler flat_;
  std::optional<shard::HierarchicalPlanner> sharded_;

  ServeReport report_;
  std::size_t replans_spent_ = 0;  ///< non-greedy replans so far
  bool ran_ = false;
};

}  // namespace hare::serve
