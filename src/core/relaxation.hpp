// Hare_Sched_RL relaxation solvers (§5.2 step 1).
//
// The paper relaxes the non-preemption constraint (8) into Queyranne's
// polyhedral constraint (9) and hands the resulting program to CPLEX /
// Gurobi. We provide two solvers:
//
//  * LpCuts — the honest reproduction for small/medium instances. Task→GPU
//    assignments ŷ are fixed by an earliest-finish greedy; given ŷ the
//    program in (x, C, per-round end variables) is a *linear* program whose
//    (9)-constraints over every machine-subset are added lazily: solve LP,
//    run Queyranne prefix separation per machine, add the violated cut,
//    repeat. This is exactly the cutting-plane treatment a commercial
//    solver applies. The program is written once, straight into one
//    opt::RevisedSimplex: variables x_i per task (index = task id), then
//    per job its round ends and its completion C_n, then the base rows;
//    each cut is one more row of that solver. Each round is one warm
//    re-solve of a program whose x_i costs carry
//    opt::perturbation_cost(i + 1, |tasks|), so the optimum is a unique
//    vertex; x̂ is that vertex snapped to the 1e-6 grid.
//  * Fluid — the scalable surrogate for cluster-size instances: one
//    earliest-finish-time list-scheduling pass over the precedence DAG
//    yields fluid start times x̂ directly in O(|D|·(log|D| + |M|)).
//
// Both produce the quantities Algorithm 1 consumes: x̂_i and the middle
// completion time H_i = x̂_i + max_m T^c_{i,m} / 2. Tests verify the two
// modes agree on the Fig 1 toy example and that the LP value lower-bounds
// the fluid schedule's cost under the same assignment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "profiler/time_table.hpp"
#include "workload/job.hpp"

namespace hare::core {

struct PlannerScratch;  // placement_index.hpp

enum class RelaxMode : std::uint8_t { Fluid, LpCuts };

/// Pivot/cut accounting for one solve→separate→add-cut round (LpCuts).
struct LpRoundStats {
  std::size_t cuts_added = 0;      ///< cuts appended before this solve
  std::size_t simplex_pivots = 0;  ///< pivots the solve needed
  bool warm = false;               ///< solve reused the previous basis
};

struct RelaxationResult {
  std::vector<Time> x_hat;      ///< relaxed start time per task (by id)
  std::vector<GpuId> y_hat;     ///< assignment used by the relaxation
  std::vector<Time> h;          ///< H_i = x̂_i + max_m T^c_{i,m} / 2
  /// Relaxed Σ w_n C_n (lower bound given ŷ), from the C values: the
  /// perturbation of the x costs is not part of it.
  double objective = 0.0;
  std::size_t cut_count = 0;    ///< Queyranne cuts added (LpCuts mode)
  std::size_t lp_solves = 0;    ///< LP solve→separate rounds (LpCuts mode)
  std::size_t simplex_pivots = 0;  ///< total pivots across primary rounds
  /// Of those, phase-1 (feasibility) pivots: 0 while every cold solve
  /// starts from the critical-path basis (opt::RevisedSimplex's start).
  std::size_t phase1_pivots = 0;
  std::size_t lp_factorizations = 0;  ///< basis LU factorizations, all rounds
  std::vector<LpRoundStats> lp_rounds;  ///< per-round accounting

  // LP shape (LpCuts mode): the final program, base rows plus appended
  // cuts; bound-style constraints live in the bound arrays and are absent
  // from all three numbers.
  std::size_t lp_rows = 0;
  std::size_t lp_cols = 0;
  std::size_t lp_nonzeros = 0;
  /// Always 0: every round is one solve of the perturbed program, with no
  /// second canonicalizing solve. Kept for readers of the field name.
  std::size_t canonical_pivots = 0;

  /// Separation-work accounting (LpCuts): task entries a full per-round
  /// re-sort would touch vs. the entries the incremental separator actually
  /// re-sorted; resorted/total is the fraction of sort work remaining.
  std::size_t sep_tasks_total = 0;
  std::size_t sep_tasks_resorted = 0;
};

struct RelaxationConfig {
  RelaxMode mode = RelaxMode::Fluid;
  /// LpCuts: stop after this many solve→separate rounds.
  std::size_t max_cut_rounds = 16;
  /// LpCuts: per-machine cut-violation tolerance.
  double cut_tolerance = 1e-6;
};

/// Optional sub-problem view for incremental (online) planning: only the
/// batch `jobs` are scheduled, and every GPU m is unavailable before
/// initial_phi[m] (prior commitments). The batch lists job ids in strictly
/// ascending order; jobs own contiguous task ranges, so a batch's tasks are
/// reached without a scan of the instance. Empty spans mean "all jobs" /
/// "all GPUs free at 0". Both spans are views: the caller keeps the batch
/// and the horizons alive for the call.
struct SubProblem {
  std::span<const JobId> jobs;
  std::span<const Time> initial_phi;

  [[nodiscard]] bool whole() const { return jobs.empty(); }
};

/// The fluid pass's job order over `batch` (every job when empty):
/// arrival-adjusted WSPT, a_n + (minimum possible total work) / w_n
/// ascending, ids breaking ties. The sharded planner's level 1 walks jobs
/// in the same order. O(batch log batch).
[[nodiscard]] std::vector<JobId> wspt_order(const workload::JobSet& jobs,
                                            const profiler::TimeTable& times,
                                            std::span<const JobId> batch);

/// Throws common::Error unless `batch` is strictly ascending (so free of
/// duplicates) and every id names a job of `jobs`. O(batch).
void check_batch(const workload::JobSet& jobs, std::span<const JobId> batch);

class HareRelaxation {
 public:
  explicit HareRelaxation(RelaxationConfig config = {}) : config_(config) {}

  /// `scratch` (optional) shares the φ-independent planning buffers — the
  /// fitting matrix and placement index — with the caller's list-scheduling
  /// pass. A batch sub-problem (Fluid only) returns task-indexed arrays
  /// that span the instance with only the batch's entries written;
  /// incremental planners use solve_batch instead.
  [[nodiscard]] RelaxationResult solve(
      const cluster::Cluster& cluster, const workload::JobSet& jobs,
      const profiler::TimeTable& times, const SubProblem& sub = {},
      PlannerScratch* scratch = nullptr) const;

  /// Fluid relaxation of `sub`'s batch into a standing `result`: its
  /// task-indexed x̂, ŷ and h grow (by appending) to span the instance and
  /// only the batch tasks' entries are written; every other entry keeps
  /// what earlier batches wrote. `result.objective` becomes the batch's
  /// relaxed objective. Costs O(batch tasks × placement + G) plus the
  /// append-only growth, never O(instance).
  void solve_batch(const cluster::Cluster& cluster,
                   const workload::JobSet& jobs,
                   const profiler::TimeTable& times, const SubProblem& sub,
                   PlannerScratch& scratch, RelaxationResult& result) const;

 private:
  [[nodiscard]] RelaxationResult solve_lp_cuts(
      const cluster::Cluster& cluster, const workload::JobSet& jobs,
      const profiler::TimeTable& times, const SubProblem& sub,
      PlannerScratch& scratch) const;

  RelaxationConfig config_;
};

}  // namespace hare::core
