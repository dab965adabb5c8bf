// LP relaxation of one admission batch at a time.
//
// Each flushed batch is relaxed as its own small LP: per job, a start
// variable x_{j,r} per round and a completion variable C_j, chained by
// round-precedence rows x_{j,r+1} - x_{j,r} >= T_j and
// C_j - x_{j,last} >= T_j (T_j = the job's fastest per-task total), plus
// one aggregate parallel-load cut per batch,
//
//   sum_i p_i x_i  >=  ((sum p)^2 - sum p^2) / (2 * alive GPUs),
//
// the classic completion-time polymatroid bound with p_i = T_j per task.
// The objective is sum_j w_j C_j plus opt::perturbation_cost(k, n) on the
// k-th of the block's n variables (job-major). Neighbouring perturbed costs
// differ by 1e-6, ten times the simplex's reduced-cost tolerance, so the
// perturbed optimum is a unique vertex whatever the pivot path, and
// opt::snap_lp_value makes the hand-off bit-identical.
//
// Blocks of different batches share no row or column, so solving each
// block alone yields exactly the vertex the block takes inside any program
// that stacks several blocks side by side (tests/test_serve.cpp checks
// this against such an accumulated program). Nothing is retained between
// batches: a failed solve affects only its own batch, and fault events
// reach later blocks only through their bounds and the cut denominator.
//
// The block's solution feeds Algorithm 1 step 2 unchanged: middle
// completion times h_i = x_{j,r} + max_m T^c_{j,m}/2 go to
// HareScheduler::schedule_jobs_with_h, so placement semantics match every
// other planner path in the repo.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "opt/simplex.hpp"
#include "profiler/time_table.hpp"
#include "workload/job.hpp"

namespace hare::serve {

/// Per-batch LP counters. Every batch is one cold two-phase solve of its
/// own block, so `cold_solves` counts every LP batch and `cold_pivots` all
/// of their pivots; `warm_solves`, `warm_pivots` and `compactions` are
/// always 0 (kept so existing readers of these names still parse).
struct ReplannerStats {
  std::size_t batches = 0;      ///< blocks relaxed
  std::size_t warm_solves = 0;  ///< always 0
  std::size_t cold_solves = 0;  ///< block solves, one per relaxed batch
  std::size_t warm_pivots = 0;  ///< always 0
  std::size_t cold_pivots = 0;  ///< pivots spent in block solves
  std::size_t compactions = 0;  ///< always 0
};

class IncrementalReplanner {
 public:
  /// Build and solve `batch`'s block, then write the middle completion
  /// time of every task of every batch job into `h` (indexed by TaskId
  /// value; `h` must already span the task array). `phi_floor` is the
  /// earliest commitment horizon across alive GPUs (start lower bound) and
  /// `gpus_alive` the parallel capacity in the aggregate cut. Returns false
  /// when the solve failed (caller falls back to a flat replan).
  [[nodiscard]] bool relax_batch(const workload::JobSet& jobs,
                                 const profiler::TimeTable& times,
                                 const std::vector<JobId>& batch,
                                 Time phi_floor, std::size_t gpus_alive,
                                 std::vector<Time>& h);

  [[nodiscard]] const ReplannerStats& stats() const { return stats_; }

 private:
  ReplannerStats stats_;
};

/// Append `batch`'s block to `lp`: variables job-major (each job's rounds,
/// then its completion), chain rows, then the aggregate load cut.
/// `round_vars[b][r]` receives the index in `lp` of batch job b's round-r
/// start variable. relax_batch solves this block alone in a fresh program;
/// appending several blocks to one program rebuilds the accumulated LP the
/// blocks would form side by side (the oracle the tests compare against).
void append_batch_block(opt::LinearProgram& lp, const workload::JobSet& jobs,
                        const profiler::TimeTable& times,
                        const std::vector<JobId>& batch, Time phi_floor,
                        std::size_t gpus_alive,
                        std::vector<std::vector<std::size_t>>& round_vars);

}  // namespace hare::serve
