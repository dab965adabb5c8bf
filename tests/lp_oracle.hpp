// Independent LP oracle: a cold two-phase dense tableau simplex.
//
// Shares nothing with opt::RevisedSimplex beyond the row-form
// LinearProgram (linear_program.hpp) it reads. Lower bounds are shifted
// out (x = l + x'), finite upper bounds become explicit ≤ rows, every row
// gets a slack/surplus and — for ≥ and = rows — an artificial. Phase 1
// drives the artificials to zero, phase 2 minimizes the true objective
// with artificials banned from entering.
// Pricing is Dantzig (most positive reduced cost), and Bland's rule takes
// over after 64 non-improving pivots, so degenerate programs such as
// Beale's cycling example terminate. There is no warm start: every call
// solves from the all-slack basis.
//
// DenseBasisLU is the reference for opt::BasisLU: the same factors built
// by the plain dense left-looking sweep (every earlier step and every row,
// per column), with the library's FTRAN/BTRAN/update copied verbatim. The
// library's sparse factorization must match it bit for bit.
//
// append_batch_block is the reference for serve::relax_batch: it builds a
// serving batch's block as an explicit LP, which either simplex code then
// solves; the closed-form vertex must match the snapped solution.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "linear_program.hpp"
#include "opt/simplex.hpp"
#include "opt/sparse_matrix.hpp"
#include "profiler/time_table.hpp"
#include "workload/job.hpp"

namespace hare::testing {

/// Solve `lp` cold. `pivots`, when given, receives the pivot count.
[[nodiscard]] opt::LpSolution oracle_solve(const LinearProgram& lp,
                                           std::size_t max_iterations = 100000,
                                           std::size_t* pivots = nullptr);

/// Append `batch`'s serving block to `lp` (serve_service.hpp documents the
/// program): variables job-major (each job's rounds, then its completion),
/// chain rows, then the aggregate load cut. `round_vars[b][r]` receives the
/// index in `lp` of batch job b's round-r start variable. Appending several
/// blocks to one program builds the accumulated LP the blocks form side by
/// side.
void append_batch_block(LinearProgram& lp, const workload::JobSet& jobs,
                        const profiler::TimeTable& times,
                        const std::vector<JobId>& batch, Time phi_floor,
                        std::size_t gpus_alive,
                        std::vector<std::vector<std::size_t>>& round_vars);

class DenseBasisLU {
 public:
  /// Θ(m²) dense sweep; same contract as opt::BasisLU::factorize.
  [[nodiscard]] bool factorize(const opt::SparseMatrix& A,
                               const std::vector<int>& basis);
  void ftran(const std::vector<double>& v, std::vector<double>& out) const;
  void btran(const std::vector<double>& v, std::vector<double>& out) const;
  [[nodiscard]] bool update(int p, const std::vector<double>& spike);

  /// Elimination steps, over every factorize() so far, whose pivot row the
  /// column reached but which the sweep skipped because the value had
  /// cancelled to exactly 0.0 — evidence that a test covers that case.
  [[nodiscard]] std::size_t exact_cancellations() const {
    return cancellations_;
  }

 private:
  struct Eta {
    int position = 0;
    double pivot = 0.0;
    std::vector<opt::SparseEntry> other;
  };

  int m_ = 0;
  std::vector<int> prow_;
  std::vector<double> udiag_;
  std::vector<std::vector<opt::SparseEntry>> lcol_;
  std::vector<std::vector<opt::SparseEntry>> ucol_;
  std::vector<Eta> etas_;
  mutable std::vector<double> work_;
  std::size_t cancellations_ = 0;
};

}  // namespace hare::testing
