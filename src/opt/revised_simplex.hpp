// Sparse revised simplex with bounded variables — the repo's one LP solver
// and the one place an LP program lives.
//
// Callers state a program straight into the solver's column store with the
// builder (add_variable, set_bounds, add_row) and then alternate solve()
// with appended rows: the cutting-plane loop of the LpCuts relaxation
// (solve → separate → add ≥-cut → re-solve). The store is laid out as
//   [structural 0..n-1 | logical of row 0 | logical of row 1 | ...],
// so every variable precedes every row, row i's logical is column n + i,
// and each column holds its entries in row order.
//
// The constraint matrix lives in column-sparse form (see SparseMatrix) and
// the solver works against an LU-factorized basis (see BasisLU), so one
// pivot costs a pair of sparse triangular solves plus one pass over the
// matrix nonzeros instead of O(rows · cols) tableau arithmetic.
//
//  * Standard form: one logical column per row (a·x + s = b) with bounds
//    [0,∞) for ≤, (−∞,0] for ≥, [0,0] for =. Single-variable bound rows
//    never reach this solver — relaxation.cpp states them as variable
//    bounds, which live in the bound arrays, not the row space.
//  * Cold solve (the first solve()): from the start basis when one is set
//    and usable (m distinct columns, nonsingular), else from the
//    all-logical basis. Composite phase 1 (piecewise infeasibility
//    objective, recomputed each iteration) runs only while the start is
//    primal infeasible, so a feasible start basis goes straight to the
//    Devex-priced primal phase 2. The LpCuts relaxation sets the
//    critical-path vertex of its base rows, which is feasible and, on the
//    testbed batches, already optimal.
//  * Warm re-solve (every later solve() after an optimal one): appended
//    rows get their logicals basic, which keeps the old duals exactly (the
//    extended basis is block triangular); one refactorization then
//    dual-simplex pivots restore primal feasibility. This is the standard
//    warm start a commercial solver applies when rows are appended. A warm
//    re-solve that stalls (IterationLimit) re-solves cold from the start
//    basis on the same, already-extended store.
//  * Determinism: every tie (pricing, ratio tests, LU pivoting) breaks to
//    the lowest variable/row index, so repeated runs — and the planner
//    schedules built on top — are bit-reproducible.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "opt/basis_lu.hpp"
#include "opt/simplex.hpp"
#include "opt/sparse_matrix.hpp"

namespace hare::opt {

class RevisedSimplex {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// One row term: coefficient times variable.
  using Term = std::pair<std::size_t, double>;

  /// Add a variable with cost `cost` and bounds [0, +inf); returns its
  /// index. Variables come before rows: adding one after a row throws
  /// common::Error.
  std::size_t add_variable(double cost);

  /// Set bounds lower <= x[var] <= upper. `lower` must be finite (nonbasic
  /// variables are anchored at their lower bound); `upper` may be
  /// kInfinity. lower == upper fixes the variable.
  void set_bounds(std::size_t var, double lower, double upper);

  /// Add the row sum(coeff · x[var]) rel rhs, with its logical at column
  /// structural_count() + row. Terms may repeat a variable; coefficients
  /// accumulate. After an optimal solve the logical joins the basis, and
  /// the next solve() prices the row in warm; once a start basis is set,
  /// the logical also joins it.
  void add_row(std::span<const Term> terms, Relation rel, double rhs);

  /// The cold solve's start basis over the rows added so far: the basic
  /// column of each basis position (structural j < n, logical of row i at
  /// n + i). Nonbasic columns sit at their lower bound, or at their upper
  /// bound when they have no finite lower one (≥-row logicals). A start of
  /// the wrong size, with a repeated or unknown column, or singular falls
  /// back to the all-logical basis.
  void set_start_basis(std::vector<std::size_t> start);

  /// Minimize. The first call solves cold (from the start basis when one
  /// is set); a call after an optimal solve re-optimizes from its basis and
  /// falls back to a cold solve of the whole store when that stalls.
  /// `max_iterations` caps each phase's pivots (Bland's rule engages
  /// automatically after a degenerate stall).
  [[nodiscard]] LpSolution solve(std::size_t max_iterations = 100000);

  /// Pivot counts of the most recent solve() call.
  [[nodiscard]] const LpIterationStats& last_stats() const { return stats_; }

  /// True when the most recent solve() reused the previous basis.
  [[nodiscard]] bool last_solve_was_warm() const { return last_warm_; }

  [[nodiscard]] int row_count() const { return m_; }
  [[nodiscard]] int structural_count() const { return n_; }
  /// Column-store nonzeros, one logical entry per row included (a
  /// repeated variable's terms count once).
  [[nodiscard]] std::size_t nonzeros() const { return A_.nonzeros(); }

 private:
  enum class VarStatus : unsigned char { Basic, AtLower, AtUpper };

  // Problem in standard form. m_ rows, n_ structural variables. Columns
  // are [structural 0..n_-1 | logical per row], so row i's logical is
  // column n_ + i.
  int m_ = 0;
  int n_ = 0;
  SparseMatrix A_;
  std::vector<double> cost_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> rhs_;

  // Basis state.
  std::vector<int> basis_;        ///< variable at each basis position
  std::vector<int> pos_of_;       ///< basis position per variable, -1 nonbasic
  std::vector<VarStatus> vstat_;
  std::vector<double> xb_;        ///< basic values by position
  std::vector<double> dual_;      ///< reduced costs per column
  std::vector<double> devex_;     ///< Devex reference weights per column
  BasisLU lu_;
  std::vector<std::size_t> start_basis_;  ///< cold start; empty = slack
  LpIterationStats stats_;
  bool last_warm_ = false;
  bool basis_valid_ = false;
  bool rows_appended_ = false;

  // Scratch (avoids per-iteration allocation).
  std::vector<double> col_buf_;   ///< dense row-indexed scatter buffer
  std::vector<double> spike_;     ///< B⁻¹ a_q by position
  std::vector<double> rho_;       ///< B⁻ᵀ e_r by row
  std::vector<double> pos_buf_;   ///< position-indexed scratch
  std::vector<double> y_;         ///< duals by row
  /// Dual phase: the nonzero α_rj = (B⁻ᵀe_r)·a_j of the nonbasic columns.
  std::vector<std::pair<int, double>> alpha_row_;

  enum class PivotResult { Ok, Refactored, Failed };

  [[nodiscard]] int total_cols() const { return n_ + m_; }
  [[nodiscard]] bool is_fixed(int j) const;
  [[nodiscard]] double nonbasic_value(int j) const;

  /// Set the basis to `start` (all logicals when empty) and put every
  /// nonbasic column at a finite bound. False, with nothing usable, when
  /// `start` is not m distinct columns of the program.
  [[nodiscard]] bool install_basis(std::span<const std::size_t> start);
  [[nodiscard]] bool refactorize();
  void compute_xb();
  void compute_duals();
  void ftran_column(int j);      ///< spike_ := B⁻¹ a_j
  void btran_row(int position);  ///< rho_ := B⁻ᵀ e_position

  /// Basis exchange at `position`: entering `enter` moved by signed step
  /// `sigma * step` (spike_ must hold B⁻¹a_enter); the leaving variable
  /// settles at `leaving_status`. Handles xb sweep, bookkeeping, and the
  /// LU eta update / refactorization.
  [[nodiscard]] PivotResult pivot_exchange(int position, int enter,
                                           double sigma, double step,
                                           VarStatus leaving_status);
  void bound_flip(int var, double sigma, double step);

  [[nodiscard]] LpStatus phase1(std::size_t max_iterations,
                                std::size_t* pivots);
  [[nodiscard]] LpStatus phase2(std::size_t max_iterations,
                                std::size_t* pivots);
  [[nodiscard]] LpStatus dual_phase(std::size_t max_iterations,
                                    std::size_t* pivots);
  /// Phase 1 + phase 2 from the start basis.
  [[nodiscard]] LpSolution cold_solve(std::size_t max_iterations);
  /// Refactorize after appended rows, then dual + cleanup primal pivots.
  /// IterationLimit also when the extended basis does not factorize.
  [[nodiscard]] LpSolution warm_solve(std::size_t max_iterations);
  [[nodiscard]] LpSolution extract() const;
};

}  // namespace hare::opt
