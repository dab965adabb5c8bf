// Sparse revised simplex with bounded variables — the engine behind
// LinearProgram::solve() and IncrementalLpSolver.
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
//  * Cold solve: from a caller's start basis when it is usable (m distinct
//    columns, nonsingular), else from the all-logical basis. Composite
//    phase 1 (piecewise infeasibility objective, recomputed each iteration)
//    runs only while the start is primal infeasible, so a feasible start
//    basis goes straight to the Devex-priced primal phase 2. The LpCuts
//    relaxation passes the critical-path vertex of its base rows, which is
//    feasible and, on the testbed batches, already optimal.
//  * Warm re-solve: appended ≥-cut rows get their logicals basic, which
//    keeps the old duals exactly (the extended basis is block triangular);
//    one refactorization then dual-simplex pivots restore primal
//    feasibility.
//  * Determinism: every tie (pricing, ratio tests, LU pivoting) breaks to
//    the lowest variable/row index, so repeated runs — and the planner
//    schedules built on top — are bit-reproducible.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "opt/basis_lu.hpp"
#include "opt/simplex.hpp"
#include "opt/sparse_matrix.hpp"

namespace hare::opt {

class RevisedSimplex {
 public:
  /// Snapshot the program (structural columns + bounds + base rows).
  explicit RevisedSimplex(const LinearProgram& lp);

  /// Cold solve: composite phase 1 + Devex phase 2. `stats`, when given,
  /// accumulates pivot counts. `start`, when non-empty, names the basic
  /// column of each basis position (structural j < n, logical of row i at
  /// n + i); nonbasic columns sit at their lower bound, or at their upper
  /// bound when they have no finite lower one (≥-row logicals). A start of
  /// the wrong size, with a repeated or unknown column, or singular falls
  /// back to the all-logical basis.
  [[nodiscard]] LpSolution solve(std::size_t max_iterations,
                                 LpIterationStats* stats = nullptr,
                                 std::span<const std::size_t> start = {});

  /// Append `terms >= rhs` as a new row. Cheap: touches only the cut's
  /// columns plus one new logical. Requires a prior optimal solve when the
  /// retained basis is to be reused via resolve().
  void add_ge_row(const std::vector<std::pair<std::size_t, double>>& terms,
                  double rhs);

  /// Warm re-solve after add_ge_row(): refactorize the extended basis and
  /// run dual-simplex pivots on the appended rows. Fails with Infeasible /
  /// IterationLimit like solve(), and with IterationLimit when the extended
  /// basis does not factorize; callers may cold-restart on failure.
  [[nodiscard]] LpSolution resolve(std::size_t max_iterations,
                                   LpIterationStats* stats = nullptr);

  [[nodiscard]] bool has_optimal_basis() const { return basis_valid_; }

  [[nodiscard]] int row_count() const { return m_; }
  [[nodiscard]] int structural_count() const { return n_; }
  [[nodiscard]] std::size_t nonzeros() const { return A_.nonzeros(); }

 private:
  enum class VarStatus : unsigned char { Basic, AtLower, AtUpper };

  // Problem in standard form. m_ rows, n_ structural variables. Columns
  // are [structural 0..n_-1 | logical per row], so row i's logical is
  // column n_ + i (appended rows' logicals join the tail in row order).
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
  /// Factorization count of the running solve()/resolve() call, or null.
  std::size_t* factorizations_ = nullptr;
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
  [[nodiscard]] LpSolution extract() const;
};

}  // namespace hare::opt
