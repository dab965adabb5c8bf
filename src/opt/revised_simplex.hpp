// Sparse revised simplex with bounded variables — the LpBackend::Sparse
// engine behind LinearProgram::solve() and IncrementalLpSolver.
//
// The dense tableau recomputes every row × column per pivot; this solver
// keeps the constraint matrix in column-sparse form (see SparseMatrix) and
// works against an LU-factorized basis (see BasisLU), so one pivot costs a
// pair of sparse triangular solves plus one pass over the matrix nonzeros
// instead of O(rows · cols) dense arithmetic.
//
//  * Standard form: one logical column per row (a·x + s = b) with bounds
//    [0,∞) for ≤, (−∞,0] for ≥, [0,0] for =. Single-variable bound rows
//    never reach this solver — relaxation.cpp states them as variable
//    bounds, which live in the bound arrays, not the row space.
//  * Cold solve: composite phase 1 from the all-logical basis (piecewise
//    infeasibility objective, recomputed each iteration), then Devex-priced
//    primal phase 2.
//  * Warm re-solve: appended ≥-cut rows get their logicals basic, which
//    keeps the old duals exactly (the extended basis is block triangular);
//    one refactorization then dual-simplex pivots restore primal
//    feasibility.
//  * Determinism: every tie (pricing, ratio tests, LU pivoting) breaks to
//    the lowest variable/row index, so repeated runs — and the planner
//    schedules built on top — are bit-reproducible.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/basis_lu.hpp"
#include "opt/simplex.hpp"
#include "opt/sparse_matrix.hpp"

namespace hare::opt {

class RevisedSimplex {
 public:
  /// Hyper-sparse auto-enable heuristic: the LP must have at least this
  /// many columns and be at least this many times wider than tall. Wide
  /// LPs are where full pricing scans dominate; everything narrower keeps
  /// the classic path (and its exact pivot trajectory).
  static constexpr int kHyperMinCols = 4096;
  static constexpr int kHyperWideFactor = 8;

  /// Snapshot the program (structural columns + bounds + base rows).
  explicit RevisedSimplex(const LinearProgram& lp);

  /// Select the sparse sub-mode (Classic/Hyper/Auto). Must be called
  /// before the first solve(); the resolved choice is sticky for the
  /// lifetime of the solver so warm re-solves stay on one path.
  void set_sparse_mode(SparseMode mode) { mode_ = mode; }

  /// True once the solver has resolved to the hyper-sparse path.
  [[nodiscard]] bool hyper_enabled() const { return hyper_; }

  /// Cold solve: composite phase 1 + Devex phase 2. `stats`, when given,
  /// accumulates pivot counts.
  [[nodiscard]] LpSolution solve(std::size_t max_iterations,
                                 LpIterationStats* stats = nullptr);

  /// Append `terms >= rhs` as a new row. Cheap: touches only the cut's
  /// columns plus one new logical. Requires a prior optimal solve when the
  /// retained basis is to be reused via resolve().
  void add_ge_row(const std::vector<std::pair<std::size_t, double>>& terms,
                  double rhs);

  /// Warm re-solve after add_ge_row(): refactorize the extended basis and
  /// run dual-simplex pivots on the appended rows. Falls back to Infeasible
  /// / IterationLimit like solve(); callers may cold-restart on failure.
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
  bool basis_valid_ = false;
  bool rows_appended_ = false;

  // Scratch (avoids per-iteration allocation).
  std::vector<double> col_buf_;   ///< dense row-indexed scatter buffer
  std::vector<double> spike_;     ///< B⁻¹ a_q by position
  std::vector<double> rho_;       ///< B⁻ᵀ e_r by row
  std::vector<double> pos_buf_;   ///< position-indexed scratch
  std::vector<double> y_;         ///< duals by row

  // Hyper-sparse state. spike_nz_/rho_nz_/y_nz_ list the nonzeros of the
  // latest FTRAN/BTRAN results (ascending); acc_ + acc_cols_ implement the
  // row-view pricing pass; cand_ is the partial-pricing candidate list.
  SparseMode mode_ = SparseMode::Auto;
  bool mode_resolved_ = false;
  bool hyper_ = false;
  std::vector<int> spike_nz_;
  std::vector<int> rho_nz_;
  std::vector<int> y_nz_;
  std::vector<int> tmp_rows_;
  std::vector<int> tmp_pos_;
  std::vector<int> all_pos_;      ///< identity list 0..m-1 for classic loops
  std::vector<double> acc_;
  std::vector<char> acc_mark_;
  std::vector<int> acc_cols_;
  std::vector<int> cand_;

  enum class PivotResult { Ok, Refactored, Failed };

  [[nodiscard]] int total_cols() const { return n_ + m_; }
  [[nodiscard]] bool is_fixed(int j) const;
  [[nodiscard]] double nonbasic_value(int j) const;

  [[nodiscard]] bool refactorize();
  void compute_xb();
  void compute_duals();
  void ftran_column(int j);      ///< spike_ := B⁻¹ a_j
  void btran_row(int position);  ///< rho_ := B⁻ᵀ e_position

  /// Resolve mode_ once (env + width heuristic) and arm the LU/row view.
  void resolve_mode();
  /// Positions to scan after ftran_column: spike nonzeros in hyper mode,
  /// the identity list otherwise (the classic full sweep).
  [[nodiscard]] const std::vector<int>& spike_positions();
  /// Row-view pass: acc_[j] := Σ_r w[r]·A[r,j] over the listed rows, with
  /// touched columns collected into acc_cols_ (sorted ascending).
  void row_pass(const std::vector<double>& w, const std::vector<int>& rows);
  void clear_row_pass();
  /// Partial Devex pricing over the candidate list; prunes unattractive
  /// entries in place. Returns the entering column or -1.
  int price_candidates(double& sigma);
  void refill_candidates();

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
