// LP front end with two interchangeable simplex backends.
//
// Stands in for the commercial solver (CPLEX/Gurobi) the paper uses for the
// Hare_Sched_RL relaxation. Problems are stated in the natural form
//   minimize cᵀx   s.t.  aᵀx {<=,>=,=} b,  l <= x <= u
// (bounds default to x >= 0; single-variable release/bound constraints
// should be stated as bounds, not rows — they then never enter the row
// space of either backend).
//
// Backends:
//  * LpBackend::Sparse (default) — sparse revised simplex: column-sparse
//    matrix, LU-factorized basis with eta updates and periodic
//    refactorization, Devex pricing, native bounded variables. See
//    revised_simplex.hpp.
//  * LpBackend::Dense — the original dense two-phase tableau, kept as a
//    slow reference path for cross-checking. Bounded variables are handled
//    by shifting (x = l + x') plus internal upper-bound rows.
//  * LpBackend::Auto resolves to Sparse unless the HARE_LP_BACKEND
//    environment variable says "dense" (or "sparse").
//
// Both backends break every pricing/ratio/factorization tie to the lowest
// variable index, so each is deterministic run-to-run; they agree on the
// optimal objective to solver tolerance but may sit on different optimal
// vertices — callers that need a backend-independent point canonicalize on
// top (see core/relaxation.cpp).
//
// Two entry points:
//  * LinearProgram::solve() — one-shot cold solve (phase 1 + phase 2).
//  * IncrementalLpSolver — retains the optimal basis between solves so a
//    cutting-plane loop (solve → separate → add ≥-cut → re-solve) restores
//    feasibility with a handful of dual-simplex pivots instead of a cold
//    restart. This is the standard warm start a commercial solver applies
//    when rows are appended, and it is what makes the LpCuts relaxation
//    usable inside a continuously re-planning scheduler.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

namespace hare::opt {

enum class Relation { LessEqual, GreaterEqual, Equal };

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

enum class LpBackend { Auto, Dense, Sparse };

/// Resolve Auto against the HARE_LP_BACKEND environment variable
/// ("dense" / "sparse"); defaults to Sparse. Dense/Sparse pass through.
[[nodiscard]] LpBackend resolve_lp_backend(LpBackend requested);

[[nodiscard]] const char* lp_backend_name(LpBackend backend);

/// Sub-mode of the sparse backend.
///  * Classic — the plain revised simplex: dense triangular sweeps, full
///    Devex pricing scans, partial-pivoting LU. The reference the
///    hyper-sparse path is benchmarked against.
///  * Hyper — graph-driven FTRAN/BTRAN on sparse right-hand sides,
///    row-view pricing passes touching only the columns that intersect the
///    BTRAN nonzeros, candidate-list partial Devex pricing, and
///    Markowitz-style LU pivoting.
///  * Auto — resolve against HARE_LP_SPARSE_MODE ("classic"/"hyper");
///    otherwise the solver flips to Hyper only on wide LPs (see
///    RevisedSimplex), so the small cut/serve LPs keep their exact classic
///    trajectories.
enum class SparseMode { Auto, Classic, Hyper };

/// Resolve Auto against HARE_LP_SPARSE_MODE; an unset/unknown value keeps
/// Auto (solver-side width heuristic). Classic/Hyper pass through.
[[nodiscard]] SparseMode resolve_sparse_mode(SparseMode requested);

[[nodiscard]] const char* sparse_mode_name(SparseMode mode);

struct LpSolution {
  LpStatus status = LpStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> values;

  [[nodiscard]] bool optimal() const { return status == LpStatus::Optimal; }
};

/// Simplex pivot counts of one solve() call, split by phase. A warm-started
/// re-solve runs only dual (and possibly a few primal cleanup) pivots.
struct LpIterationStats {
  std::size_t phase1 = 0;  ///< feasibility pivots (cold solve only)
  std::size_t phase2 = 0;  ///< primal optimality pivots
  std::size_t dual = 0;    ///< dual pivots restoring feasibility after cuts

  [[nodiscard]] std::size_t total() const { return phase1 + phase2 + dual; }
};

class LinearProgram {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Add a variable with the given objective coefficient and bounds
  /// [0, +inf). Returns the variable's index.
  std::size_t add_variable(double objective_coefficient);

  /// Replace the variable's objective coefficient.
  void set_objective(std::size_t var, double coefficient);

  /// Set bounds lower <= x[var] <= upper. `lower` must be finite (both
  /// backends anchor nonbasic variables at their lower bound); `upper` may
  /// be kInfinity. lower == upper fixes the variable.
  void set_bounds(std::size_t var, double lower, double upper);

  /// Add a constraint sum(coeff[i] * x[var[i]]) rel rhs. Terms may repeat a
  /// variable; coefficients accumulate.
  void add_constraint(const std::vector<std::pair<std::size_t, double>>& terms,
                      Relation rel, double rhs);

  [[nodiscard]] std::size_t variable_count() const { return objective_.size(); }
  [[nodiscard]] std::size_t constraint_count() const { return rows_.size(); }

  /// Total constraint-matrix nonzeros across rows (bound entries excluded —
  /// that is the point of stating bounds as bounds).
  [[nodiscard]] std::size_t nonzero_count() const { return nonzeros_; }

  [[nodiscard]] double lower_bound(std::size_t var) const {
    return lower_[var];
  }
  [[nodiscard]] double upper_bound(std::size_t var) const {
    return upper_[var];
  }

  /// Minimize. `max_iterations` guards against cycling (Bland's rule is
  /// engaged automatically after a stall). `stats`, when given, receives
  /// the pivot counts of this solve.
  [[nodiscard]] LpSolution solve(std::size_t max_iterations = 100000,
                                 LpIterationStats* stats = nullptr,
                                 LpBackend backend = LpBackend::Auto) const;

 private:
  friend class IncrementalLpSolver;
  friend class RevisedSimplex;

  struct Row {
    std::vector<std::pair<std::size_t, double>> terms;
    Relation rel = Relation::LessEqual;
    double rhs = 0.0;
  };

  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Row> rows_;
  std::size_t nonzeros_ = 0;
};

/// Stateful solver for cutting-plane loops. Construct from a fully built
/// LinearProgram, call solve() (cold two-phase), then alternate
/// add_ge_constraint() / solve(): each re-solve starts from the retained
/// optimal basis and prices the appended rows in with dual-simplex pivots.
/// With `warm_start = false` the solver degrades to a cold two-phase solve
/// per call — the pre-warm-start reference path the perf bench compares
/// against.
class IncrementalLpSolver {
 public:
  explicit IncrementalLpSolver(const LinearProgram& lp, bool warm_start = true,
                               LpBackend backend = LpBackend::Auto);
  ~IncrementalLpSolver();
  IncrementalLpSolver(IncrementalLpSolver&&) noexcept;
  IncrementalLpSolver& operator=(IncrementalLpSolver&&) noexcept;

  /// Append `terms >= rhs`. Takes effect at the next solve().
  void add_ge_constraint(
      const std::vector<std::pair<std::size_t, double>>& terms, double rhs);

  /// Solve / re-solve. The first call is always a cold two-phase solve;
  /// later calls re-optimize from the previous basis when warm_start is on.
  [[nodiscard]] LpSolution solve(std::size_t max_iterations = 100000);

  /// Pivot counts of the most recent solve() call.
  [[nodiscard]] const LpIterationStats& last_stats() const;

  /// True when the most recent solve() reused the previous basis.
  [[nodiscard]] bool last_solve_was_warm() const;

  /// The backend this solver resolved to at construction.
  [[nodiscard]] LpBackend backend() const;

  /// Request a sparse-backend sub-mode (Classic/Hyper/Auto). Takes effect
  /// from the next cold solve; the dense backend ignores it.
  void set_sparse_mode(SparseMode mode);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hare::opt
