// LP front end over one simplex engine.
//
// Stands in for the commercial solver (CPLEX/Gurobi) the paper uses for the
// Hare_Sched_RL relaxation. Problems are stated in the natural form
//   minimize cᵀx   s.t.  aᵀx {<=,>=,=} b,  l <= x <= u
// (bounds default to x >= 0; single-variable release/bound constraints
// should be stated as bounds, not rows — they then never enter the row
// space). The engine is the sparse revised simplex of revised_simplex.hpp:
// column-sparse matrix, LU-factorized basis with eta updates and periodic
// refactorization, Devex pricing, native bounded variables. Every pricing,
// ratio-test and factorization tie breaks to the lowest index, so solves
// are deterministic run to run.
//
// Unique vertex. The planner and serve LPs are degenerate: many optimal
// vertices, and which one a simplex run reports depends on its pivot path
// (cold or warm, cuts appended in one round or several). Callers that hand
// the vertex on add perturbation_cost(k, n) to the cost of the k-th of
// their n start variables and snap the extracted values with
// snap_lp_value(). Neighbouring perturbed costs differ by δ = 1e-6, ten
// times the solver's reduced-cost tolerance, so the perturbed optimum is a
// single vertex whatever the pivot path, and the snap collapses last-ulp
// arithmetic differences to identical doubles.
//
// Two entry points:
//  * LinearProgram::solve() — one-shot cold solve (phase 1 + phase 2) from
//    the all-logical (slack) basis.
//  * IncrementalLpSolver — retains the optimal basis between solves so a
//    cutting-plane loop (solve → separate → add ≥-cut → re-solve) restores
//    feasibility with a handful of dual-simplex pivots instead of a cold
//    restart. This is the standard warm start a commercial solver applies
//    when rows are appended, and it is what makes the LpCuts relaxation
//    usable inside a continuously re-planning scheduler. Its cold solve can
//    start from a caller's basis: the LpCuts relaxation hands it the
//    critical-path vertex of its base rows (every task as early as its
//    round allows, every round ending at its slowest task), which is primal
//    feasible, so phase 1 does not run. Phase 1 still runs from the slack
//    basis when no start basis is given or the given one is unusable, and
//    from a usable start that is not primal feasible.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace hare::opt {

enum class Relation { LessEqual, GreaterEqual, Equal };

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

class RevisedSimplex;

/// Cost offset δ·(n + 2 + k), δ = 1e-6, for the k-th (1-based) of n
/// perturbed variables. Offsets are distinct, positive, and δ apart.
[[nodiscard]] double perturbation_cost(std::size_t k, std::size_t n);

/// Snap an extracted LP value to the 1e-6 grid the perturbation resolves.
[[nodiscard]] double snap_lp_value(double v);

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
  /// Basis LU factorizations (initial, warm-start and periodic); not pivots.
  std::size_t factorizations = 0;

  [[nodiscard]] std::size_t total() const { return phase1 + phase2 + dual; }
};

class LinearProgram {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// One constraint row: sum(coeff * x[var]) rel rhs.
  struct Row {
    std::vector<std::pair<std::size_t, double>> terms;
    Relation rel = Relation::LessEqual;
    double rhs = 0.0;
  };

  /// Add a variable with the given objective coefficient and bounds
  /// [0, +inf). Returns the variable's index.
  std::size_t add_variable(double objective_coefficient);

  /// Replace the variable's objective coefficient.
  void set_objective(std::size_t var, double coefficient);

  /// Set bounds lower <= x[var] <= upper. `lower` must be finite (nonbasic
  /// variables are anchored at their lower bound); `upper` may be
  /// kInfinity. lower == upper fixes the variable.
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

  [[nodiscard]] double objective(std::size_t var) const {
    return objective_[var];
  }
  [[nodiscard]] double lower_bound(std::size_t var) const {
    return lower_[var];
  }
  [[nodiscard]] double upper_bound(std::size_t var) const {
    return upper_[var];
  }
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  /// Minimize. `max_iterations` guards against cycling (Bland's rule is
  /// engaged automatically after a stall). `stats`, when given, receives
  /// the pivot counts of this solve.
  [[nodiscard]] LpSolution solve(std::size_t max_iterations = 100000,
                                 LpIterationStats* stats = nullptr) const;

 private:
  friend class RevisedSimplex;

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
/// A warm re-solve that stalls numerically falls back to a cold solve of
/// the whole program.
class IncrementalLpSolver {
 public:
  /// `start_basis`, when non-empty, is the cold solve's starting basis over
  /// the program's rows: the basic column of each basis position, where
  /// column j < variable_count() is variable j and column
  /// variable_count() + i is row i's logical (slack). Rows appended later
  /// get their logicals basic, so a cold restart after a warm-path stall
  /// starts from the same basis. A start basis of the wrong size, with a
  /// repeated or unknown column, or singular is ignored: the cold solve
  /// then starts from the all-logical basis.
  explicit IncrementalLpSolver(LinearProgram lp,
                               std::vector<std::size_t> start_basis = {});
  ~IncrementalLpSolver();
  IncrementalLpSolver(IncrementalLpSolver&&) noexcept;
  IncrementalLpSolver& operator=(IncrementalLpSolver&&) noexcept;

  /// Append `terms >= rhs`. Takes effect at the next solve().
  void add_ge_constraint(
      const std::vector<std::pair<std::size_t, double>>& terms, double rhs);

  /// Solve / re-solve. The first call is always a cold solve (from the
  /// start basis when one was given); later calls re-optimize from the
  /// previous basis.
  [[nodiscard]] LpSolution solve(std::size_t max_iterations = 100000);

  /// Pivot counts of the most recent solve() call.
  [[nodiscard]] const LpIterationStats& last_stats() const { return stats_; }

  /// True when the most recent solve() reused the previous basis.
  [[nodiscard]] bool last_solve_was_warm() const { return last_warm_; }

  /// The program as solved so far: the base rows plus every appended cut.
  [[nodiscard]] const LinearProgram& program() const& { return lp_; }
  [[nodiscard]] LinearProgram program() && { return std::move(lp_); }

 private:
  LinearProgram lp_;
  std::vector<std::size_t> start_basis_;
  std::unique_ptr<RevisedSimplex> simplex_;
  LpIterationStats stats_;
  bool last_warm_ = false;
};

}  // namespace hare::opt
