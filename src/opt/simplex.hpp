// LP vocabulary shared by the solver and its callers.
//
// Stands in for the commercial solver (CPLEX/Gurobi) the paper uses for the
// Hare_Sched_RL relaxation. Problems are stated in the natural form
//   minimize cᵀx   s.t.  aᵀx {<=,>=,=} b,  l <= x <= u
// (bounds default to x >= 0; single-variable release/bound constraints
// should be stated as bounds, not rows — they then never enter the row
// space), straight into the one solver, opt::RevisedSimplex
// (revised_simplex.hpp), which owns the program's only representation.
//
// Unique vertex. The planner LP is degenerate: many optimal vertices, and
// which one a simplex run reports depends on its pivot path (cold or warm,
// cuts appended in one round or several). Callers that hand the vertex on
// add perturbation_cost(k, n) to the cost of the k-th of their n start
// variables and snap the extracted values with snap_lp_value().
// Neighbouring perturbed costs differ by δ = 1e-6, ten times the solver's
// reduced-cost tolerance, so the perturbed optimum is a single vertex
// whatever the pivot path, and the snap collapses last-ulp arithmetic
// differences to identical doubles.
#pragma once

#include <cstddef>
#include <vector>

namespace hare::opt {

enum class Relation { LessEqual, GreaterEqual, Equal };

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

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

}  // namespace hare::opt
