#include "opt/simplex.hpp"

#include <cmath>

#include "common/error.hpp"
#include "opt/revised_simplex.hpp"

namespace hare::opt {

namespace {

/// Perturbation scale: neighbouring offsets differ by δ, ten times the
/// solver's reduced-cost tolerance (1e-7), so the perturbed optimum is a
/// unique vertex; and δ·(2n + 2) stays far below any job weight, so the
/// perturbation only breaks ties among the unperturbed optima.
constexpr double kDelta = 1e-6;

}  // namespace

double perturbation_cost(std::size_t k, std::size_t n) {
  return kDelta * static_cast<double>(n + 2 + k);
}

double snap_lp_value(double v) { return std::round(v * 1e6) / 1e6; }

std::size_t LinearProgram::add_variable(double objective_coefficient) {
  objective_.push_back(objective_coefficient);
  lower_.push_back(0.0);
  upper_.push_back(kInfinity);
  return objective_.size() - 1;
}

void LinearProgram::set_objective(std::size_t var, double coefficient) {
  HARE_CHECK_MSG(var < objective_.size(),
                 "objective references unknown variable " << var);
  objective_[var] = coefficient;
}

void LinearProgram::set_bounds(std::size_t var, double lower, double upper) {
  HARE_CHECK_MSG(var < objective_.size(),
                 "bounds reference unknown variable " << var);
  HARE_CHECK_MSG(std::isfinite(lower),
                 "lower bound must be finite for variable " << var);
  HARE_CHECK_MSG(lower <= upper, "empty bound interval for variable " << var);
  lower_[var] = lower;
  upper_[var] = upper;
}

void LinearProgram::add_constraint(
    const std::vector<std::pair<std::size_t, double>>& terms, Relation rel,
    double rhs) {
  for (const auto& [var, coeff] : terms) {
    HARE_CHECK_MSG(var < objective_.size(),
                   "constraint references unknown variable " << var);
    (void)coeff;
  }
  nonzeros_ += terms.size();
  rows_.push_back(Row{terms, rel, rhs});
}

LpSolution LinearProgram::solve(std::size_t max_iterations,
                                LpIterationStats* stats) const {
  RevisedSimplex solver(*this);
  LpIterationStats local;
  LpSolution solution = solver.solve(max_iterations, &local);
  if (stats) *stats = local;
  return solution;
}

IncrementalLpSolver::IncrementalLpSolver(LinearProgram lp,
                                         std::vector<std::size_t> start_basis)
    : lp_(std::move(lp)), start_basis_(std::move(start_basis)) {}

IncrementalLpSolver::~IncrementalLpSolver() = default;
IncrementalLpSolver::IncrementalLpSolver(IncrementalLpSolver&&) noexcept =
    default;
IncrementalLpSolver& IncrementalLpSolver::operator=(
    IncrementalLpSolver&&) noexcept = default;

void IncrementalLpSolver::add_ge_constraint(
    const std::vector<std::pair<std::size_t, double>>& terms, double rhs) {
  lp_.add_constraint(terms, Relation::GreaterEqual, rhs);
  if (!start_basis_.empty()) {
    start_basis_.push_back(lp_.variable_count() + lp_.constraint_count() - 1);
  }
  if (simplex_ && simplex_->has_optimal_basis()) {
    simplex_->add_ge_row(terms, rhs);
  }
}

LpSolution IncrementalLpSolver::solve(std::size_t max_iterations) {
  stats_ = {};
  if (simplex_ && simplex_->has_optimal_basis()) {
    last_warm_ = true;
    LpSolution solution = simplex_->resolve(max_iterations, &stats_);
    if (solution.status != LpStatus::IterationLimit) return solution;
    // Numerical stall on the warm path: rebuild and solve cold.
    stats_ = {};
  }
  last_warm_ = false;
  simplex_ = std::make_unique<RevisedSimplex>(lp_);
  return simplex_->solve(max_iterations, &stats_, start_basis_);
}

}  // namespace hare::opt
