#include "linear_program.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hare::testing {

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
    const std::vector<std::pair<std::size_t, double>>& terms,
    opt::Relation rel, double rhs) {
  for (const auto& term : terms) {
    HARE_CHECK_MSG(term.first < objective_.size(),
                   "constraint references unknown variable " << term.first);
  }
  nonzeros_ += terms.size();
  rows_.push_back(Row{terms, rel, rhs});
}

opt::RevisedSimplex LinearProgram::to_solver() const {
  opt::RevisedSimplex solver;
  for (std::size_t j = 0; j < objective_.size(); ++j) {
    solver.add_variable(objective_[j]);
    solver.set_bounds(j, lower_[j], upper_[j]);
  }
  for (const Row& row : rows_) solver.add_row(row.terms, row.rel, row.rhs);
  return solver;
}

opt::LpSolution LinearProgram::solve(std::size_t max_iterations,
                                     opt::LpIterationStats* stats) const {
  opt::RevisedSimplex solver = to_solver();
  opt::LpSolution solution = solver.solve(max_iterations);
  if (stats) *stats = solver.last_stats();
  return solution;
}

}  // namespace hare::testing
