// Row-form LP programs for tests and oracles.
//
// The library states its programs straight into opt::RevisedSimplex's
// column store. Tests and oracles state theirs here instead, one row per
// constraint, so they can read a program back, copy it, edit its costs or
// cut it down to a prefix of its rows, and hand it to the independent
// dense oracle (lp_oracle.hpp) as well as to the library solver. to_solver()
// feeds a program through the solver's builder: every variable, then every
// row in order, which is the layout the library's own builds produce.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "opt/revised_simplex.hpp"
#include "opt/simplex.hpp"

namespace hare::testing {

class LinearProgram {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// One constraint row: sum(coeff * x[var]) rel rhs.
  struct Row {
    std::vector<std::pair<std::size_t, double>> terms;
    opt::Relation rel = opt::Relation::LessEqual;
    double rhs = 0.0;
  };

  /// Add a variable with the given objective coefficient and bounds
  /// [0, +inf). Returns the variable's index.
  std::size_t add_variable(double objective_coefficient);

  /// Replace the variable's objective coefficient.
  void set_objective(std::size_t var, double coefficient);

  /// Set bounds lower <= x[var] <= upper (`lower` finite, `upper` may be
  /// kInfinity).
  void set_bounds(std::size_t var, double lower, double upper);

  /// Add a constraint sum(coeff[i] * x[var[i]]) rel rhs. Terms may repeat a
  /// variable; coefficients accumulate.
  void add_constraint(const std::vector<std::pair<std::size_t, double>>& terms,
                      opt::Relation rel, double rhs);

  [[nodiscard]] std::size_t variable_count() const { return objective_.size(); }
  [[nodiscard]] std::size_t constraint_count() const { return rows_.size(); }

  /// Total constraint-matrix nonzeros across rows (bound entries excluded).
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

  /// A fresh solver holding this program (no start basis).
  [[nodiscard]] opt::RevisedSimplex to_solver() const;

  /// One-shot cold solve from the all-logical (slack) basis. `stats`, when
  /// given, receives the pivot counts of this solve.
  [[nodiscard]] opt::LpSolution solve(
      std::size_t max_iterations = 100000,
      opt::LpIterationStats* stats = nullptr) const;

 private:
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Row> rows_;
  std::size_t nonzeros_ = 0;
};

}  // namespace hare::testing
