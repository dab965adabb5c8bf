#include "lp_oracle.hpp"

#include <cmath>
#include <limits>
#include <vector>

namespace hare::testing {

namespace {

using opt::LinearProgram;
using opt::LpSolution;
using opt::LpStatus;
using opt::Relation;

constexpr double kEps = 1e-9;
/// Consecutive non-improving iterations before Bland's rule engages.
constexpr std::size_t kStallThreshold = 64;

struct Tableau {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> a;    ///< rows × cols, row-major
  std::vector<double> rhs;  ///< per row
  std::vector<std::size_t> basis;

  double& at(std::size_t r, std::size_t c) { return a[r * cols + c]; }

  void pivot(std::size_t pr, std::size_t pc) {
    const double inv = 1.0 / at(pr, pc);
    for (std::size_t c = 0; c < cols; ++c) at(pr, c) *= inv;
    rhs[pr] *= inv;
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pr) continue;
      const double factor = at(r, pc);
      if (std::abs(factor) < kEps) continue;
      for (std::size_t c = 0; c < cols; ++c) at(r, c) -= factor * at(pr, c);
      rhs[r] -= factor * rhs[pr];
      at(r, pc) = 0.0;
    }
    basis[pr] = pc;
  }

  /// Objective value and reduced costs z_j − c_j under cost vector `c`.
  double price(const std::vector<double>& c, std::vector<double>& reduced) {
    double objective = 0.0;
    for (std::size_t r = 0; r < rows; ++r) objective += c[basis[r]] * rhs[r];
    reduced.assign(cols, 0.0);
    for (std::size_t j = 0; j < cols; ++j) {
      double z = 0.0;
      for (std::size_t r = 0; r < rows; ++r) z += c[basis[r]] * at(r, j);
      reduced[j] = z - c[j];
    }
    return objective;
  }

  /// Primal simplex minimizing `c`; columns flagged in `banned` never
  /// enter.
  LpStatus minimize(const std::vector<double>& c,
                    const std::vector<char>& banned,
                    std::size_t max_iterations, std::size_t& pivots) {
    std::vector<double> reduced;
    double best_objective = std::numeric_limits<double>::infinity();
    std::size_t stall = 0;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      const double objective = price(c, reduced);
      if (objective < best_objective - kEps) {
        best_objective = objective;
        stall = 0;
      } else {
        ++stall;
      }
      const bool bland = stall >= kStallThreshold;
      std::size_t enter = cols;
      double best = kEps;
      for (std::size_t j = 0; j < cols; ++j) {
        if (banned[j] || reduced[j] <= (bland ? kEps : best)) continue;
        enter = j;
        if (bland) break;
        best = reduced[j];
      }
      if (enter == cols) return LpStatus::Optimal;

      std::size_t leave = rows;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < rows; ++r) {
        const double a_re = at(r, enter);
        if (a_re <= kEps) continue;
        const double ratio = rhs[r] / a_re;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leave < rows &&
             basis[r] < basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
      if (leave == rows) return LpStatus::Unbounded;
      pivot(leave, enter);
      ++pivots;
    }
    return LpStatus::IterationLimit;
  }
};

}  // namespace

LpSolution oracle_solve(const LinearProgram& lp, std::size_t max_iterations,
                        std::size_t* pivots) {
  const std::size_t n = lp.variable_count();
  // Standard-form rows over x' = x − l: the stated rows with the lower
  // bounds shifted out, one x'_j ≤ u_j − l_j row per finite upper bound,
  // every rhs made nonnegative.
  std::vector<LinearProgram::Row> rows = lp.rows();
  for (auto& row : rows) {
    for (const auto& [var, coeff] : row.terms) {
      row.rhs -= coeff * lp.lower_bound(var);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (std::isfinite(lp.upper_bound(j))) {
      rows.push_back(LinearProgram::Row{
          {{j, 1.0}}, Relation::LessEqual,
          lp.upper_bound(j) - lp.lower_bound(j)});
    }
  }
  std::size_t slacks = 0;
  std::size_t artificials = 0;
  for (auto& row : rows) {
    if (row.rhs < 0.0) {
      row.rhs = -row.rhs;
      for (auto& term : row.terms) term.second = -term.second;
      if (row.rel == Relation::LessEqual) {
        row.rel = Relation::GreaterEqual;
      } else if (row.rel == Relation::GreaterEqual) {
        row.rel = Relation::LessEqual;
      }
    }
    if (row.rel != Relation::Equal) ++slacks;
    if (row.rel != Relation::LessEqual) ++artificials;
  }

  Tableau t;
  t.rows = rows.size();
  t.cols = n + slacks + artificials;
  t.a.assign(t.rows * t.cols, 0.0);
  t.rhs.assign(t.rows, 0.0);
  t.basis.assign(t.rows, 0);
  std::vector<char> artificial(t.cols, 0);
  std::size_t next_slack = n;
  std::size_t next_artificial = n + slacks;
  for (std::size_t r = 0; r < t.rows; ++r) {
    for (const auto& [var, coeff] : rows[r].terms) t.at(r, var) += coeff;
    t.rhs[r] = rows[r].rhs;
    if (rows[r].rel == Relation::LessEqual) {
      t.at(r, next_slack) = 1.0;
      t.basis[r] = next_slack++;
      continue;
    }
    if (rows[r].rel == Relation::GreaterEqual) t.at(r, next_slack++) = -1.0;
    t.at(r, next_artificial) = 1.0;
    artificial[next_artificial] = 1;
    t.basis[r] = next_artificial++;
  }

  std::size_t sink = 0;
  std::size_t& count = pivots ? *pivots : sink;
  count = 0;
  LpSolution solution;
  if (artificials > 0) {
    std::vector<double> phase1(t.cols, 0.0);
    for (std::size_t j = 0; j < t.cols; ++j) {
      if (artificial[j]) phase1[j] = 1.0;
    }
    const std::vector<char> none(t.cols, 0);
    solution.status = t.minimize(phase1, none, max_iterations, count);
    if (solution.status == LpStatus::IterationLimit) return solution;
    std::vector<double> reduced;
    if (t.price(phase1, reduced) > 1e-6) {
      solution.status = LpStatus::Infeasible;
      return solution;
    }
    // Pivot artificials still (degenerately) basic out of the basis; an
    // all-zero row is redundant and keeps its artificial at 0.
    for (std::size_t r = 0; r < t.rows; ++r) {
      if (!artificial[t.basis[r]]) continue;
      for (std::size_t j = 0; j < n + slacks; ++j) {
        if (std::abs(t.at(r, j)) > kEps) {
          t.pivot(r, j);
          break;
        }
      }
    }
  }

  std::vector<double> phase2(t.cols, 0.0);
  for (std::size_t j = 0; j < n; ++j) phase2[j] = lp.objective(j);
  solution.status = t.minimize(phase2, artificial, max_iterations, count);
  if (solution.status != LpStatus::Optimal) return solution;

  solution.values.assign(n, 0.0);
  for (std::size_t r = 0; r < t.rows; ++r) {
    if (t.basis[r] < n) solution.values[t.basis[r]] = t.rhs[r];
  }
  for (std::size_t j = 0; j < n; ++j) {
    solution.values[j] += lp.lower_bound(j);
    solution.objective += lp.objective(j) * solution.values[j];
  }
  return solution;
}

}  // namespace hare::testing
