#include "lp_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace hare::testing {

namespace {

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

// ------------------------------------------------------- dense basis LU --

void append_batch_block(LinearProgram& lp, const workload::JobSet& jobs,
                        const profiler::TimeTable& times,
                        const std::vector<JobId>& batch, Time phi_floor,
                        std::size_t gpus_alive,
                        std::vector<std::vector<std::size_t>>& round_vars) {
  // Count the block so every variable's perturbation rank is known up
  // front (rounds + completion per job).
  std::size_t block_vars = 0;
  for (JobId id : batch) block_vars += jobs.job(id).rounds() + 1;

  std::size_t pos = 0;
  const auto add_var = [&](double cost, double lower) {
    const std::size_t var =
        lp.add_variable(cost + opt::perturbation_cost(++pos, block_vars));
    lp.set_bounds(var, lower, LinearProgram::kInfinity);
    return var;
  };

  std::vector<std::pair<std::size_t, double>> cut;
  round_vars.assign(batch.size(), {});
  double sum_p = 0.0;
  double sum_p2 = 0.0;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const workload::Job& job = jobs.job(batch[b]);
    const Time t_min = times.min_total(batch[b]);
    const double tpr = static_cast<double>(job.tasks_per_round());
    const Time release = std::max(job.spec.arrival, phi_floor);
    std::size_t prev = 0;
    auto& rounds = round_vars[b];
    rounds.reserve(job.rounds());
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      const std::size_t x =
          add_var(0.0, release + static_cast<double>(r) * t_min);
      if (r > 0) {
        lp.add_constraint({{x, 1.0}, {prev, -1.0}}, Relation::GreaterEqual,
                          t_min);
      }
      cut.emplace_back(x, tpr * t_min);
      rounds.push_back(x);
      prev = x;
    }
    const std::size_t completion =
        add_var(job.spec.weight,
                release + static_cast<double>(job.rounds()) * t_min);
    lp.add_constraint({{completion, 1.0}, {prev, -1.0}},
                      Relation::GreaterEqual, t_min);
    sum_p += static_cast<double>(job.rounds()) * tpr * t_min;
    sum_p2 += static_cast<double>(job.rounds()) * tpr * t_min * t_min;
  }
  const double capacity =
      static_cast<double>(std::max<std::size_t>(gpus_alive, 1));
  lp.add_constraint(cut, Relation::GreaterEqual,
                    0.5 * (sum_p * sum_p - sum_p2) / capacity);
}

namespace {

// The library's tolerances (src/opt/basis_lu.cpp); bit-identity needs them.
constexpr double kLuSingularTol = 1e-11;
constexpr double kLuUpdatePivotTol = 1e-8;
constexpr double kLuDropTol = 1e-12;

}  // namespace

bool DenseBasisLU::factorize(const opt::SparseMatrix& A,
                             const std::vector<int>& basis) {
  m_ = static_cast<int>(basis.size());
  HARE_CHECK_MSG(m_ == A.rows(), "basis size must match row count");
  const auto m = static_cast<std::size_t>(m_);
  prow_.assign(m, -1);
  udiag_.assign(m, 0.0);
  lcol_.assign(m, {});
  ucol_.assign(m, {});
  etas_.clear();
  work_.assign(m, 0.0);

  std::vector<char> pivoted(m, 0);
  std::vector<char> reached(m, 0);
  for (int k = 0; k < m_; ++k) {
    std::fill(reached.begin(), reached.end(), 0);
    for (const opt::SparseEntry& e :
         A.column(basis[static_cast<std::size_t>(k)])) {
      work_[static_cast<std::size_t>(e.row)] = e.value;
      reached[static_cast<std::size_t>(e.row)] = 1;
    }
    // Left-looking elimination: apply the L columns of all prior steps.
    for (int j = 0; j < k; ++j) {
      const auto pr = static_cast<std::size_t>(prow_[j]);
      const double t = work_[pr];
      if (t == 0.0) {
        if (reached[pr]) ++cancellations_;
        continue;
      }
      for (const opt::SparseEntry& e : lcol_[static_cast<std::size_t>(j)]) {
        reached[static_cast<std::size_t>(e.row)] = 1;
        work_[static_cast<std::size_t>(e.row)] -= t * e.value;
      }
    }
    // Partial pivoting over unpivoted rows; lowest row index breaks ties.
    int pivot_row = -1;
    double pivot_mag = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (pivoted[static_cast<std::size_t>(i)]) continue;
      const double mag = std::abs(work_[static_cast<std::size_t>(i)]);
      if (mag > pivot_mag + kLuDropTol) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || pivot_mag < kLuSingularTol) {
      std::fill(work_.begin(), work_.end(), 0.0);
      return false;
    }
    const double pivot = work_[static_cast<std::size_t>(pivot_row)];
    prow_[static_cast<std::size_t>(k)] = pivot_row;
    udiag_[static_cast<std::size_t>(k)] = pivot;
    pivoted[static_cast<std::size_t>(pivot_row)] = 1;
    // U entries live on already-pivoted rows; L entries on the rest.
    auto& uc = ucol_[static_cast<std::size_t>(k)];
    auto& lc = lcol_[static_cast<std::size_t>(k)];
    for (int j = 0; j < k; ++j) {
      const double v = work_[static_cast<std::size_t>(prow_[j])];
      if (std::abs(v) > kLuDropTol) uc.push_back(opt::SparseEntry{j, v});
    }
    for (int i = 0; i < m_; ++i) {
      if (pivoted[static_cast<std::size_t>(i)]) continue;
      const double v = work_[static_cast<std::size_t>(i)];
      if (std::abs(v) > kLuDropTol) {
        lc.push_back(opt::SparseEntry{i, v / pivot});
      }
    }
    std::fill(work_.begin(), work_.end(), 0.0);
  }
  return true;
}

void DenseBasisLU::ftran(const std::vector<double>& v,
                         std::vector<double>& out) const {
  work_ = v;
  for (int k = 0; k < m_; ++k) {
    const double t = work_[static_cast<std::size_t>(prow_[k])];
    if (t == 0.0) continue;
    for (const opt::SparseEntry& e : lcol_[static_cast<std::size_t>(k)]) {
      work_[static_cast<std::size_t>(e.row)] -= t * e.value;
    }
  }
  out.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const double y = work_[static_cast<std::size_t>(prow_[k])] /
                     udiag_[static_cast<std::size_t>(k)];
    out[static_cast<std::size_t>(k)] = y;
    if (y == 0.0) continue;
    for (const opt::SparseEntry& e : ucol_[static_cast<std::size_t>(k)]) {
      work_[static_cast<std::size_t>(prow_[e.row])] -= e.value * y;
    }
  }
  for (const Eta& eta : etas_) {
    double& wp = out[static_cast<std::size_t>(eta.position)];
    if (wp == 0.0) continue;
    wp /= eta.pivot;
    for (const opt::SparseEntry& e : eta.other) {
      out[static_cast<std::size_t>(e.row)] -= e.value * wp;
    }
  }
}

void DenseBasisLU::btran(const std::vector<double>& v,
                         std::vector<double>& out) const {
  work_ = v;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = work_[static_cast<std::size_t>(it->position)];
    for (const opt::SparseEntry& e : it->other) {
      s -= e.value * work_[static_cast<std::size_t>(e.row)];
    }
    work_[static_cast<std::size_t>(it->position)] = s / it->pivot;
  }
  out.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    double s = work_[static_cast<std::size_t>(k)];
    for (const opt::SparseEntry& e : ucol_[static_cast<std::size_t>(k)]) {
      s -= e.value * out[static_cast<std::size_t>(prow_[e.row])];
    }
    out[static_cast<std::size_t>(prow_[k])] =
        s / udiag_[static_cast<std::size_t>(k)];
  }
  for (int k = m_ - 1; k >= 0; --k) {
    double s = 0.0;
    for (const opt::SparseEntry& e : lcol_[static_cast<std::size_t>(k)]) {
      s += e.value * out[static_cast<std::size_t>(e.row)];
    }
    out[static_cast<std::size_t>(prow_[k])] -= s;
  }
}

bool DenseBasisLU::update(int p, const std::vector<double>& spike) {
  const double pivot = spike[static_cast<std::size_t>(p)];
  if (std::abs(pivot) < kLuUpdatePivotTol) return false;
  Eta eta;
  eta.position = p;
  eta.pivot = pivot;
  for (int i = 0; i < m_; ++i) {
    if (i == p) continue;
    const double v = spike[static_cast<std::size_t>(i)];
    if (std::abs(v) > kLuDropTol) eta.other.push_back(opt::SparseEntry{i, v});
  }
  etas_.push_back(std::move(eta));
  return true;
}

}  // namespace hare::testing
