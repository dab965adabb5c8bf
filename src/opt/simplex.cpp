#include "opt/simplex.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "opt/revised_simplex.hpp"

namespace hare::opt {

namespace {

constexpr double kEps = 1e-9;
/// Consecutive non-improving iterations before Bland's rule engages.
constexpr std::size_t kStallThreshold = 64;
/// Initial spare tableau columns reserved for cut logicals.
constexpr std::size_t kColumnHeadroom = 32;

/// Dense simplex tableau. Columns: structural + slack/surplus + artificial.
/// One basis variable per row. The rhs lives in its own vector and the data
/// block is laid out with spare column capacity, so appending a cut row /
/// logical column is amortized O(touched cells) rather than a full-matrix
/// copy per cut.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        cap_cols_(cols + kColumnHeadroom),
        data_(rows * cap_cols_, 0.0),
        rhs_(rows, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * cap_cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cap_cols_ + c];
  }
  double& rhs(std::size_t r) { return rhs_[r]; }
  [[nodiscard]] double rhs(std::size_t r) const { return rhs_[r]; }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Grow by `extra_rows` zero rows and `extra_cols` zero columns. Row
  /// growth is a resize; column growth consumes reserved capacity and only
  /// repacks (geometrically) when the headroom is exhausted.
  void expand(std::size_t extra_rows, std::size_t extra_cols) {
    if (cols_ + extra_cols > cap_cols_) {
      const std::size_t new_cap =
          std::max(cols_ + extra_cols, cap_cols_ * 2);
      std::vector<double> grown(rows_ * new_cap, 0.0);
      for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
          grown[r * new_cap + c] = data_[r * cap_cols_ + c];
        }
      }
      cap_cols_ = new_cap;
      data_ = std::move(grown);
    }
    cols_ += extra_cols;
    rows_ += extra_rows;
    data_.resize(rows_ * cap_cols_, 0.0);
    rhs_.resize(rows_, 0.0);
  }

  void pivot(std::size_t pr, std::size_t pc) {
    const double pivot_value = at(pr, pc);
    const double inv = 1.0 / pivot_value;
    for (std::size_t c = 0; c < cols_; ++c) at(pr, c) *= inv;
    rhs_[pr] *= inv;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double factor = at(r, pc);
      if (std::abs(factor) < kEps) continue;
      for (std::size_t c = 0; c < cols_; ++c) {
        at(r, c) -= factor * at(pr, c);
      }
      rhs_[r] -= factor * rhs_[pr];
      at(r, pc) = 0.0;
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::size_t cap_cols_;
  std::vector<double> data_;
  std::vector<double> rhs_;
};

struct SimplexState {
  Tableau tableau;
  std::vector<std::size_t> basis;  // basis[r] = column basic in row r
  std::vector<double> reduced;     // reduced costs, size cols
  double objective = 0.0;
};

/// Compute reduced costs z_j - c_j for minimization given objective c over
/// all tableau columns.
void compute_reduced_costs(SimplexState& s, const std::vector<double>& c) {
  const std::size_t cols = s.tableau.cols();
  s.reduced.assign(cols, 0.0);
  s.objective = 0.0;
  for (std::size_t r = 0; r < s.tableau.rows(); ++r) {
    s.objective += c[s.basis[r]] * s.tableau.rhs(r);
  }
  for (std::size_t j = 0; j < cols; ++j) {
    double z = 0.0;
    for (std::size_t r = 0; r < s.tableau.rows(); ++r) {
      const double a = s.tableau.at(r, j);
      if (a != 0.0) z += c[s.basis[r]] * a;
    }
    s.reduced[j] = z - c[j];
  }
}

/// Run primal simplex iterations minimizing objective c. Returns status;
/// updates state in place. `pivots`, when given, accumulates pivot counts.
/// Columns flagged in `banned` (phase-2 artificials) never enter the basis.
/// Bland's anti-cycling rule engages after the objective stalls for
/// kStallThreshold consecutive iterations and disengages on improvement.
LpStatus iterate(SimplexState& s, const std::vector<double>& c,
                 std::size_t max_iterations, std::size_t* pivots = nullptr,
                 const std::vector<char>* banned = nullptr) {
  const std::size_t cols = s.tableau.cols();
  const std::size_t rows = s.tableau.rows();
  double prev_objective = std::numeric_limits<double>::infinity();
  std::size_t stall = 0;

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    compute_reduced_costs(s, c);
    if (s.objective < prev_objective - kEps) {
      prev_objective = s.objective;
      stall = 0;
    } else {
      ++stall;
    }
    const bool bland = stall >= kStallThreshold;

    // Entering column: most positive reduced cost (min problem), or the
    // lowest-index positive one under Bland's anti-cycling rule.
    std::size_t enter = cols;
    double best = kEps;
    for (std::size_t j = 0; j < cols; ++j) {
      if (banned && (*banned)[j]) continue;
      if (s.reduced[j] > (bland ? kEps : best)) {
        enter = j;
        if (bland) break;
        best = s.reduced[j];
      }
    }
    if (enter == cols) return LpStatus::Optimal;

    // Leaving row: min ratio test.
    std::size_t leave = rows;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rows; ++r) {
      const double a = s.tableau.at(r, enter);
      if (a > kEps) {
        const double ratio = s.tableau.rhs(r) / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leave < rows &&
             s.basis[r] < s.basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == rows) return LpStatus::Unbounded;

    s.tableau.pivot(leave, enter);
    s.basis[leave] = enter;
    if (pivots) ++*pivots;
  }
  return LpStatus::IterationLimit;
}

/// Dual simplex: starting from a dual-feasible basis (reduced costs <= 0)
/// with negative right-hand sides (from appended cut rows), pivot until the
/// primal is feasible again. Returns Optimal when feasible, Infeasible when
/// a fully non-negative row has a negative rhs (the cut system is empty).
LpStatus dual_iterate(SimplexState& s, const std::vector<double>& c,
                      std::size_t max_iterations, std::size_t* pivots,
                      const std::vector<char>* banned = nullptr) {
  const std::size_t cols = s.tableau.cols();
  const std::size_t rows = s.tableau.rows();
  double prev_infeasibility = std::numeric_limits<double>::infinity();
  std::size_t stall = 0;

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    double infeasibility = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (s.tableau.rhs(r) < 0.0) infeasibility -= s.tableau.rhs(r);
    }
    if (infeasibility < prev_infeasibility - kEps) {
      prev_infeasibility = infeasibility;
      stall = 0;
    } else {
      ++stall;
    }
    const bool bland = stall >= kStallThreshold;

    // Leaving row: most negative rhs (lowest-index negative under Bland).
    std::size_t leave = rows;
    double most_negative = -kEps;
    for (std::size_t r = 0; r < rows; ++r) {
      if (s.tableau.rhs(r) < most_negative) {
        most_negative = s.tableau.rhs(r);
        leave = r;
        if (bland) break;
      }
    }
    if (leave == rows) return LpStatus::Optimal;  // primal feasible

    compute_reduced_costs(s, c);

    // Entering column: dual ratio test over negative entries of the leaving
    // row — minimize reduced[j] / a_rj (>= 0 since both are <= 0), ties to
    // the lowest column index (Bland-style, guards cycling).
    std::size_t enter = cols;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < cols; ++j) {
      if (banned && (*banned)[j]) continue;
      const double a = s.tableau.at(leave, j);
      if (a < -kEps) {
        const double ratio = s.reduced[j] / a;
        if (ratio < best_ratio - kEps) {
          best_ratio = ratio;
          enter = j;
        }
      }
    }
    if (enter == cols) return LpStatus::Infeasible;

    s.tableau.pivot(leave, enter);
    s.basis[leave] = enter;
    if (pivots) ++*pivots;
  }
  return LpStatus::IterationLimit;
}

}  // namespace

LpBackend resolve_lp_backend(LpBackend requested) {
  if (requested != LpBackend::Auto) return requested;
  if (const char* env = std::getenv("HARE_LP_BACKEND")) {
    std::string value(env);
    std::transform(value.begin(), value.end(), value.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (value == "dense") return LpBackend::Dense;
    if (value == "sparse") return LpBackend::Sparse;
  }
  return LpBackend::Sparse;
}

const char* lp_backend_name(LpBackend backend) {
  switch (backend) {
    case LpBackend::Auto: return "auto";
    case LpBackend::Dense: return "dense";
    case LpBackend::Sparse: return "sparse";
  }
  return "unknown";
}

SparseMode resolve_sparse_mode(SparseMode requested) {
  if (requested != SparseMode::Auto) return requested;
  if (const char* env = std::getenv("HARE_LP_SPARSE_MODE")) {
    std::string value(env);
    std::transform(value.begin(), value.end(), value.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (value == "classic") return SparseMode::Classic;
    if (value == "hyper") return SparseMode::Hyper;
  }
  return SparseMode::Auto;  // solver decides via its width heuristic
}

const char* sparse_mode_name(SparseMode mode) {
  switch (mode) {
    case SparseMode::Auto: return "auto";
    case SparseMode::Classic: return "classic";
    case SparseMode::Hyper: return "hyper";
  }
  return "unknown";
}

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

struct IncrementalLpSolver::Impl {
  LinearProgram lp;  ///< full program including appended cuts
  bool warm_start = true;
  LpBackend backend = LpBackend::Sparse;
  SparseMode sparse_mode = SparseMode::Auto;

  // --- Sparse backend state -----------------------------------------------
  std::unique_ptr<RevisedSimplex> sparse;

  // --- Dense backend state (retained standard form, warm path) ------------
  SimplexState state{Tableau(0, 0), {}, {}, 0.0};
  std::vector<char> artificial;  ///< per-column artificial flag
  std::vector<double> phase2;    ///< phase-2 costs (artificials at 0, banned)
  std::size_t structural = 0;    ///< count of original variables
  bool has_basis = false;        ///< a previous solve retained its basis
  bool basis_optimal = false;
  bool dirty = false;  ///< rows appended since the basis was factorized

  LpIterationStats stats;
  bool last_warm = false;

  LpSolution solve(std::size_t max_iterations);
  LpSolution sparse_solve(std::size_t max_iterations);
  LpSolution cold_solve(std::size_t max_iterations);
  LpSolution warm_resolve(std::size_t max_iterations);
  LpSolution extract() const;
  void append_cut_row(const std::vector<std::pair<std::size_t, double>>& terms,
                      double rhs);
  [[nodiscard]] double shifted_rhs(
      const std::vector<std::pair<std::size_t, double>>& terms,
      double rhs) const;
};

/// Lower bounds are handled by shifting (x = l + x'): every rhs drops the
/// bound contribution of its terms.
double IncrementalLpSolver::Impl::shifted_rhs(
    const std::vector<std::pair<std::size_t, double>>& terms,
    double rhs) const {
  for (const auto& [var, coeff] : terms) rhs -= coeff * lp.lower_[var];
  return rhs;
}

LpSolution IncrementalLpSolver::Impl::extract() const {
  LpSolution solution;
  solution.status = LpStatus::Optimal;
  solution.values.assign(structural, 0.0);
  for (std::size_t r = 0; r < state.tableau.rows(); ++r) {
    if (state.basis[r] < structural) {
      solution.values[state.basis[r]] = state.tableau.rhs(r);
    }
  }
  solution.objective = 0.0;
  for (std::size_t j = 0; j < structural; ++j) {
    solution.values[j] += lp.lower_[j];  // undo the bound shift
    solution.objective += lp.objective_[j] * solution.values[j];
  }
  return solution;
}

LpSolution IncrementalLpSolver::Impl::cold_solve(std::size_t max_iterations) {
  const std::size_t n = lp.objective_.size();
  structural = n;
  has_basis = false;
  basis_optimal = false;
  dirty = false;

  // Standard-form rows: the stated rows with lower bounds shifted out, plus
  // one internal row x' <= u - l per finite upper bound.
  std::vector<LinearProgram::Row> rows = lp.rows_;
  for (auto& row : rows) row.rhs = shifted_rhs(row.terms, row.rhs);
  for (std::size_t j = 0; j < n; ++j) {
    if (std::isfinite(lp.upper_[j])) {
      rows.push_back(LinearProgram::Row{
          {{j, 1.0}}, Relation::LessEqual, lp.upper_[j] - lp.lower_[j]});
    }
  }
  const std::size_t m = rows.size();

  // Count auxiliary columns: slack for <=, surplus for >=, artificial for
  // >= and =. After sign normalization (rhs >= 0).
  std::size_t slack_count = 0;
  std::size_t artificial_count = 0;
  for (auto& row : rows) {
    if (row.rhs < 0.0) {
      row.rhs = -row.rhs;
      for (auto& [var, coeff] : row.terms) coeff = -coeff;
      if (row.rel == Relation::LessEqual) {
        row.rel = Relation::GreaterEqual;
      } else if (row.rel == Relation::GreaterEqual) {
        row.rel = Relation::LessEqual;
      }
    }
    switch (row.rel) {
      case Relation::LessEqual: ++slack_count; break;
      case Relation::GreaterEqual:
        ++slack_count;
        ++artificial_count;
        break;
      case Relation::Equal: ++artificial_count; break;
    }
  }

  const std::size_t total = n + slack_count + artificial_count;
  state = SimplexState{Tableau(m, total), {}, {}, 0.0};
  state.basis.assign(m, 0);
  artificial.assign(total, 0);

  std::size_t next_slack = n;
  std::size_t next_artificial = n + slack_count;

  for (std::size_t r = 0; r < m; ++r) {
    const LinearProgram::Row& row = rows[r];
    for (const auto& [var, coeff] : row.terms) {
      state.tableau.at(r, var) += coeff;
    }
    state.tableau.rhs(r) = row.rhs;
    switch (row.rel) {
      case Relation::LessEqual:
        state.tableau.at(r, next_slack) = 1.0;
        state.basis[r] = next_slack++;
        break;
      case Relation::GreaterEqual:
        state.tableau.at(r, next_slack) = -1.0;
        ++next_slack;
        state.tableau.at(r, next_artificial) = 1.0;
        artificial[next_artificial] = 1;
        state.basis[r] = next_artificial++;
        break;
      case Relation::Equal:
        state.tableau.at(r, next_artificial) = 1.0;
        artificial[next_artificial] = 1;
        state.basis[r] = next_artificial++;
        break;
    }
  }

  LpSolution solution;

  // Phase 1: pure infeasibility objective — drive artificials to zero.
  if (artificial_count > 0) {
    std::vector<double> phase1(total, 0.0);
    for (std::size_t j = 0; j < total; ++j) {
      if (artificial[j]) phase1[j] = 1.0;
    }
    const LpStatus status =
        iterate(state, phase1, max_iterations, &stats.phase1);
    if (status == LpStatus::IterationLimit) {
      solution.status = status;
      return solution;
    }
    compute_reduced_costs(state, phase1);
    if (state.objective > 1e-6) {
      solution.status = LpStatus::Infeasible;
      return solution;
    }
    // Pivot any artificial still (degenerately) basic out of the basis.
    for (std::size_t r = 0; r < m; ++r) {
      if (!artificial[state.basis[r]]) continue;
      std::size_t enter = total;
      for (std::size_t j = 0; j < n + slack_count; ++j) {
        if (std::abs(state.tableau.at(r, j)) > kEps) {
          enter = j;
          break;
        }
      }
      if (enter < total) {
        state.tableau.pivot(r, enter);
        state.basis[r] = enter;
      }
      // Otherwise the row is all-zero (redundant); the artificial stays at
      // value 0 and never re-enters because phase 2 bans it.
    }
  }

  // Phase 2: original objective. Artificials keep cost 0 but are banned
  // from entering — no Big-M fencing needed.
  phase2.assign(total, 0.0);
  for (std::size_t j = 0; j < n; ++j) phase2[j] = lp.objective_[j];
  const LpStatus status =
      iterate(state, phase2, max_iterations, &stats.phase2, &artificial);
  if (status != LpStatus::Optimal) {
    solution.status = status;
    return solution;
  }

  has_basis = true;
  basis_optimal = true;
  return extract();
}

void IncrementalLpSolver::Impl::append_cut_row(
    const std::vector<std::pair<std::size_t, double>>& terms, double rhs) {
  // Append `terms >= rhs` in standard form: -terms + surplus = -rhs with the
  // new surplus basic, then eliminate the current basic variables so the row
  // is expressed over the non-basic columns. The resulting rhs is negative
  // exactly when the cut is violated at the retained vertex; dual simplex
  // repairs it at the next solve().
  const std::size_t old_cols = state.tableau.cols();
  const std::size_t old_rows = state.tableau.rows();
  state.tableau.expand(1, 1);
  const std::size_t surplus = old_cols;  // new column index
  const std::size_t row = old_rows;      // new row index
  artificial.push_back(0);
  phase2.push_back(0.0);

  for (const auto& [var, coeff] : terms) {
    HARE_CHECK_MSG(var < structural,
                   "cut references unknown variable " << var);
    state.tableau.at(row, var) -= coeff;
  }
  state.tableau.at(row, surplus) = 1.0;
  state.tableau.rhs(row) = -shifted_rhs(terms, rhs);

  // Gaussian elimination of basic columns from the new row.
  for (std::size_t r = 0; r < old_rows; ++r) {
    const double factor = state.tableau.at(row, state.basis[r]);
    if (std::abs(factor) < kEps) continue;
    for (std::size_t c = 0; c < state.tableau.cols(); ++c) {
      const double a = state.tableau.at(r, c);
      if (a != 0.0) state.tableau.at(row, c) -= factor * a;
    }
    state.tableau.rhs(row) -= factor * state.tableau.rhs(r);
    state.tableau.at(row, state.basis[r]) = 0.0;
  }
  state.basis.push_back(surplus);
  dirty = true;
}

LpSolution IncrementalLpSolver::Impl::warm_resolve(
    std::size_t max_iterations) {
  LpStatus status =
      dual_iterate(state, phase2, max_iterations, &stats.dual, &artificial);
  if (status == LpStatus::Optimal) {
    // Dual feasibility is maintained by the ratio test, so this usually
    // terminates immediately; it cleans up numerical drift when not.
    status =
        iterate(state, phase2, max_iterations, &stats.phase2, &artificial);
  }
  if (status != LpStatus::Optimal) {
    // Degenerate dual stall or drift: fall back to a cold factorization of
    // the full program (all cuts are recorded in `lp`).
    stats = {};
    last_warm = false;
    return cold_solve(max_iterations);
  }
  dirty = false;
  basis_optimal = true;
  return extract();
}

LpSolution IncrementalLpSolver::Impl::sparse_solve(
    std::size_t max_iterations) {
  if (warm_start && sparse && sparse->has_optimal_basis()) {
    last_warm = true;
    LpSolution solution = sparse->resolve(max_iterations, &stats);
    if (solution.status != LpStatus::IterationLimit) return solution;
    // Numerical stall on the warm path: rebuild and solve cold.
    stats = {};
  }
  last_warm = false;
  sparse = std::make_unique<RevisedSimplex>(lp);
  sparse->set_sparse_mode(sparse_mode);
  return sparse->solve(max_iterations, &stats);
}

LpSolution IncrementalLpSolver::Impl::solve(std::size_t max_iterations) {
  stats = {};
  if (backend == LpBackend::Sparse) return sparse_solve(max_iterations);
  if (warm_start && has_basis) {
    last_warm = true;
    basis_optimal = false;
    return warm_resolve(max_iterations);
  }
  last_warm = false;
  return cold_solve(max_iterations);
}

IncrementalLpSolver::IncrementalLpSolver(const LinearProgram& lp,
                                         bool warm_start, LpBackend backend)
    : impl_(std::make_unique<Impl>()) {
  impl_->lp = lp;
  impl_->warm_start = warm_start;
  impl_->backend = resolve_lp_backend(backend);
}

IncrementalLpSolver::~IncrementalLpSolver() = default;
IncrementalLpSolver::IncrementalLpSolver(IncrementalLpSolver&&) noexcept =
    default;
IncrementalLpSolver& IncrementalLpSolver::operator=(
    IncrementalLpSolver&&) noexcept = default;

void IncrementalLpSolver::add_ge_constraint(
    const std::vector<std::pair<std::size_t, double>>& terms, double rhs) {
  impl_->lp.add_constraint(terms, Relation::GreaterEqual, rhs);
  if (!impl_->warm_start) return;
  if (impl_->backend == LpBackend::Sparse) {
    if (impl_->sparse && impl_->sparse->has_optimal_basis()) {
      impl_->sparse->add_ge_row(terms, rhs);
    }
    return;
  }
  if (impl_->has_basis) {
    HARE_CHECK_MSG(impl_->basis_optimal || impl_->dirty,
                   "cannot warm-append a cut to a non-optimal basis");
    impl_->append_cut_row(terms, rhs);
  }
}

LpSolution IncrementalLpSolver::solve(std::size_t max_iterations) {
  return impl_->solve(max_iterations);
}

const LpIterationStats& IncrementalLpSolver::last_stats() const {
  return impl_->stats;
}

bool IncrementalLpSolver::last_solve_was_warm() const {
  return impl_->last_warm;
}

LpBackend IncrementalLpSolver::backend() const { return impl_->backend; }

void IncrementalLpSolver::set_sparse_mode(SparseMode mode) {
  impl_->sparse_mode = mode;
}

LpSolution LinearProgram::solve(std::size_t max_iterations,
                                LpIterationStats* stats,
                                LpBackend backend) const {
  const LpBackend resolved = resolve_lp_backend(backend);
  if (resolved == LpBackend::Sparse) {
    RevisedSimplex solver(*this);
    LpIterationStats local;
    LpSolution solution = solver.solve(max_iterations, &local);
    if (stats) *stats = local;
    return solution;
  }
  IncrementalLpSolver solver(*this, /*warm_start=*/false, LpBackend::Dense);
  LpSolution solution = solver.solve(max_iterations);
  if (stats) *stats = solver.last_stats();
  return solution;
}

}  // namespace hare::opt
