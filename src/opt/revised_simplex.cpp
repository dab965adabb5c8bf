#include "opt/revised_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace hare::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDualTol = 1e-7;    ///< reduced-cost optimality tolerance
constexpr double kPrimalTol = 1e-7;  ///< bound feasibility tolerance
constexpr double kPivotTol = 1e-9;   ///< smallest usable ratio-test pivot
constexpr double kRatioTol = 1e-9;   ///< ratio-test tie tolerance
constexpr double kStepTol = 1e-9;    ///< steps below this count as degenerate
constexpr double kFixedTol = 1e-12;
constexpr double kDevexReset = 1e8;
/// Consecutive degenerate steps before Bland's rule engages.
constexpr std::size_t kStallThreshold = 64;

}  // namespace

std::size_t RevisedSimplex::add_variable(double cost) {
  HARE_CHECK_MSG(m_ == 0, "variables must be added before rows");
  A_.add_column();
  cost_.push_back(cost);
  lower_.push_back(0.0);
  upper_.push_back(kInf);
  return static_cast<std::size_t>(n_++);
}

void RevisedSimplex::set_bounds(std::size_t var, double lower, double upper) {
  HARE_CHECK_MSG(var < static_cast<std::size_t>(n_),
                 "bounds reference unknown variable " << var);
  HARE_CHECK_MSG(std::isfinite(lower),
                 "lower bound must be finite for variable " << var);
  HARE_CHECK_MSG(lower <= upper, "empty bound interval for variable " << var);
  lower_[var] = lower;
  upper_[var] = upper;
}

void RevisedSimplex::add_row(std::span<const Term> terms, Relation rel,
                             double rhs) {
  for (const auto& term : terms) {
    HARE_CHECK_MSG(term.first < static_cast<std::size_t>(n_),
                   "row references unknown variable " << term.first);
  }
  const int row = m_;
  A_.add_rows(1);
  for (const auto& [var, coeff] : terms) {
    A_.push(static_cast<int>(var), row, coeff);
  }
  // One logical per row: a·x + s = b with s bounded by the relation.
  const int logical = A_.add_column();
  A_.push(logical, row, 1.0);
  ++m_;
  rhs_.push_back(rhs);
  cost_.push_back(0.0);
  switch (rel) {
    case Relation::LessEqual:
      lower_.push_back(0.0);
      upper_.push_back(kInf);
      break;
    case Relation::GreaterEqual:
      lower_.push_back(-kInf);
      upper_.push_back(0.0);
      break;
    case Relation::Equal:
      lower_.push_back(0.0);
      upper_.push_back(0.0);
      break;
  }
  if (!start_basis_.empty()) {
    start_basis_.push_back(static_cast<std::size_t>(logical));
  }
  if (!basis_valid_) return;  // the next solve is cold: it installs a basis
  // The new logical joins the basis: the extended basis is block triangular
  // ([B 0; C I]), so the retained duals stay exact and the next warm solve
  // starts dual feasible.
  basis_.push_back(logical);
  vstat_.push_back(VarStatus::Basic);
  pos_of_.push_back(m_ - 1);
  xb_.push_back(0.0);
  dual_.push_back(0.0);
  devex_.push_back(1.0);
  rows_appended_ = true;
}

void RevisedSimplex::set_start_basis(std::vector<std::size_t> start) {
  start_basis_ = std::move(start);
}

bool RevisedSimplex::is_fixed(int j) const {
  return upper_[static_cast<std::size_t>(j)] -
             lower_[static_cast<std::size_t>(j)] <=
         kFixedTol;
}

double RevisedSimplex::nonbasic_value(int j) const {
  return vstat_[static_cast<std::size_t>(j)] == VarStatus::AtUpper
             ? upper_[static_cast<std::size_t>(j)]
             : lower_[static_cast<std::size_t>(j)];
}

bool RevisedSimplex::refactorize() {
  ++stats_.factorizations;
  return lu_.factorize(A_, basis_);
}

void RevisedSimplex::compute_xb() {
  // B x_B = b − Σ_nonbasic a_j x̄_j.
  col_buf_ = rhs_;
  for (int j = 0; j < total_cols(); ++j) {
    if (vstat_[static_cast<std::size_t>(j)] == VarStatus::Basic) continue;
    const double v = nonbasic_value(j);
    if (v != 0.0) A_.scatter_column(j, -v, col_buf_);
  }
  lu_.ftran(col_buf_, xb_);
}

void RevisedSimplex::compute_duals() {
  pos_buf_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    pos_buf_[static_cast<std::size_t>(i)] =
        cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
  }
  lu_.btran(pos_buf_, y_);
  dual_.assign(static_cast<std::size_t>(total_cols()), 0.0);
  for (int j = 0; j < total_cols(); ++j) {
    if (vstat_[static_cast<std::size_t>(j)] == VarStatus::Basic) continue;
    dual_[static_cast<std::size_t>(j)] =
        cost_[static_cast<std::size_t>(j)] - A_.column_dot(j, y_);
  }
}

void RevisedSimplex::ftran_column(int j) {
  col_buf_.assign(static_cast<std::size_t>(m_), 0.0);
  A_.scatter_column(j, 1.0, col_buf_);
  lu_.ftran(col_buf_, spike_);
}

void RevisedSimplex::btran_row(int position) {
  pos_buf_.assign(static_cast<std::size_t>(m_), 0.0);
  pos_buf_[static_cast<std::size_t>(position)] = 1.0;
  lu_.btran(pos_buf_, rho_);
}

void RevisedSimplex::bound_flip(int var, double sigma, double step) {
  for (int i = 0; i < m_; ++i) {
    const double a = spike_[static_cast<std::size_t>(i)];
    if (a != 0.0) xb_[static_cast<std::size_t>(i)] -= sigma * step * a;
  }
  vstat_[static_cast<std::size_t>(var)] =
      vstat_[static_cast<std::size_t>(var)] == VarStatus::AtLower
          ? VarStatus::AtUpper
          : VarStatus::AtLower;
}

RevisedSimplex::PivotResult RevisedSimplex::pivot_exchange(
    int position, int enter, double sigma, double step,
    VarStatus leaving_status) {
  const int leaving = basis_[static_cast<std::size_t>(position)];
  const double enter_value = nonbasic_value(enter) + sigma * step;
  for (int i = 0; i < m_; ++i) {
    const double a = spike_[static_cast<std::size_t>(i)];
    if (a != 0.0) xb_[static_cast<std::size_t>(i)] -= sigma * step * a;
  }
  pos_of_[static_cast<std::size_t>(leaving)] = -1;
  vstat_[static_cast<std::size_t>(leaving)] = leaving_status;
  basis_[static_cast<std::size_t>(position)] = enter;
  pos_of_[static_cast<std::size_t>(enter)] = position;
  vstat_[static_cast<std::size_t>(enter)] = VarStatus::Basic;
  xb_[static_cast<std::size_t>(position)] = enter_value;

  if (!lu_.update(position, spike_) || lu_.needs_refactor()) {
    if (!refactorize()) return PivotResult::Failed;
    compute_xb();
    return PivotResult::Refactored;
  }
  return PivotResult::Ok;
}

// ---------------------------------------------------------------------------
// Phase 1: composite infeasibility minimization from the start basis (the
// caller's, or the all-logical one); a primal feasible start returns at once.
// The piecewise objective (per-unit cost −1 below lower, +1 above upper)
// changes at every breakpoint, so duals are recomputed each iteration and a
// basic variable blocks at the first bound it reaches — feasible basics at
// the bound they approach, infeasible basics at the bound they are
// violating (where they turn feasible and the cost slope changes).
// ---------------------------------------------------------------------------
LpStatus RevisedSimplex::phase1(std::size_t max_iterations,
                                std::size_t* pivots) {
  std::size_t stall = 0;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    double infeasibility = 0.0;
    pos_buf_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int v = basis_[static_cast<std::size_t>(i)];
      const double x = xb_[static_cast<std::size_t>(i)];
      const double lo = lower_[static_cast<std::size_t>(v)];
      const double hi = upper_[static_cast<std::size_t>(v)];
      if (x < lo - kPrimalTol) {
        pos_buf_[static_cast<std::size_t>(i)] = -1.0;
        infeasibility += lo - x;
      } else if (x > hi + kPrimalTol) {
        pos_buf_[static_cast<std::size_t>(i)] = 1.0;
        infeasibility += x - hi;
      }
    }
    if (infeasibility <= kPrimalTol * static_cast<double>(1 + m_)) {
      return LpStatus::Optimal;  // primal feasible — phase 2 takes over
    }

    const bool bland = stall >= kStallThreshold;
    int enter = -1;
    double best = 0.0;
    double sigma = 1.0;
    lu_.btran(pos_buf_, y_);
    for (int j = 0; j < total_cols(); ++j) {
      if (vstat_[static_cast<std::size_t>(j)] == VarStatus::Basic ||
          is_fixed(j)) {
        continue;
      }
      const double d = -A_.column_dot(j, y_);  // nonbasic phase-1 cost is 0
      const bool at_lower =
          vstat_[static_cast<std::size_t>(j)] == VarStatus::AtLower;
      if (at_lower ? d >= -kDualTol : d <= kDualTol) continue;
      if (bland) {
        enter = j;
        sigma = at_lower ? 1.0 : -1.0;
        break;
      }
      const double score = std::abs(d);
      if (score > best) {
        best = score;
        enter = j;
        sigma = at_lower ? 1.0 : -1.0;
      }
    }
    if (enter < 0) return LpStatus::Infeasible;

    ftran_column(enter);
    int leave = -1;
    double t_row = kInf;
    VarStatus leave_status = VarStatus::AtLower;
    for (int i = 0; i < m_; ++i) {
      const double a = sigma * spike_[static_cast<std::size_t>(i)];
      if (std::abs(a) <= kPivotTol) continue;
      const int v = basis_[static_cast<std::size_t>(i)];
      const double x = xb_[static_cast<std::size_t>(i)];
      const double lo = lower_[static_cast<std::size_t>(v)];
      const double hi = upper_[static_cast<std::size_t>(v)];
      double target;
      VarStatus status;
      if (a > 0.0) {  // x decreases with the step
        if (x < lo - kPrimalTol) continue;  // moving further below: no block
        target = x > hi + kPrimalTol ? hi : lo;
        status = x > hi + kPrimalTol ? VarStatus::AtUpper : VarStatus::AtLower;
      } else {  // x increases
        if (x > hi + kPrimalTol) continue;
        target = x < lo - kPrimalTol ? lo : hi;
        status = x < lo - kPrimalTol ? VarStatus::AtLower : VarStatus::AtUpper;
      }
      if (std::isinf(target)) continue;
      double ti = (x - target) / a;
      if (ti < 0.0) ti = 0.0;
      if (ti < t_row - kRatioTol ||
          (ti < t_row + kRatioTol && leave >= 0 &&
           v < basis_[static_cast<std::size_t>(leave)])) {
        t_row = ti;
        leave = i;
        leave_status = status;
      }
    }
    const double t_bound = upper_[static_cast<std::size_t>(enter)] -
                           lower_[static_cast<std::size_t>(enter)];
    if (leave < 0 && std::isinf(t_bound)) return LpStatus::IterationLimit;

    ++*pivots;
    if (t_bound <= t_row) {
      bound_flip(enter, sigma, t_bound);
      stall = t_bound <= kStepTol ? stall + 1 : 0;
      continue;
    }
    const PivotResult res =
        pivot_exchange(leave, enter, sigma, t_row, leave_status);
    if (res == PivotResult::Failed) return LpStatus::IterationLimit;
    stall = t_row <= kStepTol ? stall + 1 : 0;
  }
  return LpStatus::IterationLimit;
}

// ---------------------------------------------------------------------------
// Phase 2: Devex-priced primal iterations on the true objective. Reduced
// costs are maintained incrementally with the BTRAN(e_r) row pass (which
// also feeds the Devex weight update) and recomputed from scratch after a
// refactorization and before optimality is declared.
// ---------------------------------------------------------------------------
LpStatus RevisedSimplex::phase2(std::size_t max_iterations,
                                std::size_t* pivots) {
  compute_duals();
  devex_.assign(static_cast<std::size_t>(total_cols()), 1.0);
  std::size_t stall = 0;
  bool duals_fresh = true;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const bool bland = stall >= kStallThreshold;
    int enter = -1;
    double best = 0.0;
    double sigma = 1.0;
    for (int j = 0; j < total_cols(); ++j) {
      if (vstat_[static_cast<std::size_t>(j)] == VarStatus::Basic ||
          is_fixed(j)) {
        continue;
      }
      const double d = dual_[static_cast<std::size_t>(j)];
      const bool at_lower =
          vstat_[static_cast<std::size_t>(j)] == VarStatus::AtLower;
      if (at_lower ? d >= -kDualTol : d <= kDualTol) continue;
      if (bland) {
        enter = j;
        sigma = at_lower ? 1.0 : -1.0;
        break;
      }
      const double score = d * d / devex_[static_cast<std::size_t>(j)];
      if (score > best) {
        best = score;
        enter = j;
        sigma = at_lower ? 1.0 : -1.0;
      }
    }
    if (enter < 0) {
      if (duals_fresh) return LpStatus::Optimal;
      // Incremental reduced costs drift; confirm optimality on fresh duals.
      compute_duals();
      duals_fresh = true;
      continue;
    }
    duals_fresh = false;

    ftran_column(enter);
    int leave = -1;
    double t_row = kInf;
    VarStatus leave_status = VarStatus::AtLower;
    for (int i = 0; i < m_; ++i) {
      const double a = sigma * spike_[static_cast<std::size_t>(i)];
      if (std::abs(a) <= kPivotTol) continue;
      const int v = basis_[static_cast<std::size_t>(i)];
      const double bound = a > 0.0 ? lower_[static_cast<std::size_t>(v)]
                                   : upper_[static_cast<std::size_t>(v)];
      if (std::isinf(bound)) continue;
      double ti = (xb_[static_cast<std::size_t>(i)] - bound) / a;
      if (ti < 0.0) ti = 0.0;
      if (ti < t_row - kRatioTol ||
          (ti < t_row + kRatioTol && leave >= 0 &&
           v < basis_[static_cast<std::size_t>(leave)])) {
        t_row = ti;
        leave = i;
        leave_status = a > 0.0 ? VarStatus::AtLower : VarStatus::AtUpper;
      }
    }
    const double t_bound = upper_[static_cast<std::size_t>(enter)] -
                           lower_[static_cast<std::size_t>(enter)];
    if (leave < 0 && std::isinf(t_bound)) return LpStatus::Unbounded;

    ++*pivots;
    if (t_bound <= t_row) {
      bound_flip(enter, sigma, t_bound);
      stall = t_bound <= kStepTol ? stall + 1 : 0;
      continue;
    }

    // Row pass: update reduced costs + Devex weights before the exchange.
    const double alpha_r = spike_[static_cast<std::size_t>(leave)];
    const double d_enter = dual_[static_cast<std::size_t>(enter)];
    const double ratio_d = d_enter / alpha_r;
    const double w_enter = devex_[static_cast<std::size_t>(enter)];
    const int leaving = basis_[static_cast<std::size_t>(leave)];
    btran_row(leave);
    double w_max = 1.0;
    for (int j = 0; j < total_cols(); ++j) {
      if (vstat_[static_cast<std::size_t>(j)] == VarStatus::Basic ||
          j == enter) {
        continue;
      }
      const double arj = A_.column_dot(j, rho_);
      if (arj == 0.0) continue;
      dual_[static_cast<std::size_t>(j)] -= ratio_d * arj;
      const double ref = arj / alpha_r;
      double& w = devex_[static_cast<std::size_t>(j)];
      w = std::max(w, ref * ref * w_enter);
      w_max = std::max(w_max, w);
    }
    dual_[static_cast<std::size_t>(leaving)] = -ratio_d;
    dual_[static_cast<std::size_t>(enter)] = 0.0;
    devex_[static_cast<std::size_t>(leaving)] =
        std::max(w_enter / (alpha_r * alpha_r), 1.0);
    if (w_max > kDevexReset) {
      devex_.assign(static_cast<std::size_t>(total_cols()), 1.0);
    }

    const PivotResult res =
        pivot_exchange(leave, enter, sigma, t_row, leave_status);
    if (res == PivotResult::Failed) return LpStatus::IterationLimit;
    if (res == PivotResult::Refactored) {
      compute_duals();
      duals_fresh = true;
    }
    stall = t_row <= kStepTol ? stall + 1 : 0;
  }
  return LpStatus::IterationLimit;
}

// ---------------------------------------------------------------------------
// Dual simplex: restores primal feasibility after cut rows are appended
// while keeping dual feasibility (the appended logicals enter the basis
// with zero cost, so the retained duals stay exact). Leaving row = worst
// bound violation; entering column = dual ratio test over the BTRAN row.
// ---------------------------------------------------------------------------
LpStatus RevisedSimplex::dual_phase(std::size_t max_iterations,
                                    std::size_t* pivots) {
  compute_duals();
  std::size_t stall = 0;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const bool bland = stall >= kStallThreshold;
    int leave = -1;
    double worst = kPrimalTol;
    bool below = false;
    for (int i = 0; i < m_; ++i) {
      const int v = basis_[static_cast<std::size_t>(i)];
      const double x = xb_[static_cast<std::size_t>(i)];
      const double viol_low = lower_[static_cast<std::size_t>(v)] - x;
      const double viol_up = x - upper_[static_cast<std::size_t>(v)];
      const double viol = std::max(viol_low, viol_up);
      if (viol <= kPrimalTol) continue;
      if (bland) {
        // Lowest-variable-index infeasible row under the anti-cycling rule.
        if (leave < 0 || v < basis_[static_cast<std::size_t>(leave)]) {
          leave = i;
          below = viol_low >= viol_up;
        }
        continue;
      }
      if (viol > worst ||
          (viol > worst - kRatioTol && leave >= 0 &&
           v < basis_[static_cast<std::size_t>(leave)])) {
        worst = std::max(viol, worst);
        leave = i;
        below = viol_low >= viol_up;
      }
    }
    if (leave < 0) return LpStatus::Optimal;  // primal feasible again

    const int leaving = basis_[static_cast<std::size_t>(leave)];
    const double delta = below ? 1.0 : -1.0;
    btran_row(leave);
    // One pass computes α_rj for every nonbasic column: the ratio test
    // reads it here and the reduced-cost update below reuses it.
    alpha_row_.clear();
    int enter = -1;
    double best_ratio = kInf;
    for (int j = 0; j < total_cols(); ++j) {
      if (vstat_[static_cast<std::size_t>(j)] == VarStatus::Basic) continue;
      const double arj = A_.column_dot(j, rho_);
      if (arj == 0.0) continue;
      alpha_row_.emplace_back(j, arj);
      if (is_fixed(j) || std::abs(arj) <= kPivotTol) continue;
      const bool at_lower =
          vstat_[static_cast<std::size_t>(j)] == VarStatus::AtLower;
      // xb_r moves by −arj per unit increase of j; an AtLower variable can
      // only increase, an AtUpper one only decrease.
      if (at_lower ? arj * delta >= 0.0 : arj * delta <= 0.0) continue;
      const double ratio =
          std::abs(dual_[static_cast<std::size_t>(j)]) / std::abs(arj);
      if (ratio < best_ratio - kRatioTol ||
          (ratio < best_ratio + kRatioTol && enter >= 0 && j < enter)) {
        best_ratio = ratio;
        enter = j;
      }
    }
    if (enter < 0) return LpStatus::Infeasible;  // cut system is empty

    ftran_column(enter);
    const double alpha_r = spike_[static_cast<std::size_t>(leave)];
    if (std::abs(alpha_r) <= kPivotTol) return LpStatus::IterationLimit;
    const double target = below ? lower_[static_cast<std::size_t>(leaving)]
                                : upper_[static_cast<std::size_t>(leaving)];
    const double step = (xb_[static_cast<std::size_t>(leave)] - target) /
                        alpha_r;  // signed entering step

    const double ratio_d = dual_[static_cast<std::size_t>(enter)] / alpha_r;
    for (const auto& [j, arj] : alpha_row_) {
      if (j != enter) dual_[static_cast<std::size_t>(j)] -= ratio_d * arj;
    }
    dual_[static_cast<std::size_t>(leaving)] = -ratio_d;
    dual_[static_cast<std::size_t>(enter)] = 0.0;

    ++*pivots;
    const PivotResult res = pivot_exchange(
        leave, enter, 1.0, step,
        below ? VarStatus::AtLower : VarStatus::AtUpper);
    if (res == PivotResult::Failed) return LpStatus::IterationLimit;
    if (res == PivotResult::Refactored) compute_duals();
    stall = std::abs(step) <= kStepTol ? stall + 1 : 0;
  }
  return LpStatus::IterationLimit;
}

LpSolution RevisedSimplex::extract() const {
  LpSolution solution;
  solution.status = LpStatus::Optimal;
  solution.values.assign(static_cast<std::size_t>(n_), 0.0);
  double objective = 0.0;
  for (int j = 0; j < n_; ++j) {
    const int pos = pos_of_[static_cast<std::size_t>(j)];
    const double v =
        pos >= 0 ? xb_[static_cast<std::size_t>(pos)] : nonbasic_value(j);
    solution.values[static_cast<std::size_t>(j)] = v;
    objective += cost_[static_cast<std::size_t>(j)] * v;
  }
  solution.objective = objective;
  return solution;
}

bool RevisedSimplex::install_basis(std::span<const std::size_t> start) {
  const int cols = total_cols();
  vstat_.assign(static_cast<std::size_t>(cols), VarStatus::AtLower);
  pos_of_.assign(static_cast<std::size_t>(cols), -1);
  basis_.resize(static_cast<std::size_t>(m_));
  if (!start.empty() && start.size() != static_cast<std::size_t>(m_)) {
    return false;
  }
  for (int i = 0; i < m_; ++i) {
    const std::size_t col =
        start.empty() ? static_cast<std::size_t>(n_ + i)
                      : start[static_cast<std::size_t>(i)];
    if (col >= static_cast<std::size_t>(cols) || pos_of_[col] >= 0) {
      return false;
    }
    basis_[static_cast<std::size_t>(i)] = static_cast<int>(col);
    vstat_[col] = VarStatus::Basic;
    pos_of_[col] = i;
  }
  // ≥-row logicals have no lower bound; nonbasic means at upper for them.
  // (The all-logical start makes them basic, but a start basis or a later
  // pivot can leave any column nonbasic.)
  for (int j = n_; j < cols; ++j) {
    if (vstat_[static_cast<std::size_t>(j)] != VarStatus::Basic &&
        std::isinf(lower_[static_cast<std::size_t>(j)])) {
      vstat_[static_cast<std::size_t>(j)] = VarStatus::AtUpper;
    }
  }
  return true;
}

LpSolution RevisedSimplex::solve(std::size_t max_iterations) {
  stats_ = {};
  if (basis_valid_) {
    last_warm_ = true;
    LpSolution solution = warm_solve(max_iterations);
    if (solution.status != LpStatus::IterationLimit) return solution;
    // Numerical stall on the warm path: solve the same store cold.
    stats_ = {};
  }
  last_warm_ = false;
  return cold_solve(max_iterations);
}

LpSolution RevisedSimplex::cold_solve(std::size_t max_iterations) {
  basis_valid_ = false;
  rows_appended_ = false;
  LpSolution solution;
  // An unusable start basis (malformed or singular) falls back to the
  // all-logical one, which always factorizes.
  const bool started = !start_basis_.empty() &&
                       install_basis(start_basis_) && refactorize();
  if (!started && !(install_basis({}) && refactorize())) {
    solution.status = LpStatus::Infeasible;
    return solution;
  }
  compute_xb();

  // Phase 1 returns at once when the start is already primal feasible.
  LpStatus status = phase1(max_iterations, &stats_.phase1);
  if (status != LpStatus::Optimal) {
    solution.status = status;
    return solution;
  }
  status = phase2(max_iterations, &stats_.phase2);
  if (status != LpStatus::Optimal) {
    solution.status = status;
    return solution;
  }
  basis_valid_ = true;
  return extract();
}

LpSolution RevisedSimplex::warm_solve(std::size_t max_iterations) {
  basis_valid_ = false;
  LpSolution solution;
  if (rows_appended_) {
    // A singular extended basis is a numerical stall: solve() restarts
    // cold, from the start basis.
    if (!refactorize()) {
      solution.status = LpStatus::IterationLimit;
      return solution;
    }
    compute_xb();
    rows_appended_ = false;
  }
  LpStatus status = dual_phase(max_iterations, &stats_.dual);
  if (status == LpStatus::Optimal) {
    // Dual feasibility is maintained by the ratio test, so this usually
    // confirms optimality immediately; it cleans up numerical drift when
    // not.
    status = phase2(max_iterations, &stats_.phase2);
  }
  if (status != LpStatus::Optimal) {
    solution.status = status;
    return solution;
  }
  basis_valid_ = true;
  return extract();
}

}  // namespace hare::opt
