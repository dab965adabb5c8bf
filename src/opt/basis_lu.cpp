#include "opt/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"

namespace hare::opt {
namespace {

constexpr double kSingularTol = 1e-11;
constexpr double kUpdatePivotTol = 1e-8;
constexpr double kDropTol = 1e-12;

}  // namespace

bool BasisLU::factorize(const SparseMatrix& A, const std::vector<int>& basis) {
  m_ = static_cast<int>(basis.size());
  HARE_CHECK_MSG(m_ == A.rows(), "basis size must match row count");
  const auto m = static_cast<std::size_t>(m_);
  prow_.assign(m, -1);
  udiag_.assign(m, 0.0);
  lcol_.resize(m);
  ucol_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    lcol_[k].clear();
    ucol_[k].clear();
  }
  etas_.clear();
  work_.assign(m, 0.0);
  step_of_.assign(m, -1);
  seen_.assign(m, -1);

  for (int k = 0; k < m_; ++k) {
    // A row is touched once per column: a pivoted row queues its step, an
    // unpivoted one joins the pivot candidates. The heap is empty here:
    // every column drains it.
    rows_.clear();
    const auto touch = [&](int r) {
      if (seen_[static_cast<std::size_t>(r)] == k) return;
      seen_[static_cast<std::size_t>(r)] = k;
      const int step = step_of_[static_cast<std::size_t>(r)];
      if (step < 0) {
        rows_.push_back(r);
      } else {
        heap_.push_back(step);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    };
    for (const SparseEntry& e : A.column(basis[static_cast<std::size_t>(k)])) {
      work_[static_cast<std::size_t>(e.row)] = e.value;
      touch(e.row);
    }
    // Left-looking elimination over the steps the column reaches, in
    // ascending order: step j's L column holds only rows pivoted after j
    // (or not yet), so this is the dense j = 0..k-1 sweep minus its
    // t == 0 steps. Step j's pivot row is final once j pops, and is its
    // U entry.
    auto& uc = ucol_[static_cast<std::size_t>(k)];
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const int j = heap_.back();
      heap_.pop_back();
      double& pivot_entry = work_[static_cast<std::size_t>(prow_[j])];
      const double t = pivot_entry;
      pivot_entry = 0.0;
      if (t == 0.0) continue;
      if (std::abs(t) > kDropTol) uc.push_back(SparseEntry{j, t});
      for (const SparseEntry& e : lcol_[static_cast<std::size_t>(j)]) {
        touch(e.row);
        work_[static_cast<std::size_t>(e.row)] -= t * e.value;
      }
    }
    // Partial pivoting over the touched unpivoted rows (untouched ones are
    // exactly 0); the lowest row index breaks ties so the factorization —
    // and everything downstream — is deterministic.
    std::sort(rows_.begin(), rows_.end());
    int pivot_row = -1;
    double pivot_mag = 0.0;
    for (int i : rows_) {
      const double mag = std::abs(work_[static_cast<std::size_t>(i)]);
      if (mag > pivot_mag + kDropTol) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || pivot_mag < kSingularTol) return false;
    const double pivot = work_[static_cast<std::size_t>(pivot_row)];
    prow_[static_cast<std::size_t>(k)] = pivot_row;
    udiag_[static_cast<std::size_t>(k)] = pivot;
    step_of_[static_cast<std::size_t>(pivot_row)] = k;
    auto& lc = lcol_[static_cast<std::size_t>(k)];
    for (int i : rows_) {
      const double v = work_[static_cast<std::size_t>(i)];
      work_[static_cast<std::size_t>(i)] = 0.0;
      if (i != pivot_row && std::abs(v) > kDropTol) {
        lc.push_back(SparseEntry{i, v / pivot});
      }
    }
  }
  return true;
}

void BasisLU::ftran(const std::vector<double>& v,
                    std::vector<double>& out) const {
  // L-forward pass in the row space.
  work_ = v;
  for (int k = 0; k < m_; ++k) {
    const double t = work_[static_cast<std::size_t>(prow_[k])];
    if (t == 0.0) continue;
    for (const SparseEntry& e : lcol_[static_cast<std::size_t>(k)]) {
      work_[static_cast<std::size_t>(e.row)] -= t * e.value;
    }
  }
  // U-back substitution: position k gets work[prow_k]/udiag_k, then the
  // U column of step k is eliminated from earlier pivot rows.
  out.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const double y = work_[static_cast<std::size_t>(prow_[k])] /
                     udiag_[static_cast<std::size_t>(k)];
    out[static_cast<std::size_t>(k)] = y;
    if (y == 0.0) continue;
    for (const SparseEntry& e : ucol_[static_cast<std::size_t>(k)]) {
      work_[static_cast<std::size_t>(prow_[e.row])] -= e.value * y;
    }
  }
  // Product-form chain, oldest first: w_p' = w_p / y_p; w_i -= y_i w_p'.
  for (const Eta& eta : etas_) {
    double& wp = out[static_cast<std::size_t>(eta.position)];
    if (wp == 0.0) continue;
    wp /= eta.pivot;
    for (const SparseEntry& e : eta.other) {
      out[static_cast<std::size_t>(e.row)] -= e.value * wp;
    }
  }
}

void BasisLU::btran(const std::vector<double>& v,
                    std::vector<double>& out) const {
  // Transposed eta chain, newest first: v_p' = (v_p − Σ y_i v_i) / y_p.
  work_ = v;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = work_[static_cast<std::size_t>(it->position)];
    for (const SparseEntry& e : it->other) {
      s -= e.value * work_[static_cast<std::size_t>(e.row)];
    }
    work_[static_cast<std::size_t>(it->position)] = s / it->pivot;
  }
  // Uᵀ forward solve: z[prow_k] = (v_k − Σ_j u_{jk} z[prow_j]) / udiag_k.
  out.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    double s = work_[static_cast<std::size_t>(k)];
    for (const SparseEntry& e : ucol_[static_cast<std::size_t>(k)]) {
      s -= e.value * out[static_cast<std::size_t>(prow_[e.row])];
    }
    out[static_cast<std::size_t>(prow_[k])] =
        s / udiag_[static_cast<std::size_t>(k)];
  }
  // Lᵀ backward pass in the row space.
  for (int k = m_ - 1; k >= 0; --k) {
    double s = 0.0;
    for (const SparseEntry& e : lcol_[static_cast<std::size_t>(k)]) {
      s += e.value * out[static_cast<std::size_t>(e.row)];
    }
    out[static_cast<std::size_t>(prow_[k])] -= s;
  }
}

bool BasisLU::update(int p, const std::vector<double>& spike) {
  const double pivot = spike[static_cast<std::size_t>(p)];
  if (std::abs(pivot) < kUpdatePivotTol) return false;
  Eta eta;
  eta.position = p;
  eta.pivot = pivot;
  for (int i = 0; i < m_; ++i) {
    if (i == p) continue;
    const double v = spike[static_cast<std::size_t>(i)];
    if (std::abs(v) > kDropTol) eta.other.push_back(SparseEntry{i, v});
  }
  etas_.push_back(std::move(eta));
  return true;
}

}  // namespace hare::opt
