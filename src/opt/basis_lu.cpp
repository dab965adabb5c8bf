#include "opt/basis_lu.hpp"

#include <cmath>

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
  prow_.assign(static_cast<std::size_t>(m_), -1);
  udiag_.assign(static_cast<std::size_t>(m_), 0.0);
  lcol_.resize(static_cast<std::size_t>(m_));
  ucol_.resize(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) {
    lcol_[static_cast<std::size_t>(k)].clear();
    ucol_[static_cast<std::size_t>(k)].clear();
  }
  etas_.clear();
  work_.assign(static_cast<std::size_t>(m_), 0.0);

  std::vector<char> pivoted(static_cast<std::size_t>(m_), 0);
  std::vector<int> touched;
  touched.reserve(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) {
    // Scatter basis column k into the dense scratch.
    touched.clear();
    for (const SparseEntry& e : A.column(basis[static_cast<std::size_t>(k)])) {
      work_[static_cast<std::size_t>(e.row)] = e.value;
      touched.push_back(e.row);
    }
    // Left-looking elimination: apply the L columns of all prior steps.
    for (int j = 0; j < k; ++j) {
      const double t = work_[static_cast<std::size_t>(prow_[j])];
      if (t == 0.0) continue;
      for (const SparseEntry& e : lcol_[static_cast<std::size_t>(j)]) {
        if (work_[static_cast<std::size_t>(e.row)] == 0.0) {
          touched.push_back(e.row);
        }
        work_[static_cast<std::size_t>(e.row)] -= t * e.value;
      }
    }
    // Partial pivoting over unpivoted rows; lowest row index breaks ties so
    // the factorization — and everything downstream — is deterministic.
    int pivot_row = -1;
    double pivot_mag = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (pivoted[static_cast<std::size_t>(i)]) continue;
      const double mag = std::abs(work_[static_cast<std::size_t>(i)]);
      if (mag > pivot_mag + kDropTol) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || pivot_mag < kSingularTol) {
      for (int r : touched) work_[static_cast<std::size_t>(r)] = 0.0;
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
      if (std::abs(v) > kDropTol) uc.push_back(SparseEntry{j, v});
    }
    for (int i = 0; i < m_; ++i) {
      if (pivoted[static_cast<std::size_t>(i)]) continue;
      const double v = work_[static_cast<std::size_t>(i)];
      if (std::abs(v) > kDropTol) lc.push_back(SparseEntry{i, v / pivot});
    }
    for (int r : touched) work_[static_cast<std::size_t>(r)] = 0.0;
    // Dense clear of rows touched twice is already handled: duplicates in
    // `touched` just re-zero an entry.
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
