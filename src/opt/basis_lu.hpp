// Sparse LU factorization of a simplex basis with product-form updates.
//
// The revised simplex never forms B⁻¹: it keeps B = LU (sparse columns,
// row partial pivoting) plus a short chain of eta matrices recording the
// basis exchanges since the last refactorization:
//
//   B_k = B_0 · E_1 · ... · E_k,   E_i = I with one column replaced by the
//                                        entering column's spike B⁻¹a_q
//
// FTRAN (B⁻¹v) solves through LU then applies the eta chain forward;
// BTRAN (B⁻ᵀv) applies the chain in reverse then solves LUᵀ. The chain is
// folded back into a fresh LU every `kRefactorInterval` pivots or when an
// update pivot is too small to be stable — the classic cadence that keeps
// both FTRAN cost and numerical drift bounded.
//
// The factorization is left-looking and sparse: each basis column is
// eliminated only by the earlier steps whose pivot rows it reaches, popped
// in ascending step order from a min-heap, and the pivot search scans only
// the rows it touched. That is O(nnz + fill + reach·log reach) per
// refactorization, with the same pivots and factors, bit for bit, as the
// dense O(m²) sweep kept as the test oracle (tests/lp_oracle.hpp).
//
// Index spaces: FTRAN maps a row-indexed vector to a basis-position-indexed
// one; BTRAN maps positions back to rows. Eta updates act purely on the
// position space.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/sparse_matrix.hpp"

namespace hare::opt {

class BasisLU {
 public:
  /// Pivots recorded since the last factorize(); refactorize at this depth.
  static constexpr std::size_t kRefactorInterval = 64;

  /// Factorize the basis given by `basis` (variable index per position)
  /// against the column store `A`. Returns false when the basis matrix is
  /// numerically singular. Clears the eta chain.
  [[nodiscard]] bool factorize(const SparseMatrix& A,
                               const std::vector<int>& basis);

  /// v (dense, indexed by row); out (indexed by basis position) := B⁻¹ v.
  void ftran(const std::vector<double>& v, std::vector<double>& out) const;

  /// v (dense, indexed by basis position); out (indexed by row) := B⁻ᵀ v.
  void btran(const std::vector<double>& v, std::vector<double>& out) const;

  /// Record the exchange "position `p` now holds the column whose spike
  /// B⁻¹a_q is `spike`". Returns false when |spike[p]| is too small for a
  /// stable product-form update (caller must refactorize instead).
  [[nodiscard]] bool update(int p, const std::vector<double>& spike);

  [[nodiscard]] std::size_t eta_count() const { return etas_.size(); }
  [[nodiscard]] bool needs_refactor() const {
    return etas_.size() >= kRefactorInterval;
  }
  [[nodiscard]] int dimension() const { return m_; }

 private:
  struct Eta {
    int position = 0;
    double pivot = 0.0;
    std::vector<SparseEntry> other;  ///< spike entries off the pivot position
  };

  int m_ = 0;
  std::vector<int> prow_;             ///< pivot row of elimination step k
  std::vector<double> udiag_;         ///< U diagonal per elimination step
  std::vector<std::vector<SparseEntry>> lcol_;  ///< L entries (row, value)
  std::vector<std::vector<SparseEntry>> ucol_;  ///< U entries (step j<k, value)
  std::vector<Eta> etas_;
  mutable std::vector<double> work_;  ///< dense scratch, row-indexed
  // factorize() scratch, kept so a warm refactorization allocates nothing.
  std::vector<int> step_of_;  ///< elimination step per row, -1 unpivoted
  std::vector<int> seen_;     ///< last basis column that touched each row
  std::vector<int> heap_;     ///< min-heap of steps the column reaches
  std::vector<int> rows_;     ///< touched unpivoted rows of the column
};

}  // namespace hare::opt
