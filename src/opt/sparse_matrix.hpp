// Column-compressed sparse matrix for the revised-simplex LP core.
//
// The constraint matrix of the Hare_Sched relaxation is >99% zeros (each
// row couples 1-3 variables), so the simplex stores it column-wise: pricing
// (dᵀ = c - yᵀA) and spike computation (B⁻¹a_q) both stream columns, and
// the basis factorization gathers basis columns directly.
//
// Columns are individually growable: appending a Queyranne cut row touches
// only the columns of the cut's variables (amortized push_back into
// per-column headroom) plus one new logical column — never a full-matrix
// copy.
#pragma once

#include <cstddef>
#include <vector>

namespace hare::opt {

struct SparseEntry {
  int row = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(int rows) : rows_(rows) {}

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return static_cast<int>(cols_.size()); }
  [[nodiscard]] std::size_t nonzeros() const { return nnz_; }

  /// Grow the row dimension by `extra` (new rows start empty).
  void add_rows(int extra) { rows_ += extra; }

  /// Reserve space for future columns (cut logicals).
  void reserve_columns(std::size_t n) { cols_.reserve(n); }

  /// Append an empty column and return its index.
  int add_column() {
    cols_.emplace_back();
    return static_cast<int>(cols_.size()) - 1;
  }

  /// Append an entry to column `col`. Rows within a column stay in the
  /// order pushed; callers push base rows first, cut rows later, so the
  /// column is row-sorted by construction. Zero values are dropped.
  void push(int col, int row, double value);

  [[nodiscard]] const std::vector<SparseEntry>& column(int j) const {
    return cols_[static_cast<std::size_t>(j)];
  }

  /// Dot product of column `j` with a dense row-indexed vector.
  [[nodiscard]] double column_dot(int j, const std::vector<double>& v) const {
    double sum = 0.0;
    for (const SparseEntry& e : cols_[static_cast<std::size_t>(j)]) {
      sum += e.value * v[static_cast<std::size_t>(e.row)];
    }
    return sum;
  }

  /// Scatter column `j`, scaled by `scale`, into a dense row-indexed
  /// accumulator.
  void scatter_column(int j, double scale, std::vector<double>& v) const {
    for (const SparseEntry& e : cols_[static_cast<std::size_t>(j)]) {
      v[static_cast<std::size_t>(e.row)] += scale * e.value;
    }
  }

 private:
  int rows_ = 0;
  std::vector<std::vector<SparseEntry>> cols_;
  std::size_t nnz_ = 0;
};

}  // namespace hare::opt
