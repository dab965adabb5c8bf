#include "opt/sparse_matrix.hpp"

#include "common/error.hpp"

namespace hare::opt {

void SparseMatrix::push(int col, int row, double value) {
  HARE_CHECK_MSG(col >= 0 && col < cols(), "sparse column out of range");
  HARE_CHECK_MSG(row >= 0 && row < rows_, "sparse row out of range");
  if (value == 0.0) return;
  auto& entries = cols_[static_cast<std::size_t>(col)];
  // Terms may repeat a variable within one constraint; accumulate in place
  // (base-row construction pushes rows in ascending order, so a duplicate
  // is always the most recent entry).
  if (!entries.empty() && entries.back().row == row) {
    entries.back().value += value;
    if (entries.back().value == 0.0) {
      entries.pop_back();
      --nnz_;
    }
    return;
  }
  entries.push_back(SparseEntry{row, value});
  ++nnz_;
}

}  // namespace hare::opt
