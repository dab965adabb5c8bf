#include "opt/queyranne.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/error.hpp"

namespace hare::opt {

QueyranneCut separate_queyranne_cut(const std::vector<double>& t,
                                    const std::vector<double>& x,
                                    double tolerance) {
  HARE_CHECK_MSG(t.size() == x.size(), "times/point size mismatch");
  const std::size_t n = t.size();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (x[a] != x[b]) return x[a] < x[b];
    return a < b;
  });

  // Scan prefixes of the sorted order, tracking the most violated one.
  double lhs = 0.0;       // sum T_i x_i over prefix
  double t_sum = 0.0;     // sum T_i
  double t_sq_sum = 0.0;  // sum T_i^2
  double best_violation = tolerance;
  std::size_t best_prefix = 0;

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    lhs += t[i] * x[i];
    t_sum += t[i];
    t_sq_sum += t[i] * t[i];
    const double rhs = 0.5 * (t_sum * t_sum - t_sq_sum);
    const double violation = rhs - lhs;
    if (violation > best_violation) {
      best_violation = violation;
      best_prefix = k + 1;
    }
  }

  QueyranneCut cut;
  if (best_prefix > 0) {
    cut.subset.assign(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(best_prefix));
    cut.violation = best_violation;
  }
  return cut;
}

const QueyranneCut& IncrementalSeparator::separate(const std::vector<double>& x,
                                                   double tolerance) {
  HARE_CHECK_MSG(t_.size() == x.size(), "times/point size mismatch");
  const std::size_t n = t_.size();
  auto by_point = [&](std::size_t a, std::size_t b) {
    if (x[a] != x[b]) return x[a] < x[b];
    return a < b;
  };

  if (last_x_.empty()) {
    // First call: full sort, exactly as separate_queyranne_cut does.
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), by_point);
    last_resorted_ = n;
    last_x_ = x;
    scan_prefixes(x, tolerance);
    return last_cut_;
  }

  // Dirty set: coordinates whose value moved since the previous call.
  // Exact comparison is deliberate — the planner separates snapped
  // (1e-6 grid) vertices, so unchanged means bitwise unchanged.
  is_dirty_.assign(n, 0);
  dirty_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] != last_x_[i]) {
      is_dirty_[i] = 1;
      dirty_.push_back(i);
    }
  }

  if (dirty_.empty()) {
    // Identical point: the most violated prefix is unchanged too.
    last_resorted_ = 0;
    return last_cut_;
  }

  // The clean subsequence of the previous order is still sorted under
  // (x, index) — none of its keys changed. Sort only the dirty block and
  // merge on the same comparator.
  clean_.clear();
  for (const std::size_t i : order_) {
    if (!is_dirty_[i]) clean_.push_back(i);
  }
  std::sort(dirty_.begin(), dirty_.end(), by_point);
  order_.clear();
  std::merge(clean_.begin(), clean_.end(), dirty_.begin(), dirty_.end(),
             std::back_inserter(order_), by_point);

  last_resorted_ = dirty_.size();
  last_x_ = x;
  scan_prefixes(x, tolerance);
  return last_cut_;
}

void IncrementalSeparator::scan_prefixes(const std::vector<double>& x,
                                         double tolerance) {
  // Same prefix scan as separate_queyranne_cut, over the maintained order.
  double lhs = 0.0;
  double t_sum = 0.0;
  double t_sq_sum = 0.0;
  double best_violation = tolerance;
  std::size_t best_prefix = 0;

  for (std::size_t k = 0; k < order_.size(); ++k) {
    const std::size_t i = order_[k];
    lhs += t_[i] * x[i];
    t_sum += t_[i];
    t_sq_sum += t_[i] * t_[i];
    const double rhs = 0.5 * (t_sum * t_sum - t_sq_sum);
    const double violation = rhs - lhs;
    if (violation > best_violation) {
      best_violation = violation;
      best_prefix = k + 1;
    }
  }

  last_cut_.subset.clear();
  last_cut_.violation = 0.0;
  if (best_prefix > 0) {
    last_cut_.subset.assign(
        order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(best_prefix));
    last_cut_.violation = best_violation;
  }
}

double queyranne_full_set_bound(const std::vector<double>& t) {
  double t_sum = 0.0;
  double t_sq_sum = 0.0;
  for (double v : t) {
    t_sum += v;
    t_sq_sum += v * v;
  }
  return 0.5 * (t_sum * t_sum + t_sq_sum);
}

}  // namespace hare::opt
