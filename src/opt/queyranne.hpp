// Queyranne scheduling-polyhedron cut separation.
//
// Constraint (9) of Hare_Sched_RL, imposed over every subset S of the tasks
// assigned to one machine,
//
//   sum_{i in S} T_i x_i  >=  1/2 [ (sum_{i in S} T_i)^2 - sum_{i in S} T_i^2 ]
//
// is Queyranne's (1993) polyhedral description of single-machine completion
// time vectors. There are exponentially many subsets, but the most violated
// one at a point x̂ is always a *prefix* of the tasks sorted by ascending
// x̂ — so separation is an O(n log n) sort plus a linear scan. The LP-mode
// Hare relaxation alternates solve → separate → add-cut until no subset is
// violated, which reproduces what a commercial solver does with (9).
#pragma once

#include <cstddef>
#include <vector>

namespace hare::opt {

struct QueyranneCut {
  /// Indices (into the caller's task arrays) of the violated subset.
  std::vector<std::size_t> subset;
  /// rhs - lhs at the separation point (> 0 means violated).
  double violation = 0.0;
};

/// Find the most violated subset constraint at point `x` for tasks with
/// processing times `t` (both size n). Returns a cut with empty subset when
/// none is violated beyond `tolerance`.
[[nodiscard]] QueyranneCut separate_queyranne_cut(
    const std::vector<double>& t, const std::vector<double>& x,
    double tolerance = 1e-7);

/// Lower bound on sum of T_i * C_i over any single-machine order of the
/// given processing times (the full-set Queyranne rhs with C_i = x_i + T_i):
/// 1/2 [ (sum T)^2 + sum T^2 ].
[[nodiscard]] double queyranne_full_set_bound(const std::vector<double>& t);

/// Stateful separator for cutting-plane loops that call separation on the
/// same task set at a drifting sequence of points.
///
/// Re-sorting all n tasks every round is wasted work: between consecutive
/// LP rounds most coordinates of the (snapped) vertex do not move, so
/// the previous round's order is almost sorted. The separator keeps the
/// order and the last point; on the next call it splits the order into the
/// still-clean subsequence — which remains sorted, since those keys did not
/// change — and the dirty coordinates, sorts only the dirty ones, and
/// merges. The comparator is the exact (x, index) lexicographic key the
/// full sort uses, and every (x, index) key is distinct, so the merged
/// order is *identical* to a from-scratch sort and the emitted cut sequence
/// matches separate_queyranne_cut bit for bit.
///
/// When no coordinate changed the cached cut is returned without any scan.
class IncrementalSeparator {
 public:
  IncrementalSeparator() = default;
  /// `t` holds the fixed processing times; its size pins n for all calls.
  explicit IncrementalSeparator(std::vector<double> t) : t_(std::move(t)) {}

  /// Separate at `x` (size n). Returns the most violated prefix cut, empty
  /// subset when none exceeds `tolerance`. The reference to the cut stays
  /// valid until the next separate() call.
  [[nodiscard]] const QueyranneCut& separate(const std::vector<double>& x,
                                             double tolerance = 1e-7);

  [[nodiscard]] std::size_t size() const { return t_.size(); }
  /// Coordinates re-sorted by the last separate() call: n on the first call
  /// (or under a full sort), |dirty| after, 0 on a cached-cut hit. The
  /// planner aggregates this into its separation-work savings metric.
  [[nodiscard]] std::size_t last_resorted() const { return last_resorted_; }

 private:
  void scan_prefixes(const std::vector<double>& x, double tolerance);

  std::vector<double> t_;
  std::vector<double> last_x_;
  std::vector<std::size_t> order_;
  // Scratch reused across rounds to keep steady-state separation
  // allocation-free.
  std::vector<std::size_t> clean_;
  std::vector<std::size_t> dirty_;
  std::vector<char> is_dirty_;
  QueyranneCut last_cut_;
  std::size_t last_resorted_ = 0;
};

}  // namespace hare::opt
