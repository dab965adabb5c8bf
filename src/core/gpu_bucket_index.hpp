// Per-(network domain, GPU type, table column) bucketed GPU index:
// sublinear placement lookups for very wide clusters.
//
// The flat earliest-finish scan is O(G) per task no matter how clever its
// SIMD lanes are. But the candidate expression max(release, φ_g) + T^c only
// depends on g through φ_g and T^c_{i,g}, and a time table stores T^c per
// column (one per GPU class on profiled tables, see time_table.hpp), not
// per GPU. Group the GPUs into buckets keyed by (machine network domain,
// GPU type, table column) — the column fixes T^c and the type fixes the
// memory fit, so every job's masked T^c is one value per bucket by
// construction — and the per-task argmin decomposes into one O(log B)
// segment-tree query per bucket plus a merge over the handful of buckets:
//
//  * earliest_finish: inside a bucket every GPU shares T^c, so the bucket's
//    best candidate is either its global φ-minimum GPU (when φ_min >
//    release — nothing is idle, take the soonest-free) or the lowest-id GPU
//    with φ ≤ release (something is idle; all idle GPUs tie on finish and
//    the serial scan breaks ties toward the lower id). Both are one
//    descent of a min-φ segment tree whose ties resolve toward the lower
//    GPU id. Bucket winners merge lexicographically on (finish, gpu) —
//    bit-identical to the flat scan.
//  * earliest_available: the bucket winner is its root (φ_min, argmin-id);
//    merge on (φ, gpu).
//
// The buckets hold for one column map. A table whose columns are split
// after the buckets were built (a per-cell set() on a shared column) needs
// new buckets; PlacementIndex rebuilds them when it sees the map change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"

namespace hare::core {

class GpuBucketIndex {
 public:
  static constexpr std::size_t kNoGpu = std::numeric_limits<std::size_t>::max();

  struct Candidate {
    std::size_t gpu = kNoGpu;
    Time start = 0.0;
    Time finish = kTimeInfinity;

    [[nodiscard]] bool valid() const { return gpu != kNoGpu; }
  };

  GpuBucketIndex() = default;

  /// Bucket GPU g by (sites[g], column_of[g]) — sites from gpu_sites() —
  /// ascending GPU id within each bucket, and seed every φ horizon.
  GpuBucketIndex(const std::vector<std::uint32_t>& sites,
                 const std::vector<std::uint32_t>& column_of,
                 const std::vector<Time>& phi) {
    const std::size_t n = sites.size();
    gpu_bucket_.assign(n, 0);
    gpu_pos_.assign(n, 0);
    // Bucket ids in first-appearance order over ascending GPU id —
    // deterministic, and bucket-major iteration visits GPUs in an order
    // that merges back to the global lexicographic minimum.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> ids;
    for (std::size_t g = 0; g < n; ++g) {
      const auto [it, inserted] =
          ids.try_emplace({sites[g], column_of[g]},
                          static_cast<std::uint32_t>(buckets_.size()));
      if (inserted) {
        buckets_.emplace_back();
        buckets_.back().column = column_of[g];
      }
      Bucket& bucket = buckets_[it->second];
      gpu_bucket_[g] = it->second;
      gpu_pos_[g] = static_cast<std::uint32_t>(bucket.gpus.size());
      bucket.gpus.push_back(g);
    }
    for (auto& bucket : buckets_) bucket.build_tree();
    reset_phi(phi);
  }

  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  /// A job's masked T^c per bucket into `out[0, bucket_count())`: its
  /// column's value where the bucket's GPUs fit the job, else +∞. `fits`
  /// must be a function of the GPU type (device memory), as fitting
  /// matrices are, so that each bucket's first GPU speaks for all of it.
  void collapse_row(const Time* columns, const std::vector<char>& fits,
                    Time* out) const {
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const Bucket& bucket = buckets_[b];
      out[b] = fits[bucket.gpus.front()] ? columns[bucket.column]
                                          : kTimeInfinity;
    }
  }

  void set_phi(std::size_t gpu, Time value) {
    buckets_[gpu_bucket_[gpu]].update(gpu_pos_[gpu], value);
  }

  void reset_phi(const std::vector<Time>& phi) {
    for (auto& bucket : buckets_) {
      for (std::size_t p = 0; p < bucket.gpus.size(); ++p) {
        bucket.leaf_set(p, phi[bucket.gpus[p]]);
      }
      bucket.rebuild_internal();
    }
  }

  /// Lexicographic argmin of (max(release, φ) + T^c, gpu) over fitting
  /// GPUs, given the job's collapse_row() values; matches the flat scan bit
  /// for bit.
  [[nodiscard]] Candidate earliest_finish(const Time* bucket_tc,
                                          Time release) const {
    Candidate chosen;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const Bucket& bucket = buckets_[b];
      const Time tc = bucket_tc[b];
      if (tc == kTimeInfinity) continue;  // bucket does not fit the job
      const auto [phi_min, arg_min] = bucket.root();
      std::size_t pos;
      Time start;
      if (phi_min > release) {
        // Nothing idle: min finish at the soonest-free GPU; the tree
        // already breaks φ ties toward the lower position (= lower id).
        pos = arg_min;
        start = phi_min;
      } else {
        // At least one idle GPU: all of them tie on finish = release + tc,
        // and the serial scan's first-strict-< rule keeps the lowest id.
        pos = bucket.leftmost_at_most(release);
        start = release;
      }
      const std::size_t gpu = bucket.gpus[pos];
      const Time finish = start + tc;
      if (finish < chosen.finish ||
          (finish == chosen.finish && gpu < chosen.gpu)) {
        chosen = Candidate{gpu, start, finish};
      }
    }
    return chosen;
  }

  /// Lexicographic argmin of (φ, gpu) over fitting GPUs, given the job's
  /// collapse_row() values; start is max(release, φ).
  [[nodiscard]] Candidate earliest_available(const Time* bucket_tc,
                                             Time release) const {
    std::size_t best_gpu = kNoGpu;
    Time best_phi = kTimeInfinity;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const Bucket& bucket = buckets_[b];
      if (bucket_tc[b] == kTimeInfinity) continue;
      const auto [phi_min, arg_min] = bucket.root();
      const std::size_t gpu = bucket.gpus[arg_min];
      if (phi_min < best_phi || (phi_min == best_phi && gpu < best_gpu)) {
        best_phi = phi_min;
        best_gpu = gpu;
      }
    }
    if (best_gpu == kNoGpu) return {};
    const Time start = std::max(release, best_phi);
    return Candidate{best_gpu, start, start};
  }

 private:
  /// Min-φ segment tree over one bucket's GPUs (by position = ascending
  /// global id). Internal nodes carry (min φ, argmin position); ties
  /// resolve toward the left child, i.e. the lower GPU id.
  struct Bucket {
    std::vector<std::size_t> gpus;  ///< global ids, ascending
    std::uint32_t column = 0;       ///< table column every GPU reads
    std::vector<Time> tree_phi;
    std::vector<std::uint32_t> tree_arg;
    std::size_t base = 1;

    void build_tree() {
      base = 1;
      while (base < gpus.size()) base <<= 1;
      tree_phi.assign(2 * base, kTimeInfinity);
      tree_arg.assign(2 * base, 0);
      for (std::size_t p = 0; p < base; ++p) {
        tree_arg[base + p] = static_cast<std::uint32_t>(p);
      }
    }

    void leaf_set(std::size_t pos, Time value) { tree_phi[base + pos] = value; }

    void rebuild_internal() {
      for (std::size_t i = base - 1; i >= 1; --i) pull(i);
    }

    void pull(std::size_t i) {
      const std::size_t l = 2 * i;
      const std::size_t r = 2 * i + 1;
      // <= keeps the left child on ties: lower position, lower GPU id.
      if (tree_phi[l] <= tree_phi[r]) {
        tree_phi[i] = tree_phi[l];
        tree_arg[i] = tree_arg[l];
      } else {
        tree_phi[i] = tree_phi[r];
        tree_arg[i] = tree_arg[r];
      }
    }

    void update(std::size_t pos, Time value) {
      std::size_t i = base + pos;
      tree_phi[i] = value;
      for (i >>= 1; i >= 1; i >>= 1) pull(i);
    }

    /// (min φ, argmin position) over the bucket.
    [[nodiscard]] std::pair<Time, std::size_t> root() const {
      return {tree_phi[1], tree_arg[1]};
    }

    /// Position of the lowest-id GPU with φ ≤ bound. Precondition: the
    /// root's min φ is ≤ bound (checked by the caller).
    [[nodiscard]] std::size_t leftmost_at_most(Time bound) const {
      std::size_t i = 1;
      while (i < base) {
        i = 2 * i + (tree_phi[2 * i] <= bound ? 0 : 1);
      }
      return i - base;
    }
  };

  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> gpu_bucket_;
  std::vector<std::uint32_t> gpu_pos_;
};

/// Per GPU, an id of its (machine network domain, GPU type) pair, in
/// first-appearance order: the cluster half of a GpuBucketIndex key.
[[nodiscard]] inline std::vector<std::uint32_t> gpu_sites(
    const cluster::Cluster& cluster) {
  std::vector<std::uint32_t> sites(cluster.gpu_count());
  std::map<std::pair<std::size_t, cluster::GpuType>, std::uint32_t> ids;
  for (const auto& gpu : cluster.gpus()) {
    const auto key = std::pair{cluster.machine(gpu.machine).domain, gpu.type};
    sites[static_cast<std::size_t>(gpu.id.value())] =
        ids.try_emplace(key, static_cast<std::uint32_t>(ids.size()))
            .first->second;
  }
  return sites;
}

}  // namespace hare::core
