// Per-(network-domain, GPU-type) bucketed GPU index: sublinear placement
// lookups for very wide clusters.
//
// The flat earliest-finish scan is O(G) per task no matter how clever its
// SIMD lanes are. But the candidate expression max(release, φ_g) + T^c only
// depends on g through φ_g and T^c_{i,g}, and on profiled clusters T^c is a
// function of the GPU *type* alone (the ProfileDb key is (model, type,
// batch, batches/task, uplink)). Group the GPUs into buckets keyed by
// (machine network domain, GPU type) — T^c and the memory fit are constant
// within a bucket — and the per-task argmin decomposes into one O(log B)
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
// Exactness precondition: the masked T^c row must be constant within every
// bucket. That holds for ProfileDb / exact tables but *not* for the noisy
// per-GPU profiler path, so PlacementIndex collapses each job's row to one
// value per bucket at build time (collapse_row) and silently keeps the flat
// scan when any bucket is mixed — the bucketed index is a wall-clock knob,
// never a semantics change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
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

  /// Bucket the cluster's GPUs by (machine domain, GPU type), ascending GPU
  /// id within each bucket, and seed every φ horizon (empty = all 0).
  explicit GpuBucketIndex(const cluster::Cluster& cluster,
                          const std::vector<Time>& initial_phi = {}) {
    const std::size_t n = cluster.gpu_count();
    gpu_bucket_.assign(n, 0);
    gpu_pos_.assign(n, 0);

    // Assign bucket ids in first-appearance order over ascending GPU id —
    // deterministic, and bucket-major iteration visits GPUs in an order
    // that merges back to the global lexicographic minimum.
    struct Key {
      std::size_t domain;
      cluster::GpuType type;
      bool operator==(const Key&) const = default;
    };
    std::vector<Key> keys;
    for (const auto& gpu : cluster.gpus()) {
      const Key key{cluster.machine(gpu.machine).domain, gpu.type};
      std::size_t b = 0;
      for (; b < keys.size(); ++b) {
        if (keys[b] == key) break;
      }
      if (b == keys.size()) {
        keys.push_back(key);
        buckets_.emplace_back();
      }
      auto& bucket = buckets_[b];
      const auto g = static_cast<std::size_t>(gpu.id.value());
      gpu_bucket_[g] = static_cast<std::uint32_t>(b);
      gpu_pos_[g] = static_cast<std::uint32_t>(bucket.gpus.size());
      bucket.gpus.push_back(g);
    }
    for (auto& bucket : buckets_) bucket.build_tree();
    reset_phi(initial_phi.empty() ? std::vector<Time>(n, 0.0) : initial_phi);
  }

  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  /// Collapse a job's masked T^c row (T^c where `fits`, +∞ elsewhere) to
  /// one value per bucket in `out[0, bucket_count())`. False when a bucket
  /// mixes values: the exactness precondition for queries does not hold.
  [[nodiscard]] bool collapse_row(const Time* tc, const std::vector<char>& fits,
                                  Time* out) const {
    const auto masked = [&](std::size_t g) {
      return fits[g] ? tc[g] : kTimeInfinity;
    };
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const std::vector<std::size_t>& gpus = buckets_[b].gpus;
      const Time v = masked(gpus.front());
      for (const std::size_t g : gpus) {
        if (masked(g) != v) return false;
      }
      out[b] = v;
    }
    return true;
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

}  // namespace hare::core
