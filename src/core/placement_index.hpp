// Indexed GPU-availability structure for the planning hot loops.
//
// Both the fluid relaxation pass and Algorithm 1's list scheduler place one
// task at a time with an argmin over GPUs — either earliest-available
// (line 12's literal argmin φ_m) or earliest-finish
// (argmin max(t_i, φ_m) + T^c_{i,m}). The seed implementation rescanned all
// G GPUs per task through per-element TimeTable calls, fit checks, and a
// branchy incumbent update. This index replaces both scans:
//
//  * earliest_available — the GPU horizon φ lives in an ordered set, so the
//    first memory-fitting entry is the lexicographic minimum of (φ, gpu),
//    exactly what the serial scan's strict-< update rule selects: O(log G)
//    per query instead of O(G). The set is built lazily on the first query
//    (earliest-finish pipelines never pay for it) and re-keyed via node
//    handles on φ updates — no per-placement allocation.
//  * earliest_finish — argmin over max(t_i, φ_m) + T^c is a min over two
//    independent per-GPU orders (φ and T^c); in the congested regime the
//    planner lives in, every pruned tree walk degenerates to visiting most
//    GPUs through cache-hostile pointer chasing. Instead the index
//    expands a masked T^c row per job from its table columns (+∞ where the
//    task does not fit device memory) and runs a branch-free 4-lane
//    strided scan over the flat (φ, masked T^c) arrays: four independent
//    incumbent chains give the compiler ILP/SIMD freedom while each lane
//    preserves the serial scan's first-strict-< tie-break; the lane merge
//    compares (finish, gpu) lexicographically, so the selected candidate —
//    and therefore the whole schedule — is bit-identical to the seed loop
//    at a fraction of its per-element cost.
//
// Clusters of kBucketedIndexMinGpus GPUs or more, whose tables have few
// columns (profiled tables have one per GPU class), use the bucketed index
// of gpu_bucket_index.hpp instead, which keeps one masked T^c value per job
// and (domain, GPU type, table column) bucket rather than a row per GPU.
//
// Queries and set_phi are serial-planner operations (one task placed at a
// time); the lazily built φ-set means the index must not be shared across
// threads mid-build.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "common/types.hpp"
#include "core/gpu_bucket_index.hpp"
#include "profiler/time_table.hpp"
#include "workload/feasibility.hpp"

namespace hare::core {

namespace detail {

#if defined(__SSE2__)

/// SSE2 kernel for the earliest-finish scan: four strided incumbent chains
/// over (φ, masked T^c). min_pd keeps the earlier value on ties (the
/// serial strict-< rule) and the cmplt mask re-selects a lane's argmin only
/// on a strict improvement; indices ride along as doubles (exact up to
/// 2^53 GPUs). Returns the first unprocessed index; lanes land in
/// lane_best/lane_arg[0..3] (arg < 0 = lane saw only non-fitting +∞ rows).
inline std::size_t scan_lanes_sse2(const Time* row, const Time* phi,
                                   std::size_t n, Time release,
                                   double* lane_best, double* lane_arg) {
  const __m128d vrel = _mm_set1_pd(release);
  __m128d best0 = _mm_set1_pd(kTimeInfinity);
  __m128d best1 = best0;
  __m128d arg0 = _mm_set1_pd(-1.0);
  __m128d arg1 = arg0;
  __m128d idx0 = _mm_set_pd(1.0, 0.0);  // lanes {g, g+1}
  __m128d idx1 = _mm_set_pd(3.0, 2.0);  // lanes {g+2, g+3}
  const __m128d step = _mm_set1_pd(4.0);
  std::size_t g = 0;
  for (; g + 4 <= n; g += 4) {
    const __m128d f0 = _mm_add_pd(_mm_max_pd(vrel, _mm_loadu_pd(phi + g)),
                                  _mm_loadu_pd(row + g));
    const __m128d f1 = _mm_add_pd(_mm_max_pd(vrel, _mm_loadu_pd(phi + g + 2)),
                                  _mm_loadu_pd(row + g + 2));
    const __m128d lt0 = _mm_cmplt_pd(f0, best0);
    const __m128d lt1 = _mm_cmplt_pd(f1, best1);
    best0 = _mm_min_pd(best0, f0);
    best1 = _mm_min_pd(best1, f1);
    arg0 = _mm_or_pd(_mm_and_pd(lt0, idx0), _mm_andnot_pd(lt0, arg0));
    arg1 = _mm_or_pd(_mm_and_pd(lt1, idx1), _mm_andnot_pd(lt1, arg1));
    idx0 = _mm_add_pd(idx0, step);
    idx1 = _mm_add_pd(idx1, step);
  }
  _mm_storeu_pd(lane_best, best0);
  _mm_storeu_pd(lane_best + 2, best1);
  _mm_storeu_pd(lane_arg, arg0);
  _mm_storeu_pd(lane_arg + 2, arg1);
  return g;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HARE_HAVE_AVX2_DISPATCH 1

/// AVX2 variant of the same kernel: eight incumbent chains, compiled with a
/// target attribute and selected at runtime, so the baseline build still
/// runs on any x86-64. Identical selection semantics — lane decomposition
/// does not change the merged (finish, gpu) lexicographic minimum.
__attribute__((target("avx2"))) inline std::size_t scan_lanes_avx2(
    const Time* row, const Time* phi, std::size_t n, Time release,
    double* lane_best, double* lane_arg) {
  const __m256d vrel = _mm256_set1_pd(release);
  __m256d best0 = _mm256_set1_pd(kTimeInfinity);
  __m256d best1 = best0;
  __m256d arg0 = _mm256_set1_pd(-1.0);
  __m256d arg1 = arg0;
  __m256d idx0 = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);  // lanes {g .. g+3}
  __m256d idx1 = _mm256_set_pd(7.0, 6.0, 5.0, 4.0);  // lanes {g+4 .. g+7}
  const __m256d step = _mm256_set1_pd(8.0);
  std::size_t g = 0;
  for (; g + 8 <= n; g += 8) {
    const __m256d f0 = _mm256_add_pd(
        _mm256_max_pd(vrel, _mm256_loadu_pd(phi + g)), _mm256_loadu_pd(row + g));
    const __m256d f1 =
        _mm256_add_pd(_mm256_max_pd(vrel, _mm256_loadu_pd(phi + g + 4)),
                      _mm256_loadu_pd(row + g + 4));
    const __m256d lt0 = _mm256_cmp_pd(f0, best0, _CMP_LT_OQ);
    const __m256d lt1 = _mm256_cmp_pd(f1, best1, _CMP_LT_OQ);
    best0 = _mm256_min_pd(best0, f0);
    best1 = _mm256_min_pd(best1, f1);
    arg0 = _mm256_blendv_pd(arg0, idx0, lt0);
    arg1 = _mm256_blendv_pd(arg1, idx1, lt1);
    idx0 = _mm256_add_pd(idx0, step);
    idx1 = _mm256_add_pd(idx1, step);
  }
  _mm256_storeu_pd(lane_best, best0);
  _mm256_storeu_pd(lane_best + 4, best1);
  _mm256_storeu_pd(lane_arg, arg0);
  _mm256_storeu_pd(lane_arg + 4, arg1);
  return g;
}

[[nodiscard]] inline bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}
#endif  // x86-64 gcc/clang
#endif  // __SSE2__

}  // namespace detail

struct PlacementCandidate {
  static constexpr std::size_t kNoGpu = std::numeric_limits<std::size_t>::max();

  std::size_t gpu = kNoGpu;
  Time start = 0.0;
  Time finish = kTimeInfinity;

  [[nodiscard]] bool valid() const { return gpu != kNoGpu; }
};

/// Lexicographic argmin of (max(release, φ) + row, gpu) over a flat row of
/// n cells, +∞ where a GPU cannot take the task. Four (SSE2) or eight
/// (AVX2) strided incumbent chains, merged in lane order; any lane
/// decomposition selects the same (finish, gpu) lexicographic minimum as
/// the serial strict-< scan, because each lane keeps its first strict
/// minimum and the merge breaks finish ties toward the lower GPU id.
/// Returns an invalid candidate when every cell is +∞.
[[nodiscard]] inline PlacementCandidate earliest_finish_scan(
    const Time* row, const Time* phi, std::size_t n, Time release) {
  PlacementCandidate chosen;
  std::size_t g = 0;
#if defined(__SSE2__)
  if (n >= 8) {
    // Branch-free SIMD incumbents; non-fitting GPUs carry +∞ and never
    // win a strict comparison. AVX2 (8 chains) is picked at runtime.
    alignas(32) double lane_best[8];
    alignas(32) double lane_arg[8];
    std::size_t lanes = 4;
#if defined(HARE_HAVE_AVX2_DISPATCH)
    if (n >= 16 && detail::cpu_has_avx2()) {
      g = detail::scan_lanes_avx2(row, phi, n, release, lane_best, lane_arg);
      lanes = 8;
    } else
#endif
    {
      g = detail::scan_lanes_sse2(row, phi, n, release, lane_best, lane_arg);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (lane_arg[l] < 0.0) continue;  // lane saw only non-fitting GPUs
      const std::size_t lane_gpu = static_cast<std::size_t>(lane_arg[l]);
      if (lane_best[l] < chosen.finish ||
          (lane_best[l] == chosen.finish && lane_gpu < chosen.gpu)) {
        chosen = PlacementCandidate{lane_gpu, 0.0, lane_best[l]};
      }
    }
  }
#else
  {
    // Portable four-chain unroll: independent incumbents give the
    // compiler ILP without changing any selected value.
    Time best[4] = {kTimeInfinity, kTimeInfinity, kTimeInfinity,
                    kTimeInfinity};
    constexpr std::size_t kNoGpu = PlacementCandidate::kNoGpu;
    std::size_t arg[4] = {kNoGpu, kNoGpu, kNoGpu, kNoGpu};
    for (; g + 4 <= n; g += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        const Time finish = std::max(release, phi[g + l]) + row[g + l];
        if (finish < best[l]) {
          best[l] = finish;
          arg[l] = g + l;
        }
      }
    }
    for (std::size_t l = 0; l < 4; ++l) {
      if (arg[l] == kNoGpu) continue;  // lane saw only non-fitting GPUs
      if (best[l] < chosen.finish ||
          (best[l] == chosen.finish && arg[l] < chosen.gpu)) {
        chosen = PlacementCandidate{arg[l], 0.0, best[l]};
      }
    }
  }
#endif
  for (; g < n; ++g) {  // tail; indices above every lane winner
    if (row[g] == kTimeInfinity) continue;  // does not fit device memory
    const Time finish = std::max(release, phi[g]) + row[g];
    if (finish < chosen.finish) chosen = PlacementCandidate{g, 0.0, finish};
  }
  if (chosen.valid()) chosen.start = std::max(release, phi[chosen.gpu]);
  return chosen;
}

/// Cluster width at which PlacementIndex tries the bucketed index. A query
/// probes every bucket and each placement updates a bucket tree, so narrow
/// clusters are faster on the flat SIMD scan. On Fluid plans with two jobs
/// per GPU, exact tables and 64-GPU domains (Release, 4-vCPU x86-64),
/// buckets save ~20% at 512 GPUs and ~32% at 1,024, and ~10-15% at 256
/// and 384; at 128 the two are within host noise.
inline constexpr std::size_t kBucketedIndexMinGpus = 512;

/// Fewest GPUs per bucket, on average, at which PlacementIndex keeps the
/// bucketed index: a table with about as many columns as GPUs (the dense
/// layout, or one split cell by cell) makes small buckets, whose probes
/// cost more than the flat scan's SIMD lanes. On the same Fluid plans at
/// 1,024 GPUs with columns of k GPUs, buckets cost 2.4x the flat scan at
/// k = 8, 1.5x at k = 16 and 1.25x at k = 24, break even at k = 32 and
/// save 25-30% at k = 48-64. 24 rather than 32 keeps buckets on racked
/// clusters of 16 domains (512 GPUs in 19 buckets), where the
/// (domain, type) index always ran them.
inline constexpr std::size_t kBucketedIndexMinGpusPerBucket = 24;

class PlacementIndex {
 public:
  using Candidate = PlacementCandidate;

  /// Builds the per-job T^c rows masked by the fitting matrix.
  /// `initial_phi` may be empty (all GPUs free at 0).
  ///
  /// With a `cluster` of at least kBucketedIndexMinGpus GPUs, queries go
  /// through a per-(domain, type, column) GpuBucketIndex — O(buckets ·
  /// log B) instead of O(G) — when its buckets average at least
  /// kBucketedIndexMinGpusPerBucket GPUs.
  PlacementIndex(const profiler::TimeTable& times, std::size_t gpu_count,
                 const std::vector<std::vector<char>>& fits,
                 const std::vector<Time>& initial_phi = {},
                 const cluster::Cluster* cluster = nullptr)
      : gpu_count_(gpu_count), phi_(gpu_count, 0.0) {
    if (!initial_phi.empty()) phi_ = initial_phi;
    if (cluster != nullptr && gpu_count >= kBucketedIndexMinGpus) {
      sites_ = gpu_sites(*cluster);
      build_buckets(times);
    }
    append_jobs(times, fits);
  }

  /// True when queries run through the bucketed index.
  [[nodiscard]] bool bucketed() const { return buckets_.has_value(); }

  /// Jobs whose masked rows the index currently holds.
  [[nodiscard]] std::size_t job_count() const { return job_count_; }

  /// Build the masked T^c rows of jobs [job_count(), times.job_count()):
  /// the constructor's build, and the append-only extension that lets a
  /// standing index follow a growing instance instead of being rebuilt
  /// O(jobs × GPUs) per planning batch. A bucketed index keeps one value
  /// per bucket and job (GpuBucketIndex::collapse_row), not a row per GPU,
  /// so wide clusters never write the jobs × GPUs matrix. When the table's
  /// column map changed since the buckets were built (a split column), the
  /// buckets are rebuilt for the new map and every job's values re-read,
  /// so no query probes a stale map.
  void append_jobs(const profiler::TimeTable& times,
                   const std::vector<std::vector<char>>& fits) {
    if (buckets_ && times.column_map() != bucket_columns_) {
      job_count_ = 0;
      build_buckets(times);
    }
    const std::size_t old_jobs = job_count_;
    const std::size_t jobs = times.job_count();
    if (jobs <= old_jobs) return;
    job_count_ = jobs;
    if (buckets_) {
      const std::size_t width = buckets_->bucket_count();
      bucket_tc_.resize(jobs * width);
      for (std::size_t j = old_jobs; j < jobs; ++j) {
        buckets_->collapse_row(times.tc_columns(JobId(static_cast<int>(j))),
                               fits[j], bucket_tc_.data() + j * width);
      }
      return;
    }
    mask_rows(times, fits, old_jobs, jobs);
  }

  [[nodiscard]] Time phi(std::size_t gpu) const { return phi_[gpu]; }
  [[nodiscard]] const std::vector<Time>& phi() const { return phi_; }

  void set_phi(std::size_t gpu, Time value) {
    if (phi_set_built_) {
      // Node-handle reuse: re-key the existing tree node instead of paying
      // a deallocate/allocate pair on every placement.
      auto node = by_phi_.extract({phi_[gpu], gpu});
      node.value() = {value, gpu};
      by_phi_.insert(std::move(node));
    }
    if (buckets_) buckets_->set_phi(gpu, value);
    phi_[gpu] = value;
  }

  /// Re-seed every GPU horizon at once (empty = all free at 0). Lets one
  /// index — and its job-masked T^c rows, the expensive part — serve both
  /// the relaxation's fluid pass and Algorithm 1's list-scheduling pass.
  void reset_phi(std::span<const Time> initial_phi) {
    if (initial_phi.empty()) {
      std::fill(phi_.begin(), phi_.end(), 0.0);
    } else {
      phi_.assign(initial_phi.begin(), initial_phi.end());
    }
    if (buckets_) buckets_->reset_phi(phi_);
    by_phi_.clear();
    phi_set_built_ = false;
  }

  /// Lexicographic argmin of (φ, gpu) over fitting GPUs; start is
  /// max(release, φ).
  [[nodiscard]] Candidate earliest_available(JobId job, Time release) const {
    if (buckets_) {
      const GpuBucketIndex::Candidate c =
          buckets_->earliest_available(bucket_row(job), release);
      return c.valid() ? Candidate{c.gpu, c.start, c.finish} : Candidate{};
    }
    if (!phi_set_built_) {
      for (std::size_t g = 0; g < gpu_count_; ++g) by_phi_.insert({phi_[g], g});
      phi_set_built_ = true;
    }
    const Time* row = masked_row(job);
    for (const auto& [p, g] : by_phi_) {
      if (row[g] == kTimeInfinity) continue;  // does not fit device memory
      const Time start = std::max(release, p);
      return Candidate{g, start, start};
    }
    return {};
  }

  /// Lexicographic argmin of (max(release, φ) + T^c, gpu) over fitting
  /// GPUs: the bucketed index when engaged, else earliest_finish_scan over
  /// the job's masked row.
  [[nodiscard]] Candidate earliest_finish(JobId job, Time release) const {
    if (buckets_) {
      const GpuBucketIndex::Candidate c =
          buckets_->earliest_finish(bucket_row(job), release);
      return c.valid() ? Candidate{c.gpu, c.start, c.finish} : Candidate{};
    }
    return earliest_finish_scan(masked_row(job), phi_.data(), gpu_count_,
                                release);
  }

 private:
  /// Bucket the GPUs by (site, column of `times`) when the buckets are
  /// wide enough to pay, else drop them for the flat scan.
  void build_buckets(const profiler::TimeTable& times) {
    buckets_.reset();
    bucket_tc_ = {};
    bucket_columns_ = {};
    GpuBucketIndex index(sites_, times.column_map(), phi_);
    if (index.bucket_count() * kBucketedIndexMinGpusPerBucket > gpu_count_) {
      return;
    }
    buckets_.emplace(std::move(index));
    bucket_columns_ = times.column_map();
  }

  /// Flat-scan rows of jobs [from, to): T^c where the job fits, else +∞,
  /// expanded from the job's table columns.
  void mask_rows(const profiler::TimeTable& times,
                 const std::vector<std::vector<char>>& fits, std::size_t from,
                 std::size_t to) {
    masked_tc_.resize(to * gpu_count_);
    const std::uint32_t* column_of = times.column_map().data();
    for (std::size_t j = from; j < to; ++j) {
      const Time* tc = times.tc_columns(JobId(static_cast<int>(j)));
      const auto& job_fits = fits[j];
      Time* row = masked_tc_.data() + j * gpu_count_;
      for (std::size_t g = 0; g < gpu_count_; ++g) {
        row[g] = job_fits[g] ? tc[column_of[g]] : kTimeInfinity;
      }
    }
  }

  [[nodiscard]] const Time* masked_row(JobId job) const {
    return masked_tc_.data() +
           static_cast<std::size_t>(job.value()) * gpu_count_;
  }

  [[nodiscard]] const Time* bucket_row(JobId job) const {
    return bucket_tc_.data() +
           static_cast<std::size_t>(job.value()) * buckets_->bucket_count();
  }

  std::size_t gpu_count_ = 0;
  std::vector<Time> phi_;
  std::size_t job_count_ = 0;
  /// Flat scan: T^c per (job, gpu); +∞ where the job's task does not fit.
  std::vector<Time> masked_tc_;
  /// Bucketed index: the same masked T^c per (job, bucket).
  std::vector<Time> bucket_tc_;
  mutable std::set<std::pair<Time, std::size_t>> by_phi_;
  mutable bool phi_set_built_ = false;
  /// Per GPU, its (domain, type) site; empty on narrow or cluster-less
  /// indexes, which never bucket.
  std::vector<std::uint32_t> sites_;
  /// Engaged on wide clusters with few enough buckets.
  std::optional<GpuBucketIndex> buckets_;
  /// The column map buckets_ was built for.
  std::vector<std::uint32_t> bucket_columns_;
};

/// Reusable φ-independent planning buffers: the memory-fitting matrix and
/// the placement index (whose job-masked T^c rows are the expensive part).
/// One planning invocation builds them once; the relaxation's fluid pass
/// and Algorithm 1's list scheduler both reuse them via index_for(). A
/// scratch may also outlive one invocation — the incremental planners carry
/// it across batches through HareScheduler::IncrementalState, so a
/// streaming instance pays append-only cost per batch (sync below).
struct PlannerScratch {
  std::vector<std::vector<char>> fits;  ///< [job][gpu] memory fit
  std::optional<PlacementIndex> index;

  /// Follow the caller's instance across planning calls. The first use
  /// builds the fitting matrix; later uses extend it for jobs appended
  /// since (the streaming contract: between calls sharing one scratch the
  /// job set may only grow and the cluster is fixed). A scratch that no
  /// longer matches the instance — more rows than jobs, or a different GPU
  /// axis — starts over from scratch.
  void sync(const cluster::Cluster& cluster, const workload::JobSet& jobs) {
    if (fits.size() > jobs.job_count() ||
        (!fits.empty() && fits.front().size() != cluster.gpu_count())) {
      fits.clear();
      index.reset();
    }
    if (fits.size() < jobs.job_count()) {
      workload::append_fitting_rows(cluster, jobs, fits);
    }
  }

  /// sync(), then the placement index with its horizons set to `phi`:
  /// built on first use, else extended for appended jobs and re-seeded.
  PlacementIndex& index_for(const cluster::Cluster& cluster,
                            const workload::JobSet& jobs,
                            const profiler::TimeTable& times,
                            std::span<const Time> phi) {
    sync(cluster, jobs);
    if (index) {
      index->append_jobs(times, fits);
      index->reset_phi(phi);
    } else {
      index.emplace(times, cluster.gpu_count(), fits,
                    std::vector<Time>(phi.begin(), phi.end()), &cluster);
    }
    return *index;
  }
};

}  // namespace hare::core
