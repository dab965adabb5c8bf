#include "profiler/profiler.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "profiler/gpu_classes.hpp"

namespace hare::profiler {

namespace {

/// One distinct job shape: everything a (T^c, T^s) row depends on besides
/// the cluster itself.
struct JobShape {
  workload::ModelType model{};
  std::uint32_t batch = 0;
  std::uint32_t batches_per_task = 0;
};

using ShapeKey = std::tuple<int, std::uint32_t, std::uint32_t>;

ShapeKey shape_key(const workload::Job& job) {
  return {static_cast<int>(job.spec.model), job.effective_batch_size(),
          job.spec.batches_per_task};
}

ProfileKey make_key(const JobShape& shape, cluster::GpuType gpu,
                    double network_gbps) {
  ProfileKey key;
  key.model = shape.model;
  key.gpu = gpu;
  key.batch_size = shape.batch;
  key.batches_per_task = shape.batches_per_task;
  key.network_mbps = static_cast<std::uint32_t>(network_gbps * 1000.0 + 0.5);
  return key;
}

/// Mirrors exp::serial_requested() without linking hare_exp (the dependency
/// points the other way): HARE_EXP_SERIAL set to anything but "" or "0"
/// forces the serial path.
bool serial_env_requested() {
  const char* env = std::getenv("HARE_EXP_SERIAL");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Deterministic fan-out following the exp-engine contract: fn(i) for i in
/// [0, n), results landing in caller-owned slots indexed by i. Inline when
/// serial was requested, when already on a pool worker (nested fan-out), or
/// when the shared pool has a single worker (dispatch would only add queue
/// overhead). Every branch computes identical numbers — the profiler's RNG
/// seeds are drawn serially before this is called.
template <typename Fn>
void for_each_index(bool serial, std::size_t n, Fn&& fn) {
  if (!serial && !serial_env_requested() && n > 1 &&
      common::ThreadPool::current() == nullptr &&
      common::shared_pool().size() > 1) {
    common::shared_pool().parallel_for_each(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

/// Canonical first-seen shape enumeration: shapes[] in job order, plus each
/// job's shape slot. The order is a pure function of the jobset, so every
/// later pass (seed draws, interning, binding) is deterministic.
std::vector<JobShape> enumerate_shapes(const workload::JobSet& jobs,
                                       std::vector<std::uint32_t>& shape_of) {
  HARE_SPAN("profiler", "profiler.enumerate");
  std::vector<JobShape> shapes;
  shape_of.resize(jobs.job_count());
  std::map<ShapeKey, std::uint32_t> seen;
  for (const auto& job : jobs.jobs()) {
    const auto [it, inserted] =
        seen.try_emplace(shape_key(job), static_cast<std::uint32_t>(shapes.size()));
    if (inserted) {
      shapes.push_back(JobShape{job.spec.model, job.effective_batch_size(),
                                job.spec.batches_per_task});
    }
    shape_of[static_cast<std::size_t>(job.id.value())] = it->second;
  }
  return shapes;
}

/// Point every job at its shape's interned row.
void bind_rows(const workload::JobSet& jobs,
               const std::vector<std::uint32_t>& shape_of,
               const std::vector<TimeTable::RowId>& row_of_shape,
               TimeTable& table) {
  for (const auto& job : jobs.jobs()) {
    table.bind_row(job.id, row_of_shape[shape_of[static_cast<std::size_t>(
                               job.id.value())]]);
  }
}

struct ProfilerMetrics {
  obs::Counter& cells = obs::counter("profiler.cells");
  obs::Counter& memo_hits = obs::counter("profiler.memo_hits");
  obs::Counter& measurements = obs::counter("profiler.measurements");
  obs::Counter& rows_computed = obs::counter("profiler.rows_computed");
};

ProfilerMetrics& profiler_metrics() {
  static ProfilerMetrics metrics;
  return metrics;
}

}  // namespace

TimeTable Profiler::profile(const workload::JobSet& jobs,
                            const cluster::Cluster& cluster, ProfileDb* db) {
  HARE_SPAN("profiler", "profiler.profile");
  const std::size_t gpu_count = cluster.gpu_count();
  const GpuClasses classes(cluster);
  TimeTable table(jobs.job_count(), classes.class_map());
  profiling_cost_ = 0.0;
  memo_hits_ = memo_misses_ = rows_ = 0;
  if (jobs.job_count() == 0 || gpu_count == 0) return table;

  // Pass 1 (serial): canonical shape + measurement-key enumeration. Every
  // (shape, GPU class) resolves to one entry slot; first-seen keys either
  // hit the db or get a measurement seed drawn *here*, in canonical order,
  // so the fan-out below cannot perturb the RNG stream. A key's first GPU
  // is the first GPU of its class and classes run in first-GPU order, so
  // keys, seeds, uplinks and db lookups come in the order a walk over
  // every (shape, GPU) cell would meet them.
  std::vector<std::uint32_t> shape_of;
  const std::vector<JobShape> shapes = enumerate_shapes(jobs, shape_of);
  const std::size_t class_count = classes.size();

  std::vector<ProfileKey> keys;              // entry slot -> key
  std::vector<ProfileEntry> entries;         // resolved values
  std::vector<char> needs_measure;           // entry slot -> db miss?
  std::vector<std::uint64_t> seeds;          // per-slot measurement seed
  std::vector<double> uplinks;               // per-slot uplink (Gbit/s)
  std::vector<std::uint32_t> class_entry(shapes.size() * class_count);
  std::unordered_map<ProfileKey, std::uint32_t, ProfileKeyHash> slot_of;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t c = 0; c < class_count; ++c) {
      const double uplink = classes.uplink_gbps(c);
      const ProfileKey key = make_key(shapes[s], classes.type(c), uplink);
      const auto [it, inserted] =
          slot_of.try_emplace(key, static_cast<std::uint32_t>(entries.size()));
      class_entry[s * class_count + c] = it->second;
      if (!inserted) continue;
      keys.push_back(key);
      uplinks.push_back(uplink);
      std::optional<ProfileEntry> hit;
      if (db != nullptr) hit = db->lookup(key);
      entries.push_back(hit.value_or(ProfileEntry{}));
      needs_measure.push_back(hit ? 0 : 1);
      seeds.push_back(hit ? 0 : rng_.next_u64());
    }
  }

  // Pass 2 (parallel): run the measurement loop for every db miss. Each
  // slot draws from its own pre-seeded stream, so slot i's numbers are
  // independent of which thread (or order) computed it.
  std::vector<Time> costs(entries.size(), 0.0);
  {
    HARE_SPAN("profiler", "profiler.measure");
    for_each_index(config_.serial, entries.size(), [&](std::size_t i) {
      if (!needs_measure[i]) return;
      const ProfileKey& key = keys[i];
      common::Rng rng(seeds[i]);
      // Measure: warmups discarded, then average `sample_batches` noisy
      // batch times. Noise is multiplicative log-normal with the configured
      // CV, matching how testbed batch times scatter around their mean.
      const Time true_batch =
          perf_.batch_time(key.model, key.gpu, key.batch_size);
      const double sigma =
          std::sqrt(std::log(1.0 + config_.measurement_noise_cv *
                                       config_.measurement_noise_cv));
      Time cost = 0.0;
      for (std::uint32_t w = 0; w < config_.warmup_batches; ++w) {
        cost += true_batch * rng.log_normal(-sigma * sigma / 2.0, sigma) *
                2.0;  // warmup batches run slower (cold caches)
      }
      Time measured_sum = 0.0;
      const std::uint32_t samples = std::max(1u, config_.sample_batches);
      for (std::uint32_t s = 0; s < samples; ++s) {
        const Time one = true_batch * rng.log_normal(-sigma * sigma / 2.0, sigma);
        measured_sum += one;
        cost += one;
      }
      const Time measured_batch = measured_sum / samples;

      ProfileEntry entry;
      entry.tc = measured_batch * key.batches_per_task;
      entry.ts = perf_.sync_time(key.model, uplinks[i]);
      entry.sample_count = samples;
      entries[i] = entry;
      costs[i] = cost;
    });
  }

  // Pass 3 (serial): accumulate cost and extend the db in canonical slot
  // order — the floating-point sum and the db contents are the same no
  // matter how pass 2 was scheduled.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!needs_measure[i]) continue;
    profiling_cost_ += costs[i];
    if (db != nullptr) db->store(keys[i], entries[i]);
  }

  // Pass 4 (serial): intern one class row per shape and point every job at
  // its shape's row. Cost is O(shapes × classes), not O(jobs × G).
  {
    HARE_SPAN("profiler", "profiler.build_rows");
    std::vector<Time> tc_row(class_count), ts_row(class_count);
    std::vector<TimeTable::RowId> row_of_shape(shapes.size());
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      for (std::size_t c = 0; c < class_count; ++c) {
        const ProfileEntry& entry = entries[class_entry[s * class_count + c]];
        tc_row[c] = entry.tc;
        ts_row[c] = entry.ts;
      }
      row_of_shape[s] = table.intern_row(tc_row.data(), ts_row.data());
    }
    bind_rows(jobs, shape_of, row_of_shape, table);
  }

  const std::uint64_t cells =
      static_cast<std::uint64_t>(jobs.job_count()) * gpu_count;
  std::uint64_t measured = 0;
  for (const char m : needs_measure) measured += static_cast<std::uint64_t>(m);
  memo_misses_ = entries.size();
  memo_hits_ = cells - memo_misses_;
  rows_ = shapes.size();
  auto& metrics = profiler_metrics();
  metrics.cells.add(cells);
  metrics.memo_hits.add(memo_hits_);
  metrics.measurements.add(measured);
  metrics.rows_computed.add(rows_);
  return table;
}

TimeTable Profiler::exact(const workload::JobSet& jobs,
                          const cluster::Cluster& cluster) const {
  HARE_SPAN("profiler", "profiler.exact");
  const std::size_t gpu_count = cluster.gpu_count();
  const GpuClasses classes(cluster);
  TimeTable table(jobs.job_count(), classes.class_map());
  memo_hits_ = memo_misses_ = rows_ = 0;
  if (jobs.job_count() == 0 || gpu_count == 0) return table;

  std::vector<std::uint32_t> shape_of;
  const std::vector<JobShape> shapes = enumerate_shapes(jobs, shape_of);

  // One exact row per shape, built on this thread: shapes × classes
  // perf-model evaluations are too little work to pay for a fan-out.
  {
    HARE_SPAN("profiler", "profiler.build_rows");
    std::vector<Time> tc_row(classes.size()), ts_row(classes.size());
    std::vector<TimeTable::RowId> row_of_shape(shapes.size());
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const JobShape& shape = shapes[s];
      exact_row(perf_, classes, shape.model, shape.batch,
                shape.batches_per_task, tc_row.data(), ts_row.data());
      row_of_shape[s] = table.intern_row(tc_row.data(), ts_row.data());
    }
    bind_rows(jobs, shape_of, row_of_shape, table);
  }

  const std::uint64_t cells =
      static_cast<std::uint64_t>(jobs.job_count()) * gpu_count;
  memo_misses_ = static_cast<std::uint64_t>(shapes.size()) * classes.size();
  memo_hits_ = cells - memo_misses_;
  rows_ = shapes.size();
  auto& metrics = profiler_metrics();
  metrics.cells.add(cells);
  metrics.memo_hits.add(memo_hits_);
  metrics.rows_computed.add(rows_);
  return table;
}

}  // namespace hare::profiler
