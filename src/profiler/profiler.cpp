#include "profiler/profiler.hpp"

#include <cmath>
#include <cstdlib>
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

using ShapeKey = ShapeRows::key_type;

/// One distinct job shape: everything a (T^c, T^s) row depends on besides
/// the cluster itself.
struct JobShape {
  workload::ModelType model{};
  std::uint32_t batch = 0;
  std::uint32_t batches_per_task = 0;
};

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

/// The shapes jobs [first, end) use, resolved against `rows`: each job's
/// map entry, and the entries of the shapes `rows` did not hold yet in
/// first-seen job order (their rows still to be interned). The order is a
/// pure function of the jobset, so every later pass (seed draws,
/// interning, binding) is deterministic, and a jobset enumerated in
/// several appended slices meets its shapes in the order one whole
/// enumeration would.
struct ShapeSlots {
  std::vector<ShapeRows::iterator> of_job;  ///< per job from `first`
  std::vector<ShapeRows::iterator> fresh;   ///< new shapes, first-seen
};

ShapeSlots enumerate_shapes(const workload::JobSet& jobs, std::size_t first,
                            ShapeRows& rows) {
  HARE_SPAN("profiler", "profiler.enumerate");
  ShapeSlots slots;
  slots.of_job.reserve(jobs.job_count() - first);
  for (std::size_t j = first; j < jobs.job_count(); ++j) {
    const workload::Job& job = jobs.job(JobId(static_cast<int>(j)));
    const auto [it, inserted] =
        rows.try_emplace(shape_key(job), TimeTable::kZeroRow);
    if (inserted) slots.fresh.push_back(it);
    slots.of_job.push_back(it);
  }
  return slots;
}

JobShape shape_of(const ShapeRows::iterator& slot) {
  const auto& [model, batch, batches_per_task] = slot->first;
  return JobShape{static_cast<workload::ModelType>(model), batch,
                  batches_per_task};
}

/// Shape an empty table on the cluster's classes with every job of `jobs`,
/// or grow a shaped one's job axis to cover them. Returns the first job the
/// table did not cover.
std::size_t extend_jobs(const workload::JobSet& jobs,
                        const GpuClasses& classes, TimeTable& table) {
  if (table.job_count() == 0 && table.gpu_count() == 0) {
    table.reset(jobs.job_count(), classes.class_map());
    return 0;
  }
  HARE_CHECK_MSG(table.gpu_count() == classes.class_map().size(),
                 "profiled table does not match the cluster");
  const std::size_t first = table.job_count();
  HARE_CHECK_MSG(first <= jobs.job_count(),
                 "profiled table holds more jobs than the jobset");
  for (std::size_t j = first; j < jobs.job_count(); ++j) table.append_job();
  return first;
}

/// Point every job from `first` on at its shape's interned row.
void bind_rows(std::size_t first, const ShapeSlots& slots, TimeTable& table) {
  for (std::size_t k = 0; k < slots.of_job.size(); ++k) {
    table.bind_row(JobId(static_cast<int>(first + k)), slots.of_job[k]->second);
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
  TimeTable table;
  ShapeRows rows;
  profile_appended(jobs, cluster, table, rows, db);
  return table;
}

void Profiler::profile_appended(const workload::JobSet& jobs,
                                const cluster::Cluster& cluster,
                                TimeTable& table, ShapeRows& rows,
                                ProfileDb* db) {
  HARE_SPAN("profiler", "profiler.profile");
  const std::size_t gpu_count = cluster.gpu_count();
  const GpuClasses classes(cluster);
  const std::size_t first = extend_jobs(jobs, classes, table);
  profiling_cost_ = 0.0;
  memo_hits_ = memo_misses_ = rows_ = 0;
  if (first == jobs.job_count() || gpu_count == 0) return;

  // Pass 1 (serial): canonical shape + measurement-key enumeration. Every
  // (shape, GPU class) resolves to one entry slot; first-seen keys either
  // hit the db or get a measurement seed drawn *here*, in canonical order,
  // so the fan-out below cannot perturb the RNG stream. A key's first GPU
  // is the first GPU of its class and classes run in first-GPU order, so
  // keys, seeds, uplinks and db lookups come in the order a walk over
  // every (shape, GPU) cell would meet them.
  const ShapeSlots slots = enumerate_shapes(jobs, first, rows);
  const std::size_t class_count = classes.size();

  std::vector<ProfileKey> keys;              // entry slot -> key
  std::vector<ProfileEntry> entries;         // resolved values
  std::vector<char> needs_measure;           // entry slot -> db miss?
  std::vector<std::uint64_t> seeds;          // per-slot measurement seed
  std::vector<double> uplinks;               // per-slot uplink (Gbit/s)
  std::vector<std::uint32_t> class_entry(slots.fresh.size() * class_count);
  std::unordered_map<ProfileKey, std::uint32_t, ProfileKeyHash> slot_of;
  for (std::size_t s = 0; s < slots.fresh.size(); ++s) {
    const JobShape shape = shape_of(slots.fresh[s]);
    for (std::size_t c = 0; c < class_count; ++c) {
      const double uplink = classes.uplink_gbps(c);
      const ProfileKey key = make_key(shape, classes.type(c), uplink);
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
    for (std::size_t s = 0; s < slots.fresh.size(); ++s) {
      for (std::size_t c = 0; c < class_count; ++c) {
        const ProfileEntry& entry = entries[class_entry[s * class_count + c]];
        tc_row[c] = entry.tc;
        ts_row[c] = entry.ts;
      }
      slots.fresh[s]->second = table.intern_row(tc_row.data(), ts_row.data());
    }
    bind_rows(first, slots, table);
  }

  const std::uint64_t cells =
      static_cast<std::uint64_t>(jobs.job_count() - first) * gpu_count;
  std::uint64_t measured = 0;
  for (const char m : needs_measure) measured += static_cast<std::uint64_t>(m);
  memo_misses_ = entries.size();
  memo_hits_ = cells - memo_misses_;
  rows_ = slots.fresh.size();
  auto& metrics = profiler_metrics();
  metrics.cells.add(cells);
  metrics.memo_hits.add(memo_hits_);
  metrics.measurements.add(measured);
  metrics.rows_computed.add(rows_);
}

TimeTable Profiler::exact(const workload::JobSet& jobs,
                          const cluster::Cluster& cluster) const {
  TimeTable table;
  ShapeRows rows;
  exact_appended(jobs, cluster, table, rows);
  return table;
}

void Profiler::exact_appended(const workload::JobSet& jobs,
                              const cluster::Cluster& cluster,
                              TimeTable& table, ShapeRows& rows) const {
  HARE_SPAN("profiler", "profiler.exact");
  const std::size_t gpu_count = cluster.gpu_count();
  const GpuClasses classes(cluster);
  const std::size_t first = extend_jobs(jobs, classes, table);
  memo_hits_ = memo_misses_ = rows_ = 0;
  if (first == jobs.job_count() || gpu_count == 0) return;

  const ShapeSlots slots = enumerate_shapes(jobs, first, rows);

  // One exact row per shape, built on this thread: shapes × classes
  // perf-model evaluations are too little work to pay for a fan-out.
  {
    HARE_SPAN("profiler", "profiler.build_rows");
    std::vector<Time> tc_row(classes.size()), ts_row(classes.size());
    for (const ShapeRows::iterator& slot : slots.fresh) {
      const JobShape shape = shape_of(slot);
      exact_row(perf_, classes, shape.model, shape.batch,
                shape.batches_per_task, tc_row.data(), ts_row.data());
      slot->second = table.intern_row(tc_row.data(), ts_row.data());
    }
    bind_rows(first, slots, table);
  }

  const std::uint64_t cells =
      static_cast<std::uint64_t>(jobs.job_count() - first) * gpu_count;
  memo_misses_ = static_cast<std::uint64_t>(slots.fresh.size()) * classes.size();
  memo_hits_ = cells - memo_misses_;
  rows_ = slots.fresh.size();
  auto& metrics = profiler_metrics();
  metrics.cells.add(cells);
  metrics.memo_hits.add(memo_hits_);
  metrics.rows_computed.add(rows_);
}

}  // namespace hare::profiler
