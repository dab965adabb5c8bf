// Shared fixtures and random-instance builders for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "profiler/profile_db.hpp"
#include "profiler/profiler.hpp"
#include "profiler/time_table.hpp"
#include "workload/job.hpp"
#include "workload/trace.hpp"

namespace hare::testing {

struct Instance {
  cluster::Cluster cluster;
  workload::JobSet jobs;
  profiler::TimeTable times;  ///< exact (noise-free) table
};

/// Random instance: a small heterogeneous cluster plus a generated trace;
/// the time table is the exact analytic one. `machines_per_domain > 0`
/// groups the 4-GPU machines into network domains of that size.
inline Instance make_random_instance(std::uint64_t seed,
                                     std::size_t job_count = 12,
                                     std::size_t gpu_count = 8,
                                     std::size_t machines_per_domain = 0) {
  Instance instance;
  instance.cluster = cluster::make_simulation_cluster(gpu_count, 25.0, 4,
                                                      machines_per_domain);

  workload::TraceConfig config;
  config.job_count = job_count;
  config.base_arrival_rate = 0.2;
  // Keep sync scales within the small cluster.
  config.sync_scales = {1, 2, 2, 4};
  config.rounds_scale_min = 0.05;
  config.rounds_scale_max = 0.2;
  workload::TraceGenerator generator(seed);
  instance.jobs = generator.generate(config);

  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, seed);
  instance.times = profiler.exact(instance.jobs, instance.cluster);
  return instance;
}

/// Tiny hand-built instance: `gpu_speeds[m]` scales a base task time; every
/// job has `rounds` rounds of `tasks_per_round` tasks with identical times.
inline Instance make_uniform_instance(std::vector<double> gpu_task_seconds,
                                      std::size_t job_count,
                                      std::uint32_t rounds,
                                      std::uint32_t tasks_per_round,
                                      Time sync_seconds = 0.1) {
  Instance instance;
  cluster::ClusterBuilder builder;
  for (std::size_t g = 0; g < gpu_task_seconds.size(); ++g) {
    builder.add_machine(cluster::GpuType::V100, 1, 25.0);
  }
  instance.cluster = builder.build();

  for (std::size_t j = 0; j < job_count; ++j) {
    workload::JobSpec spec;
    spec.model = workload::ModelType::ResNet50;
    spec.rounds = rounds;
    spec.tasks_per_round = tasks_per_round;
    instance.jobs.add_job(spec);
  }

  instance.times =
      profiler::TimeTable(instance.jobs.job_count(), instance.cluster.gpu_count());
  for (const auto& job : instance.jobs.jobs()) {
    for (std::size_t g = 0; g < gpu_task_seconds.size(); ++g) {
      instance.times.set(job.id, GpuId(static_cast<int>(g)),
                         gpu_task_seconds[g], sync_seconds);
    }
  }
  return instance;
}

/// A profile db's entries as sorted saved lines (header dropped): its
/// contents, independent of hash order.
inline std::vector<std::string> profile_db_lines(
    const profiler::ProfileDb& db) {
  std::stringstream stream;
  db.save(stream);
  std::string header;
  std::getline(stream, header);
  std::vector<std::string> lines;
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace hare::testing
