// Cross-configuration property matrix: every (scheduler × cluster shape ×
// executor policy) combination must produce valid, complete, bound-
// respecting executions. These sweeps catch interaction bugs the focused
// unit tests miss.
#include <gtest/gtest.h>

#include <tuple>

#include "core/hare.hpp"
#include "test_util.hpp"

namespace hare {
namespace {

using testing::Instance;

enum class Which {
  Hare,
  HareStrict,
  HareLiteral,
  HareOnline,
  GavelFifo,
  Srtf,
  SchedHomo,
  SchedAllox,
};

std::unique_ptr<sched::Scheduler> make(Which which) {
  switch (which) {
    case Which::Hare: return std::make_unique<core::HareScheduler>();
    case Which::HareStrict: {
      core::HareConfig config;
      config.sync = core::SyncScheme::Strict;
      return std::make_unique<core::HareScheduler>(config);
    }
    case Which::HareLiteral: {
      core::HareConfig config;
      config.placement = core::Placement::EarliestAvailable;
      return std::make_unique<core::HareScheduler>(config);
    }
    case Which::HareOnline:
      return std::make_unique<core::OnlineHareScheduler>();
    case Which::GavelFifo: return std::make_unique<sched::GavelFifoScheduler>();
    case Which::Srtf: return std::make_unique<sched::SrtfScheduler>();
    case Which::SchedHomo: return std::make_unique<sched::SchedHomoScheduler>();
    case Which::SchedAllox:
      return std::make_unique<sched::SchedAlloxScheduler>();
  }
  return nullptr;
}

const char* which_name(Which which) {
  switch (which) {
    case Which::Hare: return "Hare";
    case Which::HareStrict: return "HareStrict";
    case Which::HareLiteral: return "HareLiteral";
    case Which::HareOnline: return "HareOnline";
    case Which::GavelFifo: return "GavelFifo";
    case Which::Srtf: return "Srtf";
    case Which::SchedHomo: return "SchedHomo";
    case Which::SchedAllox: return "SchedAllox";
  }
  return "?";
}

Instance make_instance(cluster::HeterogeneityLevel level, std::size_t gpus) {
  Instance instance;
  instance.cluster = cluster::make_heterogeneity_cluster(level, gpus);
  workload::TraceConfig config;
  config.job_count = 10;
  config.base_arrival_rate = 0.3;
  config.sync_scales = {1, 2, 2, 4};
  config.rounds_scale_min = 0.05;
  config.rounds_scale_max = 0.15;
  workload::TraceGenerator generator(2026);
  instance.jobs = generator.generate(config);
  profiler::Profiler profiler(workload::PerfModel{},
                              profiler::ProfilerConfig{}, 2026);
  instance.times = profiler.exact(instance.jobs, instance.cluster);
  return instance;
}

using MatrixParam =
    std::tuple<Which, cluster::HeterogeneityLevel, switching::SwitchPolicy>;

class MatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(MatrixTest, ValidBoundedExecution) {
  const auto [which, level, policy] = GetParam();
  const Instance inst = make_instance(level, 8);

  auto scheduler = make(which);
  const sim::Schedule schedule =
      scheduler->schedule({inst.cluster, inst.jobs, inst.times});
  ASSERT_EQ(schedule.task_count(), inst.jobs.task_count())
      << which_name(which);
  ASSERT_NO_THROW(sim::validate_schedule(schedule, inst.jobs));

  sim::SimConfig config;
  config.switching.policy = policy;
  config.use_memory_manager = policy == switching::SwitchPolicy::Hare;
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const sim::SimResult result = simulator.run(schedule);

  // Completion sanity.
  for (const auto& job : result.jobs) {
    EXPECT_GT(job.completion, 0.0);
    EXPECT_GE(job.jct(), 0.0);
  }
  // Objective respects the certified lower bound (a fast-switching
  // executor adds only overhead, never negative time).
  const double lb =
      core::combined_lower_bound(inst.cluster, inst.jobs, inst.times);
  EXPECT_GE(result.weighted_completion + 1e-6, lb) << which_name(which);
  // Utilization bounded.
  for (const auto& gpu : result.gpus) {
    EXPECT_LE(gpu.utilization(result.makespan), 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MatrixTest,
    ::testing::Combine(
        ::testing::Values(Which::Hare, Which::HareStrict, Which::HareLiteral,
                          Which::HareOnline, Which::GavelFifo, Which::Srtf,
                          Which::SchedHomo, Which::SchedAllox),
        ::testing::Values(cluster::HeterogeneityLevel::Low,
                          cluster::HeterogeneityLevel::Mid,
                          cluster::HeterogeneityLevel::High),
        ::testing::Values(switching::SwitchPolicy::Hare,
                          switching::SwitchPolicy::PipeSwitch)),
    [](const ::testing::TestParamInfo<MatrixParam>& param_info) {
      const Which which = std::get<0>(param_info.param);
      const cluster::HeterogeneityLevel level = std::get<1>(param_info.param);
      const switching::SwitchPolicy policy = std::get<2>(param_info.param);
      std::string name = which_name(which);
      switch (level) {
        case cluster::HeterogeneityLevel::Low: name += "_Low"; break;
        case cluster::HeterogeneityLevel::Mid: name += "_Mid"; break;
        case cluster::HeterogeneityLevel::High: name += "_High"; break;
      }
      name += policy == switching::SwitchPolicy::Hare ? "_HareSw" : "_PipeSw";
      return name;
    });

}  // namespace
}  // namespace hare
