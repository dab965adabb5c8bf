// Tests for the sync-scale advisor and schedule plan serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "core/advisor.hpp"
#include "core/hare.hpp"
#include "test_util.hpp"

namespace hare {
namespace {

using testing::Instance;
using testing::make_random_instance;

// ----------------------------------------------------------------- advisor --

TEST(Advisor, ComputeBoundModelScalesOnHomogeneousGpus) {
  // ResNet50 on 8 V100s: near-linear parallel efficiency, so the advisor
  // recommends a wide scale.
  const auto cluster = cluster::make_heterogeneity_cluster(
      cluster::HeterogeneityLevel::Low, 8);
  workload::JobSpec spec;
  spec.model = workload::ModelType::ResNet50;
  spec.rounds = 16;  // interpreted at scale 1; scale k runs 16/k rounds
  const workload::PerfModel perf;

  const auto advice = core::advise_sync_scale(cluster, spec, perf);
  ASSERT_EQ(advice.size(), 4u);
  EXPECT_EQ(advice.front().scale, 1u);
  EXPECT_DOUBLE_EQ(advice.front().efficiency, 1.0);
  // Wider is faster...
  for (std::size_t i = 1; i < advice.size(); ++i) {
    EXPECT_LT(advice[i].completion, advice[i - 1].completion);
  }
  // ...and efficiency stays high on identical GPUs (sync is the only tax).
  EXPECT_GT(advice.back().efficiency, 0.8);
  EXPECT_EQ(core::recommend_sync_scale(cluster, spec, perf, 0.5), 8u);
}

TEST(Advisor, HeterogeneousClusterDiscouragesWideGangs) {
  // One V100 + seven K80s: every task beyond the first drags the round to
  // K80 speed, so wide scales have poor efficiency for a model with a 7x
  // V100/K80 gap.
  cluster::Cluster cluster = cluster::ClusterBuilder{}
                                 .add_machine(cluster::GpuType::V100, 1)
                                 .add_machine(cluster::GpuType::K80, 7)
                                 .build();
  workload::JobSpec spec;
  spec.model = workload::ModelType::ResNet50;
  spec.rounds = 16;  // interpreted at scale 1; scale k runs 16/k rounds
  const workload::PerfModel perf;

  const auto advice = core::advise_sync_scale(cluster, spec, perf);
  // Efficiency at scale 8 is far below homogeneous levels.
  EXPECT_LT(advice.back().efficiency, 0.6);
  EXPECT_LT(core::recommend_sync_scale(cluster, spec, perf, 0.7), 8u);
}

TEST(Advisor, SkipsScalesThatDoNotFit) {
  const auto cluster = cluster::make_heterogeneity_cluster(
      cluster::HeterogeneityLevel::Low, 2);
  workload::JobSpec spec;
  spec.model = workload::ModelType::GraphSAGE;
  spec.rounds = 2;
  const auto advice =
      core::advise_sync_scale(cluster, spec, workload::PerfModel{});
  for (const auto& entry : advice) EXPECT_LE(entry.scale, 2u);
}

TEST(Advisor, RejectsEmptyCandidates) {
  const auto cluster = cluster::make_testbed_cluster();
  workload::JobSpec spec;
  EXPECT_THROW((void)core::advise_sync_scale(cluster, spec,
                                             workload::PerfModel{}, {}),
               common::Error);
}

// ------------------------------------------------------- plan serialization --

TEST(PlanSerialization, RoundTripsExactly) {
  const Instance inst = make_random_instance(800, 8, 6);
  core::HareScheduler scheduler;
  const sim::Schedule original =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});

  std::stringstream stream;
  sim::save_schedule(original, stream);
  const sim::Schedule loaded = sim::load_schedule(stream, inst.jobs);

  ASSERT_EQ(loaded.sequences.size(), original.sequences.size());
  for (std::size_t g = 0; g < original.sequences.size(); ++g) {
    EXPECT_EQ(loaded.sequences[g], original.sequences[g]);
  }
  ASSERT_EQ(loaded.predicted_start.size(), original.predicted_start.size());
  for (std::size_t i = 0; i < original.predicted_start.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.predicted_start[i], original.predicted_start[i]);
  }
  EXPECT_DOUBLE_EQ(loaded.predicted_objective,
                   original.predicted_objective);

  // And the loaded plan executes to identical results.
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  EXPECT_DOUBLE_EQ(simulator.run(loaded).weighted_jct,
                   simulator.run(original).weighted_jct);
}

TEST(PlanSerialization, FileRoundTrip) {
  const Instance inst = make_random_instance(801, 4, 4);
  core::HareScheduler scheduler;
  const sim::Schedule original =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const std::string path = ::testing::TempDir() + "/hare_plan.txt";
  sim::save_schedule_file(original, path);
  const sim::Schedule loaded = sim::load_schedule_file(path, inst.jobs);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.task_count(), original.task_count());
}

TEST(PlanSerialization, RejectsCorruptPlans) {
  const Instance inst = make_random_instance(802, 3, 4);
  std::stringstream bad_header("not-a-plan 1 1 0.0\n0\n\n");
  EXPECT_THROW((void)sim::load_schedule(bad_header, inst.jobs),
               common::Error);

  // Size fields the file cannot back up are rejected before anything is
  // allocated from them.
  auto job_set = [](std::uint32_t tasks) {
    workload::JobSet jobs;
    workload::JobSpec spec;
    spec.rounds = 1;
    spec.tasks_per_round = tasks;
    jobs.add_job(spec);
    return jobs;
  };
  const workload::JobSet one_task = job_set(1);
  for (const char* plan : {
           "hare-plan-v1 1 1 0\n4611686018427387904 0\n0\n",  // length 2^62
           "hare-plan-v1 1 1 0\n100000000000 0\n0\n",  // length 1e11
           "hare-plan-v1 100000000000000 1 0\n1 0\n0\n",  // 1e14 GPUs
           "hare-plan-v1 1 100000000000000 0\n1 0\n0\n",  // 1e14 starts
       }) {
    SCOPED_TRACE(plan);
    std::stringstream stream(plan);
    EXPECT_THROW((void)sim::load_schedule(stream, one_task), common::Error);
  }
  std::stringstream short_starts("hare-plan-v1 1 1 0\n2 0 1\n0\n");
  EXPECT_THROW((void)sim::load_schedule(short_starts, job_set(2)),
               common::Error);

  // A structurally valid file for the wrong job set fails validation.
  core::HareScheduler scheduler;
  const sim::Schedule plan =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  std::stringstream stream;
  sim::save_schedule(plan, stream);
  const Instance other = make_random_instance(803, 5, 4);
  EXPECT_THROW((void)sim::load_schedule(stream, other.jobs), common::Error);
}

}  // namespace
}  // namespace hare
