// Tests for the online scheduling extension (the paper's future work):
// incremental Algorithm 1 planning at arrival events.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/online_hare.hpp"
#include "obs/metrics.hpp"
#include "sched/gavel_fifo.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace hare::core {
namespace {

using testing::Instance;
using testing::make_random_instance;

class OnlineValidityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineValidityTest, ProducesValidExecutableSchedules) {
  const Instance inst = make_random_instance(GetParam());
  OnlineHareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  EXPECT_EQ(schedule.task_count(), inst.jobs.task_count());
  EXPECT_NO_THROW(sim::validate_schedule(schedule, inst.jobs));

  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);
  for (const auto& job : result.jobs) EXPECT_GT(job.completion, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineValidityTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

TEST(OnlineHare, OnePlanningRoundPerDistinctArrival) {
  const Instance inst = make_random_instance(210, 10, 8);
  OnlineHareScheduler scheduler;
  (void)scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  // Arrivals from the MMPP are almost surely distinct.
  EXPECT_EQ(scheduler.planning_rounds(), inst.jobs.job_count());
}

TEST(OnlineHare, BatchingWindowCoalescesRounds) {
  const Instance inst = make_random_instance(211, 12, 8);
  OnlineHareConfig config;
  config.batching_window_s = 1e9;  // everything in one batch
  OnlineHareScheduler scheduler(config);
  (void)scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  EXPECT_EQ(scheduler.planning_rounds(), 1u);
}

TEST(OnlineHare, SingleBatchEquivalentInstanceStillValid) {
  // With one giant batch the online planner sees the whole instance at
  // once; its result should be close to offline Hare's (same relaxation,
  // same Algorithm 1 — the only difference is π is batch-local).
  const Instance inst = make_random_instance(212);
  OnlineHareConfig online_config;
  online_config.batching_window_s = 1e9;
  OnlineHareScheduler online(online_config);
  HareScheduler offline;

  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const double online_jct =
      simulator.run(online.schedule({inst.cluster, inst.jobs, inst.times}))
          .weighted_jct;
  const double offline_jct =
      simulator.run(offline.schedule({inst.cluster, inst.jobs, inst.times}))
          .weighted_jct;
  EXPECT_LT(common::relative_difference(online_jct, offline_jct), 0.25);
}

TEST(OnlineHare, CompetitiveWithOfflineAcrossSeeds) {
  // Online pays a bounded regret vs offline: across seeds the aggregate
  // weighted JCT stays within 2x of offline Hare and beats the offline
  // FIFO baseline.
  double online_total = 0.0;
  double offline_total = 0.0;
  double fifo_total = 0.0;
  for (std::uint64_t seed = 220; seed < 226; ++seed) {
    const Instance inst = make_random_instance(seed, 16, 8);
    const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
    OnlineHareScheduler online;
    HareScheduler offline;
    sched::GavelFifoScheduler fifo;
    online_total +=
        simulator.run(online.schedule({inst.cluster, inst.jobs, inst.times}))
            .weighted_jct;
    offline_total +=
        simulator.run(offline.schedule({inst.cluster, inst.jobs, inst.times}))
            .weighted_jct;
    fifo_total +=
        simulator.run(fifo.schedule({inst.cluster, inst.jobs, inst.times}))
            .weighted_jct;
  }
  EXPECT_GE(online_total, offline_total * 0.99);  // can't beat hindsight much
  EXPECT_LE(online_total, offline_total * 2.0);
  EXPECT_LT(online_total, fifo_total);
}

TEST(OnlineHare, IncrementalStateAccumulatesMonotonically) {
  const Instance inst = make_random_instance(230, 8, 4);
  HareScheduler planner;
  HareScheduler::IncrementalState state;
  sim::Schedule schedule;

  // The placement counter is bumped once per pass by the tasks it placed.
  const obs::Counter& placed = obs::counter("planner.tasks_placed");
  std::vector<Time> previous_phi(inst.cluster.gpu_count(), 0.0);
  for (std::size_t j = 0; j < inst.jobs.job_count(); ++j) {
    const JobId id(static_cast<int>(j));
    const std::vector<JobId> batch{id};
    const std::uint64_t placed_before = placed.value();
    (void)planner.schedule_jobs({inst.cluster, inst.jobs, inst.times}, batch,
                                state, schedule);
    EXPECT_EQ(placed.value() - placed_before, inst.jobs.job(id).task_count());
    for (std::size_t g = 0; g < previous_phi.size(); ++g) {
      EXPECT_GE(state.phi[g], previous_phi[g]);
    }
    previous_phi = state.phi;
  }
  EXPECT_EQ(schedule.task_count(), inst.jobs.task_count());
  EXPECT_NO_THROW(sim::validate_schedule(schedule, inst.jobs));

  const std::uint64_t placed_before = placed.value();
  (void)planner.schedule({inst.cluster, inst.jobs, inst.times});
  EXPECT_EQ(placed.value() - placed_before, inst.jobs.task_count());
}

TEST(OnlineHare, RejectsMalformedBatches) {
  const Instance inst = make_random_instance(250, 6, 4);
  const sched::SchedulerInput input{inst.cluster, inst.jobs, inst.times};
  HareScheduler planner;
  const std::vector<Time> h(inst.jobs.task_count(), 0.0);
  const std::vector<std::vector<JobId>> malformed = {
      {JobId(2), JobId(1)},             // unsorted
      {JobId(0), JobId(3), JobId(3)},   // duplicate
      {JobId(0), JobId(static_cast<int>(inst.jobs.job_count()))},  // unknown
  };
  for (const std::vector<JobId>& batch : malformed) {
    HareScheduler::IncrementalState state;
    sim::Schedule schedule;
    EXPECT_THROW((void)planner.schedule_jobs(input, batch, state, schedule),
                 common::Error);
    EXPECT_THROW((void)planner.schedule_jobs_with_h(input, batch, h, state,
                                                    schedule),
                 common::Error);
    // Nothing was planned before the check fired.
    EXPECT_EQ(schedule.task_count(), 0u);
  }
}

TEST(OnlineHare, RejectsUnsupportedModes) {
  const Instance inst = make_random_instance(240, 4, 4);
  HareConfig config;
  config.relaxation.mode = RelaxMode::LpCuts;
  HareScheduler planner(config);
  HareScheduler::IncrementalState state;
  sim::Schedule schedule;
  std::vector<JobId> batch;
  for (const auto& job : inst.jobs.jobs()) batch.push_back(job.id);
  EXPECT_THROW((void)planner.schedule_jobs(
                   {inst.cluster, inst.jobs, inst.times}, batch, state,
                   schedule),
               common::Error);
}

}  // namespace
}  // namespace hare::core
