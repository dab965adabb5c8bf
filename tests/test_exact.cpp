// Tests for the exact Hare_Sched solver, and the empirical validation of
// Theorem 4 against the TRUE optimum (not merely a lower bound).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/bounds.hpp"
#include "core/hare_scheduler.hpp"
#include "exact_schedule.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace hare::opt {
namespace {

using testing::Instance;
using testing::make_uniform_instance;
using testing::solve_exact_schedule;

TEST(ExactSchedule, SingleTaskOnFastestGpu) {
  const Instance inst = make_uniform_instance({3.0, 1.0}, 1, 1, 1, 0.2);
  const auto result =
      solve_exact_schedule(inst.cluster, inst.jobs, inst.times);
  EXPECT_DOUBLE_EQ(result.objective, 1.2);  // fastest GPU: tc 1 + ts 0.2
  EXPECT_EQ(result.gpu[0], GpuId(1));
  EXPECT_DOUBLE_EQ(result.start[0], 0.0);
}

TEST(ExactSchedule, TwoJobsOneGpuIsSpt) {
  // Jobs of length 1 and 3 on one GPU (ts=0.2, which overlaps the next
  // task's compute): SPT order completes at 1.2 and 1.0+3.0+0.2=4.2,
  // total 5.4; the reverse order totals 3.2 + (3.0+1.0+0.2) = 7.4.
  workload::JobSet jobs;
  workload::JobSpec a;
  a.rounds = 1;
  jobs.add_job(a);  // job 0: long
  workload::JobSpec b;
  b.rounds = 1;
  jobs.add_job(b);  // job 1: short
  const Instance shell = make_uniform_instance({1.0}, 1, 1, 1);
  profiler::TimeTable times(2, 1);
  times.set(JobId(0), GpuId(0), 3.0, 0.2);
  times.set(JobId(1), GpuId(0), 1.0, 0.2);

  const auto result = solve_exact_schedule(shell.cluster, jobs, times);
  EXPECT_NEAR(result.objective, 1.2 + 4.2, 1e-9);
  EXPECT_DOUBLE_EQ(result.start[1], 0.0);  // short first
}

TEST(ExactSchedule, RoundBarrierRespected) {
  // One job, two rounds of one task, tc=2, ts=0.5: round 2 starts at 2.5,
  // completes at 5.0.
  const Instance inst = make_uniform_instance({2.0}, 1, 2, 1, 0.5);
  const auto result =
      solve_exact_schedule(inst.cluster, inst.jobs, inst.times);
  EXPECT_NEAR(result.objective, 5.0, 1e-9);
  EXPECT_NEAR(result.start[1], 2.5, 1e-9);
}

TEST(ExactSchedule, ExploitsRelaxedSyncWhenOptimal) {
  // A 2-task round on a fast (1s) and very slow (10s) GPU pair: the
  // optimum serializes both tasks on the fast GPU (round ends ~2.1) rather
  // than ganging (round ends ~10.1).
  const Instance inst = make_uniform_instance({1.0, 10.0}, 1, 1, 2, 0.1);
  const auto result =
      solve_exact_schedule(inst.cluster, inst.jobs, inst.times);
  EXPECT_LT(result.objective, 2.5);
  EXPECT_EQ(result.gpu[0], GpuId(0));
  EXPECT_EQ(result.gpu[1], GpuId(0));
}

TEST(ExactSchedule, ArrivalsDelayStarts) {
  workload::JobSet jobs;
  workload::JobSpec spec;
  spec.rounds = 1;
  spec.arrival = 5.0;
  jobs.add_job(spec);
  const Instance shell = make_uniform_instance({1.0}, 1, 1, 1);
  profiler::TimeTable times(1, 1);
  times.set(JobId(0), GpuId(0), 1.0, 0.1);
  const auto result = solve_exact_schedule(shell.cluster, jobs, times);
  EXPECT_NEAR(result.objective, 6.1, 1e-9);
  EXPECT_NEAR(result.start[0], 5.0, 1e-9);
}

TEST(ExactSchedule, GuardsAgainstLargeInstances) {
  const Instance inst = make_uniform_instance({1.0}, 6, 2, 1);
  EXPECT_THROW(
      (void)solve_exact_schedule(inst.cluster, inst.jobs, inst.times, 8),
      common::Error);
}

// ------------------- Theorem 4 against the true optimum -------------------

class OptimalityGapTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalityGapTest, HareWithinGuaranteeOfTrueOptimum) {
  // Random tiny instances: 2-3 jobs, 1-2 rounds, up to ~8 tasks on 2-3
  // heterogeneous GPUs. Hare's realized objective must stay within
  // α(2+α) of the exact optimum, and typically lands much closer.
  common::Rng rng(GetParam());
  cluster::ClusterBuilder builder;
  const std::size_t gpu_count = 2 + rng.uniform_int(std::uint64_t{2});
  const cluster::GpuType types[] = {cluster::GpuType::V100,
                                    cluster::GpuType::T4,
                                    cluster::GpuType::K80};
  for (std::size_t g = 0; g < gpu_count; ++g) {
    builder.add_machine(types[g % 3], 1, 25.0);
  }
  const cluster::Cluster cluster = builder.build();

  workload::JobSet jobs;
  std::size_t total_tasks = 0;
  while (jobs.job_count() < 3 && total_tasks < 6) {
    workload::JobSpec spec;
    spec.rounds = 1 + static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{2}));
    spec.tasks_per_round = 1 + static_cast<std::uint32_t>(
                                   rng.uniform_int(std::uint64_t{2}));
    spec.weight = rng.bernoulli(0.3) ? 2.0 : 1.0;
    total_tasks += spec.rounds * spec.tasks_per_round;
    if (total_tasks > 8) break;
    jobs.add_job(spec);
  }

  profiler::TimeTable times(jobs.job_count(), cluster.gpu_count());
  for (const auto& job : jobs.jobs()) {
    const double base = rng.uniform(1.0, 4.0);
    for (std::size_t g = 0; g < cluster.gpu_count(); ++g) {
      const double speed =
          cluster.gpu(GpuId(static_cast<int>(g))).spec().fp32_tflops;
      times.set(job.id, GpuId(static_cast<int>(g)),
                base * 15.7 / speed * rng.uniform(0.9, 1.1), 0.1);
    }
  }

  const auto exact = solve_exact_schedule(cluster, jobs, times, 10);

  core::HareScheduler scheduler;
  const sim::Schedule schedule = scheduler.schedule({cluster, jobs, times});
  const sim::Simulator simulator(cluster, jobs, times);
  const double hare_objective =
      simulator.run(schedule).weighted_completion;

  const double alpha = times.alpha();
  const double guarantee = alpha * (2.0 + alpha);
  EXPECT_GE(hare_objective + 1e-9, exact.objective);  // OPT is optimal
  EXPECT_LE(hare_objective, exact.objective * guarantee)
      << "Hare " << hare_objective << " vs OPT " << exact.objective
      << " (guarantee " << guarantee << "x)";
  // Empirically the gap is far smaller than the worst-case bound.
  EXPECT_LE(hare_objective, exact.objective * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityGapTest,
                         ::testing::Values(501, 502, 503, 504, 505, 506, 507,
                                           508, 509, 510));

// ------------------------------ Fig 1 toy: exact expectations ------------

TEST(Fig1Toy, TenTaskVariantPinsHareAndOptimum) {
  // test_core's Fig 1 toy with J2 cut to 2 rounds, so the instance has 10
  // tasks and the exact solver certifies its optimum. Golden values pin
  // Hare's simulated Σw·C and makespan and OPT's Σw·C exactly.
  const cluster::Cluster cluster = cluster::ClusterBuilder{}
                                       .add_machine(cluster::GpuType::V100, 1)
                                       .add_machine(cluster::GpuType::T4, 1)
                                       .add_machine(cluster::GpuType::K80, 1)
                                       .build();
  workload::JobSet jobs;
  workload::JobSpec j1;
  j1.rounds = 2;
  j1.tasks_per_round = 2;
  jobs.add_job(j1);
  workload::JobSpec j2;
  j2.rounds = 2;
  j2.tasks_per_round = 1;
  jobs.add_job(j2);
  workload::JobSpec j3;
  j3.rounds = 2;
  j3.tasks_per_round = 2;
  jobs.add_job(j3);
  ASSERT_EQ(jobs.task_count(), 10u);

  profiler::TimeTable times(3, 3);
  const double t[3][3] = {{1.0, 1.1, 1.2},   // J1
                          {1.0, 0.4, 2.0},   // J2
                          {1.1, 1.2, 1.0}};  // J3
  for (int j = 0; j < 3; ++j) {
    for (int g = 0; g < 3; ++g) {
      times.set(JobId(j), GpuId(g), t[j][g], 0.05);
    }
  }

  core::HareScheduler scheduler;
  const sim::Simulator simulator(cluster, jobs, times);
  const sim::SimResult hare =
      simulator.run(scheduler.schedule({cluster, jobs, times}));
  const auto exact = solve_exact_schedule(cluster, jobs, times);

  // Hare's run includes the default executor's switching overhead; the
  // exact solver's objective does not.
  EXPECT_NEAR(hare.weighted_completion, 8.772943262232381, 1e-9);
  EXPECT_NEAR(hare.makespan, 4.361471631116190, 1e-9);
  EXPECT_NEAR(exact.objective, 7.4, 1e-9);
  const double alpha = times.alpha();
  EXPECT_LE(hare.weighted_completion,
            exact.objective * alpha * (2.0 + alpha));
}

TEST(ExactSchedule, LowerBoundsNeverExceedOptimum) {
  // The certified lower bounds used by the approximation checker must
  // lower-bound the true optimum as well.
  for (std::uint64_t seed = 520; seed < 526; ++seed) {
    common::Rng rng(seed);
    const Instance shell = make_uniform_instance({1.0, 2.0}, 1, 1, 1);
    workload::JobSet jobs;
    for (int j = 0; j < 2; ++j) {
      workload::JobSpec spec;
      spec.rounds = 1 + static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{2}));
      spec.tasks_per_round = 1 + static_cast<std::uint32_t>(
                                     rng.uniform_int(std::uint64_t{1}));
      jobs.add_job(spec);
    }
    profiler::TimeTable times(jobs.job_count(), 2);
    for (const auto& job : jobs.jobs()) {
      times.set(job.id, GpuId(0), rng.uniform(1.0, 3.0), 0.1);
      times.set(job.id, GpuId(1), rng.uniform(1.0, 3.0), 0.1);
    }
    const auto exact =
        solve_exact_schedule(shell.cluster, jobs, times, 10);
    const double lb =
        core::combined_lower_bound(shell.cluster, jobs, times);
    EXPECT_LE(lb, exact.objective + 1e-9);
  }
}

}  // namespace
}  // namespace hare::opt
