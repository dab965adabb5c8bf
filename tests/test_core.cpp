// Tests for Hare's core: the Hare_Sched_RL relaxation (fluid and LP+cuts
// modes), Algorithm 1, the α(2+α) approximation guarantee, lower bounds,
// and the Fig 1 / Fig 4 motivating scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/bounds.hpp"
#include "core/hare_system.hpp"
#include "opt/queyranne.hpp"
#include "core/hare_scheduler.hpp"
#include "core/relaxation.hpp"
#include "sched/sched_allox.hpp"
#include "sched/sched_homo.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace hare::core {
namespace {

using testing::Instance;
using testing::make_random_instance;
using testing::make_uniform_instance;

double run_objective(const Instance& inst, sched::Scheduler& scheduler) {
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  return simulator.run(schedule).weighted_completion;
}

// -------------------------------------------------------------- relaxation --

TEST(Relaxation, FluidRespectsArrivalAndPrecedence) {
  const Instance inst = make_random_instance(3);
  const HareRelaxation relaxation;
  const RelaxationResult result =
      relaxation.solve(inst.cluster, inst.jobs, inst.times);

  ASSERT_EQ(result.x_hat.size(), inst.jobs.task_count());
  for (const auto& task : inst.jobs.tasks()) {
    const std::size_t i = static_cast<std::size_t>(task.id.value());
    EXPECT_GE(result.x_hat[i] + 1e-9,
              inst.jobs.job(task.job).spec.arrival);
    EXPECT_TRUE(result.y_hat[i].valid());
    // (7): a task starts after every previous-round task's finish.
    if (task.round > 0) {
      for (TaskId prev :
           inst.jobs.round_tasks(task.job, task.round - 1)) {
        const std::size_t p = static_cast<std::size_t>(prev.value());
        EXPECT_GE(result.x_hat[i] + 1e-9,
                  result.x_hat[p] +
                      inst.times.total(task.job, result.y_hat[p]));
      }
    }
  }
}

TEST(Relaxation, HIsXPlusHalfMaxTc) {
  const Instance inst = make_random_instance(4);
  const HareRelaxation relaxation;
  const RelaxationResult result =
      relaxation.solve(inst.cluster, inst.jobs, inst.times);
  for (const auto& task : inst.jobs.tasks()) {
    const std::size_t i = static_cast<std::size_t>(task.id.value());
    EXPECT_NEAR(result.h[i],
                result.x_hat[i] + 0.5 * inst.times.max_tc(task.job), 1e-9);
  }
}

TEST(Relaxation, LpModeAddsCutsAndLowerBounds) {
  const Instance inst = make_random_instance(5, /*jobs=*/5, /*gpus=*/3);
  RelaxationConfig fluid_config;
  const RelaxationResult fluid =
      HareRelaxation(fluid_config).solve(inst.cluster, inst.jobs, inst.times);

  RelaxationConfig lp_config;
  lp_config.mode = RelaxMode::LpCuts;
  const RelaxationResult lp =
      HareRelaxation(lp_config).solve(inst.cluster, inst.jobs, inst.times);

  EXPECT_GE(lp.lp_solves, 1u);
  // The LP relaxes non-preemption into subset inequalities, so its value
  // cannot exceed the fluid pass's realized objective under the same ŷ.
  EXPECT_LE(lp.objective, fluid.objective + 1e-6);
  EXPECT_GT(lp.objective, 0.0);
}

TEST(Relaxation, LpSolutionSatisfiesQueyranneOnEveryMachine) {
  const Instance inst = make_random_instance(6, 4, 3);
  RelaxationConfig config;
  config.mode = RelaxMode::LpCuts;
  config.max_cut_rounds = 32;
  const RelaxationResult lp =
      HareRelaxation(config).solve(inst.cluster, inst.jobs, inst.times);

  // Re-run separation at the final point: no machine may still be violated.
  std::vector<std::vector<TaskId>> machine_tasks(inst.cluster.gpu_count());
  for (const auto& task : inst.jobs.tasks()) {
    machine_tasks[static_cast<std::size_t>(
                      lp.y_hat[static_cast<std::size_t>(task.id.value())]
                          .value())]
        .push_back(task.id);
  }
  for (std::size_t g = 0; g < machine_tasks.size(); ++g) {
    std::vector<double> t;
    std::vector<double> x;
    for (TaskId id : machine_tasks[g]) {
      t.push_back(
          inst.times.tc(inst.jobs.task(id).job, GpuId(static_cast<int>(g))));
      x.push_back(lp.x_hat[static_cast<std::size_t>(id.value())]);
    }
    const auto cut = opt::separate_queyranne_cut(t, x, 1e-4);
    EXPECT_TRUE(cut.subset.empty()) << "machine " << g << " violated by "
                                    << cut.violation;
  }
}

TEST(Relaxation, ModesAgreeOnOrderingShape) {
  // On a tiny instance the two modes should rank jobs' first tasks the
  // same way (short/heavy before long/light).
  workload::JobSet jobs;
  workload::JobSpec heavy;
  heavy.rounds = 1;
  heavy.weight = 4.0;
  jobs.add_job(heavy);
  workload::JobSpec light;
  light.rounds = 6;
  light.weight = 1.0;
  jobs.add_job(light);
  // One GPU, so the two jobs contend and the relaxation must order them.
  const Instance shell = make_uniform_instance({1.0}, 1, 1, 1);
  profiler::TimeTable times(2, 1);
  for (int j = 0; j < 2; ++j) {
    times.set(JobId(j), GpuId(0), 1.0, 0.1);
  }

  for (RelaxMode mode : {RelaxMode::Fluid, RelaxMode::LpCuts}) {
    RelaxationConfig config;
    config.mode = mode;
    const RelaxationResult result =
        HareRelaxation(config).solve(shell.cluster, jobs, times);
    // Heavy-short job's task must carry the smaller H.
    EXPECT_LT(result.h[0],
              result.h[jobs.job(JobId(1)).task_ids().front().value()]);
  }
}

// ------------------------------------------------------------- Algorithm 1 --

class HareSchedulerValidityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HareSchedulerValidityTest, ValidCompleteSchedules) {
  const Instance inst = make_random_instance(GetParam());
  for (Placement placement :
       {Placement::EarliestAvailable, Placement::EarliestFinish}) {
    for (SyncScheme sync : {SyncScheme::Relaxed, SyncScheme::Strict}) {
      HareConfig config;
      config.placement = placement;
      config.sync = sync;
      HareScheduler scheduler(config);
      const sim::Schedule schedule =
          scheduler.schedule({inst.cluster, inst.jobs, inst.times});
      EXPECT_EQ(schedule.task_count(), inst.jobs.task_count());
      EXPECT_NO_THROW(sim::validate_schedule(schedule, inst.jobs));
      const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
      const sim::SimResult result = simulator.run(schedule);
      EXPECT_GT(result.weighted_completion, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HareSchedulerValidityTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(HareScheduler, StrictSyncGangsOnDistinctGpus) {
  const Instance inst = make_random_instance(19);
  HareConfig config;
  config.sync = SyncScheme::Strict;
  HareScheduler scheduler(config);
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  std::vector<int> task_gpu(inst.jobs.task_count(), -1);
  for (std::size_t g = 0; g < schedule.sequences.size(); ++g) {
    for (TaskId id : schedule.sequences[g]) {
      task_gpu[static_cast<std::size_t>(id.value())] = static_cast<int>(g);
    }
  }
  for (const auto& job : inst.jobs.jobs()) {
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      std::set<int> gpus;
      for (TaskId id :
           inst.jobs.round_tasks(job.id, static_cast<RoundIndex>(r))) {
        gpus.insert(task_gpu[static_cast<std::size_t>(id.value())]);
      }
      EXPECT_EQ(gpus.size(), job.tasks_per_round());
    }
  }
}

TEST(HareScheduler, RelaxedSyncCanSerializeRoundOnFastGpu) {
  // Fig 4(b): 2-task rounds, one fast GPU (1s) and one very slow (10s):
  // relaxed Hare serializes both tasks on the fast GPU (2s/round) instead
  // of gang-waiting on the slow one (10s/round).
  const Instance inst = make_uniform_instance({1.0, 10.0}, 1, 3, 2, 0.05);
  HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  EXPECT_EQ(schedule.sequences[0].size(), 6u);  // everything on the fast GPU
  EXPECT_TRUE(schedule.sequences[1].empty());

  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);
  EXPECT_LT(result.jobs[0].completion, 8.0);  // vs ~30s ganged
}

TEST(HareScheduler, RelaxedNoWorseThanStrictOnAverage) {
  double relaxed_total = 0.0;
  double strict_total = 0.0;
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const Instance inst = make_random_instance(seed);
    HareConfig relaxed_config;
    HareScheduler relaxed(relaxed_config);
    HareConfig strict_config;
    strict_config.sync = SyncScheme::Strict;
    HareScheduler strict(strict_config);
    relaxed_total += run_objective(inst, relaxed);
    strict_total += run_objective(inst, strict);
  }
  EXPECT_LE(relaxed_total, strict_total * 1.02);
}

TEST(HareScheduler, LpModeProducesComparableSchedules) {
  const Instance inst = make_random_instance(50, 6, 4);
  HareConfig fluid_config;
  HareScheduler fluid(fluid_config);
  HareConfig lp_config;
  lp_config.relaxation.mode = RelaxMode::LpCuts;
  HareScheduler lp(lp_config);
  const double fluid_obj = run_objective(inst, fluid);
  const double lp_obj = run_objective(inst, lp);
  // Both are heuristics; neither should be wildly worse than the other.
  EXPECT_LT(lp_obj, fluid_obj * 2.0);
  EXPECT_LT(fluid_obj, lp_obj * 2.0);
}

TEST(HareScheduler, RejectsOversizedSyncScale) {
  const Instance inst = make_uniform_instance({1.0}, 1, 1, 1);
  workload::JobSet jobs;
  workload::JobSpec spec;
  spec.tasks_per_round = 4;  // cluster has 1 GPU
  jobs.add_job(spec);
  profiler::TimeTable times(1, 1);
  times.set(JobId(0), GpuId(0), 1.0, 0.1);
  HareScheduler scheduler;
  EXPECT_THROW(scheduler.schedule({inst.cluster, jobs, times}),
               common::Error);
}

// ------------------------------------------------------------------ bounds --

class BoundsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsPropertyTest, LowerBoundsHoldForEveryScheduler) {
  const Instance inst = make_random_instance(GetParam());
  const double lb =
      combined_lower_bound(inst.cluster, inst.jobs, inst.times);
  EXPECT_GT(lb, 0.0);

  HareScheduler hare;
  sched::SchedHomoScheduler homo;
  sched::SchedAlloxScheduler allox;
  for (sched::Scheduler* scheduler :
       std::initializer_list<sched::Scheduler*>{&hare, &homo, &allox}) {
    const double objective = run_objective(inst, *scheduler);
    EXPECT_GE(objective + 1e-6, lb) << scheduler->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest,
                         ::testing::Values(60, 61, 62, 63, 64, 65));

class ApproximationRatioTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ApproximationRatioTest, HareWithinGuarantee) {
  // Theorem 4: Algorithm 1 is α(2+α)-approximate. Our lower bound is not
  // tight, so the measured ratio against it must in particular respect the
  // guarantee.
  const Instance inst = make_random_instance(GetParam());
  HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);
  const ApproximationReport report =
      check_approximation(inst.cluster, inst.jobs, inst.times, result);
  EXPECT_GE(report.alpha, 1.0);
  EXPECT_GT(report.ratio, 0.99);  // can't beat a valid lower bound
  EXPECT_TRUE(report.within_guarantee())
      << "ratio " << report.ratio << " vs guarantee " << report.guarantee;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationRatioTest,
                         ::testing::Values(70, 71, 72, 73, 74, 75, 76, 77, 78,
                                           79));

TEST(Bounds, CriticalPathExactOnSerialJob) {
  // One job, one GPU: the bound is exact.
  const Instance inst = make_uniform_instance({2.0}, 1, 3, 1, 0.5);
  const double lb = critical_path_lower_bound(inst.jobs, inst.times);
  EXPECT_DOUBLE_EQ(lb, 3 * 2.5);
  HareScheduler scheduler;
  EXPECT_NEAR(run_objective(inst, scheduler), lb, 0.2);
}

TEST(Bounds, VolumeBoundScalesWithLoad) {
  const Instance small = make_uniform_instance({1.0, 1.0}, 2, 2, 2);
  const Instance large = make_uniform_instance({1.0, 1.0}, 8, 2, 2);
  EXPECT_GT(volume_lower_bound(large.cluster, large.jobs, large.times),
            volume_lower_bound(small.cluster, small.jobs, small.times));
}

// --------------------------------------------------------- Fig 1 scenario --

TEST(Fig1Toy, HareBeatsJobLevelAndObliviousSchedulers) {
  // The Fig 1 structure: 3 heterogeneous GPUs; jobs with different GPU
  // affinities and a job that synchronizes every 2 tasks. Hare must beat
  // the Allox-style job-level scheduler (idle-slot reuse + intra-job
  // parallelism) and the heterogeneity-oblivious gang scheduler.
  cluster::Cluster cluster = cluster::ClusterBuilder{}
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
  j2.rounds = 4;
  j2.tasks_per_round = 1;
  jobs.add_job(j2);
  workload::JobSpec j3;
  j3.rounds = 2;
  j3.tasks_per_round = 2;
  jobs.add_job(j3);

  profiler::TimeTable times(3, 3);
  // Per-GPU single-task seconds (Fig 1's table, same spirit): J2 strongly
  // prefers one GPU; J1/J3's flat profiles make their 2-task rounds
  // genuinely parallelizable — serializing them (AlloX) doubles the round.
  const double t[3][3] = {{1.0, 1.1, 1.2},   // J1
                          {1.0, 0.4, 2.0},   // J2
                          {1.1, 1.2, 1.0}};  // J3
  for (int j = 0; j < 3; ++j) {
    for (int g = 0; g < 3; ++g) {
      times.set(JobId(j), GpuId(g), t[j][g], 0.05);
    }
  }

  HareScheduler hare;
  sched::SchedAlloxScheduler allox;
  sched::SchedHomoScheduler homo;

  const sim::Simulator simulator(
      cluster, jobs,
      times);  // actual == profiled for the toy
  const double hare_jct =
      simulator.run(hare.schedule({cluster, jobs, times})).weighted_jct;
  const double allox_jct =
      simulator.run(allox.schedule({cluster, jobs, times})).weighted_jct;
  const double homo_jct =
      simulator.run(homo.schedule({cluster, jobs, times})).weighted_jct;

  EXPECT_LT(hare_jct, allox_jct);
  EXPECT_LT(hare_jct, homo_jct);
}

// ----------------------------------------------------------- system facade --

TEST(HareSystem, EndToEndRunAndComparison) {
  core::HareSystem system(cluster::make_testbed_cluster());
  for (int j = 0; j < 6; ++j) {
    workload::JobSpec spec;
    spec.model = static_cast<workload::ModelType>(j % 8);
    spec.rounds = 3;
    spec.tasks_per_round = 1 + static_cast<std::uint32_t>(j % 3);
    system.submit(spec);
  }
  const auto reports = system.run_comparison();
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_EQ(reports[0].scheduler, "Hare");
  for (const auto& report : reports) {
    EXPECT_GT(report.result.weighted_jct, 0.0);
    EXPECT_GE(report.approximation.ratio, 0.99);
  }
}

TEST(HareSystem, ProfileDbReusedAcrossRuns) {
  core::HareSystem system(cluster::make_testbed_cluster());
  workload::JobSpec spec;
  spec.model = workload::ModelType::ResNet50;
  spec.rounds = 2;
  system.submit(spec);
  (void)system.profiled_times();
  const std::size_t entries = system.profile_db().size();
  EXPECT_GT(entries, 0u);

  system.submit(spec);  // identical job: no new profiling keys needed
  (void)system.profiled_times();
  EXPECT_EQ(system.profile_db().size(), entries);
}

// Profiling after each single submit covers only the new job, and the
// tables and db end up exactly as one profile()/exact() of every job.
TEST(HareSystem, SubmitByOneProfilesLikeOneWholeProfile) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  workload::TraceConfig config;
  config.job_count = 40;
  const workload::JobSet jobs = workload::TraceGenerator(5).generate(config);

  HareSystem system(cluster);
  for (const auto& job : jobs.jobs()) {
    system.submit(job.spec);
    // Reading α each time keeps it cached, so later jobs must update it.
    (void)system.profiled_times().alpha();
    (void)system.actual_times().alpha();
  }

  const HareSystem::Options& options = system.options();
  profiler::Profiler whole(workload::PerfModel(options.perf), options.profiler,
                           options.seed);
  profiler::ProfileDb db;
  const profiler::TimeTable profiled = whole.profile(jobs, cluster, &db);
  const profiler::TimeTable exact = whole.exact(jobs, cluster);

  for (const auto& [incremental, reference] :
       {std::pair{&system.profiled_times(), &profiled},
        std::pair{&system.actual_times(), &exact}}) {
    ASSERT_EQ(incremental->job_count(), reference->job_count());
    EXPECT_EQ(incremental->row_count(), reference->row_count());
    EXPECT_EQ(incremental->alpha(), reference->alpha());
    for (const auto& job : jobs.jobs()) {
      for (const auto& gpu : cluster.gpus()) {
        EXPECT_EQ(incremental->tc(job.id, gpu.id), reference->tc(job.id, gpu.id));
        EXPECT_EQ(incremental->ts(job.id, gpu.id), reference->ts(job.id, gpu.id));
      }
    }
  }
  EXPECT_EQ(testing::profile_db_lines(system.profile_db()),
            testing::profile_db_lines(db));
}

TEST(HareSystem, RestoredProfileDbWarmStartsAndSavesTheUnion) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  workload::TraceConfig config;
  config.job_count = 12;
  const workload::JobSet jobs = workload::TraceGenerator(1).generate(config);

  HareSystem earlier(cluster);
  earlier.submit_all(jobs);
  const profiler::TimeTable& earlier_times = earlier.profiled_times();
  std::stringstream saved;
  earlier.profile_db().save(saved);
  const std::string saved_db = saved.str();

  // The same jobs against the restored db: every key is served from it,
  // nothing is measured, and the table is the one the db was built from.
  HareSystem restored(cluster);
  restored.submit_all(jobs);
  std::istringstream restore_in(saved_db);
  restored.profile_db().load(restore_in);
  const std::size_t loaded = restored.profile_db().size();
  ASSERT_GT(loaded, 0u);
  const profiler::TimeTable& times = restored.profiled_times();
  EXPECT_EQ(restored.profile_db().misses(), 0u);
  EXPECT_GT(restored.profile_db().hits(), 0u);
  EXPECT_EQ(restored.profile_db().size(), loaded);
  for (const auto& job : jobs.jobs()) {
    for (const auto& gpu : cluster.gpus()) {
      EXPECT_EQ(times.tc(job.id, gpu.id), earlier_times.tc(job.id, gpu.id));
      EXPECT_EQ(times.ts(job.id, gpu.id), earlier_times.ts(job.id, gpu.id));
    }
  }

  // A slower uplink makes every key new: the db the system saves holds
  // the restored entries and the new ones.
  const cluster::Cluster slow = cluster::make_testbed_cluster(10.0);
  HareSystem alone(slow);
  alone.submit_all(jobs);
  (void)alone.profiled_times();
  HareSystem grown(slow);
  grown.submit_all(jobs);
  std::istringstream grow_in(saved_db);
  grown.profile_db().load(grow_in);
  (void)grown.profiled_times();
  EXPECT_EQ(grown.profile_db().size(), loaded + alone.profile_db().size());
  const std::vector<std::string> union_lines =
      testing::profile_db_lines(grown.profile_db());
  for (const auto& part : {testing::profile_db_lines(earlier.profile_db()),
                           testing::profile_db_lines(alone.profile_db())}) {
    EXPECT_TRUE(std::includes(union_lines.begin(), union_lines.end(),
                              part.begin(), part.end()));
  }
}

}  // namespace
}  // namespace hare::core
