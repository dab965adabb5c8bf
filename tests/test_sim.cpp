// Tests for the discrete-event simulator: event queue, network model,
// schedule validation, execution invariants (§5.1 constraints 4-8), and
// the CSV export and Gantt renderer of its results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/hare_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/export.hpp"
#include "sim/gantt.hpp"
#include "sim/network.hpp"
#include "sim/schedule.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "workload/model_zoo.hpp"

namespace hare::sim {
namespace {

using testing::Instance;
using testing::make_random_instance;
using testing::make_uniform_instance;

// ------------------------------------------------------------ event queue --

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> queue;
  queue.push(3.0, 3);
  queue.push(1.0, 1);
  queue.push(2.0, 2);
  EXPECT_EQ(queue.pop().payload, 1);
  EXPECT_EQ(queue.pop().payload, 2);
  EXPECT_EQ(queue.pop().payload, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue<int> queue;
  for (int i = 0; i < 10; ++i) queue.push(5.0, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(queue.pop().payload, i);
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue<int> queue;
  EXPECT_EQ(queue.size(), 0u);
  queue.push(1.0, 0);
  queue.push(2.0, 1);
  EXPECT_EQ(queue.size(), 2u);
  (void)queue.pop();
  EXPECT_EQ(queue.size(), 1u);
}

// ---------------------------------------------------------------- network --

TEST(Network, SingleTransferExactDuration) {
  const auto cluster =
      cluster::ClusterBuilder{}.add_machine(cluster::GpuType::V100, 1, 8.0)
          .build();  // 8 Gbit/s = 1 GB/s
  NetworkModel net(cluster);
  net.start_transfer(MachineId(0), 2e9, 0.0);  // 2 GB
  EXPECT_NEAR(net.next_completion(), 2.0, 1e-9);
  const auto done = net.complete_at(net.next_completion());
  EXPECT_EQ(done.size(), 1u);
  EXPECT_EQ(net.active_count(), 0u);
}

TEST(Network, ConcurrentTransfersShareBandwidth) {
  const auto cluster =
      cluster::ClusterBuilder{}.add_machine(cluster::GpuType::V100, 1, 8.0)
          .build();
  NetworkModel net(cluster);
  net.start_transfer(MachineId(0), 1e9, 0.0);
  net.start_transfer(MachineId(0), 1e9, 0.0);
  // Two equal 1 GB transfers at 1 GB/s shared: both complete at t = 2.
  EXPECT_NEAR(net.next_completion(), 2.0, 1e-9);
  EXPECT_EQ(net.complete_at(2.0).size(), 2u);
}

TEST(Network, LateArrivalStretchesEarlier) {
  const auto cluster =
      cluster::ClusterBuilder{}.add_machine(cluster::GpuType::V100, 1, 8.0)
          .build();
  NetworkModel net(cluster);
  net.start_transfer(MachineId(0), 1e9, 0.0);
  // At t=0.5, 0.5 GB remains; a second transfer halves the rate, so the
  // first finishes at 0.5 + 0.5/0.5 = 1.5.
  net.start_transfer(MachineId(0), 1e9, 0.5);
  EXPECT_NEAR(net.next_completion(), 1.5, 1e-9);
}

TEST(Network, MachinesAreIndependent) {
  const auto cluster = cluster::ClusterBuilder{}
                           .add_machine(cluster::GpuType::V100, 1, 8.0)
                           .add_machine(cluster::GpuType::K80, 1, 8.0)
                           .build();
  NetworkModel net(cluster);
  net.start_transfer(MachineId(0), 1e9, 0.0);
  net.start_transfer(MachineId(1), 1e9, 0.0);
  EXPECT_NEAR(net.next_completion(), 1.0, 1e-9);
  EXPECT_EQ(net.complete_at(1.0).size(), 2u);
}

TEST(Network, IdleModelHasNoCompletion) {
  const auto cluster = cluster::ClusterBuilder{}
                           .add_machine(cluster::GpuType::V100, 1, 8.0)
                           .add_machine(cluster::GpuType::K80, 1, 8.0)
                           .build();
  NetworkModel net(cluster);
  EXPECT_EQ(net.active_count(), 0u);
  EXPECT_EQ(net.next_completion(), kTimeInfinity);
  net.start_transfer(MachineId(1), 1e9, 0.0);
  (void)net.complete_at(net.next_completion());
  // Drained again: idle, with no completion pending.
  EXPECT_EQ(net.active_count(), 0u);
  EXPECT_EQ(net.next_completion(), kTimeInfinity);
}

TEST(Network, ActiveCountTracksStartsAndCompletionsOnTwoLinks) {
  const auto cluster = cluster::ClusterBuilder{}
                           .add_machine(cluster::GpuType::V100, 1, 8.0)
                           .add_machine(cluster::GpuType::K80, 1, 8.0)
                           .build();  // 1 GB/s per uplink
  NetworkModel net(cluster);
  net.start_transfer(MachineId(0), 1e9, 0.0);  // alone: done at 1
  net.start_transfer(MachineId(1), 1e9, 0.0);  // shares: done at 3
  net.start_transfer(MachineId(1), 2e9, 0.0);  // shares, then alone: 3
  EXPECT_EQ(net.active_count(), 3u);
  EXPECT_NEAR(net.next_completion(), 1.0, 1e-9);
  EXPECT_EQ(net.complete_at(net.next_completion()).size(), 1u);
  EXPECT_EQ(net.active_count(), 2u);
  net.start_transfer(MachineId(0), 1e9, 1.5);  // done at 2.5
  EXPECT_EQ(net.active_count(), 3u);
  EXPECT_NEAR(net.next_completion(), 2.0, 1e-9);  // link 1's first
  EXPECT_EQ(net.complete_at(net.next_completion()).size(), 1u);
  EXPECT_EQ(net.active_count(), 2u);
  EXPECT_NEAR(net.next_completion(), 2.5, 1e-9);
  EXPECT_EQ(net.complete_at(net.next_completion()).size(), 1u);
  EXPECT_EQ(net.active_count(), 1u);
  EXPECT_NEAR(net.next_completion(), 3.0, 1e-9);
  EXPECT_EQ(net.complete_at(net.next_completion()).size(), 1u);
  EXPECT_EQ(net.active_count(), 0u);
  EXPECT_EQ(net.next_completion(), kTimeInfinity);
}

TEST(Network, RejectsBadTransfers) {
  const auto cluster =
      cluster::ClusterBuilder{}.add_machine(cluster::GpuType::V100, 1).build();
  NetworkModel net(cluster);
  EXPECT_THROW(net.start_transfer(MachineId(5), 1.0, 0.0), common::Error);
  EXPECT_THROW(net.start_transfer(MachineId(0), 0.0, 0.0), common::Error);
}

// ------------------------------------------------------ schedule validation --

TEST(ScheduleValidation, AcceptsCompleteSchedule) {
  const Instance inst = make_uniform_instance({1.0, 1.0}, 2, 2, 2);
  Schedule schedule;
  schedule.sequences.resize(2);
  for (const auto& task : inst.jobs.tasks()) {
    schedule.sequences[task.slot % 2].push_back(task.id);
  }
  EXPECT_NO_THROW(validate_schedule(schedule, inst.jobs));
}

TEST(ScheduleValidation, RejectsMissingTask) {
  const Instance inst = make_uniform_instance({1.0}, 1, 1, 2);
  Schedule schedule;
  schedule.sequences.resize(1);
  schedule.sequences[0].push_back(TaskId(0));  // task 1 missing
  EXPECT_THROW(validate_schedule(schedule, inst.jobs), common::Error);
}

TEST(ScheduleValidation, RejectsDuplicateTask) {
  const Instance inst = make_uniform_instance({1.0}, 1, 1, 1);
  Schedule schedule;
  schedule.sequences.resize(1);
  schedule.sequences[0] = {TaskId(0), TaskId(0)};
  EXPECT_THROW(validate_schedule(schedule, inst.jobs), common::Error);
}

TEST(ScheduleValidation, RejectsUnknownTask) {
  const Instance inst = make_uniform_instance({1.0}, 1, 1, 1);
  Schedule schedule;
  schedule.sequences.resize(1);
  schedule.sequences[0] = {TaskId(99)};
  EXPECT_THROW(validate_schedule(schedule, inst.jobs), common::Error);
}

TEST(ScheduleValidation, RejectsDependencyCycle) {
  // Two jobs, two rounds of one task each; interleave them across two GPUs
  // so each GPU's chain contradicts the other's round order.
  const Instance inst = make_uniform_instance({1.0, 1.0}, 2, 2, 1);
  // job0: tasks 0 (r0), 1 (r1); job1: tasks 2 (r0), 3 (r1).
  Schedule schedule;
  schedule.sequences.resize(2);
  schedule.sequences[0] = {TaskId(1), TaskId(2)};  // job0 r1 before job1 r0
  schedule.sequences[1] = {TaskId(3), TaskId(0)};  // job1 r1 before job0 r0
  EXPECT_THROW(validate_schedule(schedule, inst.jobs), common::Error);
}

// -------------------------------------------------------------- simulator --

/// Execution invariants every simulation must satisfy (constraints 4-8).
void check_invariants(const Instance& inst, const Schedule& schedule,
                      const SimResult& result) {
  constexpr double kEps = 1e-6;
  // (5)+(8): tasks on one GPU never overlap and run in sequence order.
  for (std::size_t g = 0; g < schedule.sequences.size(); ++g) {
    Time previous_end = 0.0;
    for (TaskId id : schedule.sequences[g]) {
      const auto& record = result.tasks[static_cast<std::size_t>(id.value())];
      EXPECT_EQ(record.gpu, GpuId(static_cast<int>(g)));
      EXPECT_GE(record.start + kEps, previous_end);
      EXPECT_GE(record.compute_start + kEps, record.start);
      EXPECT_GT(record.compute_end, record.compute_start);
      EXPECT_GE(record.sync_end + kEps, record.compute_end);
      previous_end = record.compute_end;
    }
  }
  for (const auto& job : inst.jobs.jobs()) {
    // (4): no task before arrival.
    for (TaskId id : job.task_ids()) {
      EXPECT_GE(result.tasks[static_cast<std::size_t>(id.value())].start +
                    kEps,
                job.spec.arrival);
    }
    // (7): round r+1 starts after every round-r task's sync.
    for (std::uint32_t r = 1; r < job.rounds(); ++r) {
      Time barrier = 0.0;
      for (TaskId id :
           inst.jobs.round_tasks(job.id, static_cast<RoundIndex>(r - 1))) {
        barrier = std::max(
            barrier, result.tasks[static_cast<std::size_t>(id.value())]
                         .sync_end);
      }
      for (TaskId id :
           inst.jobs.round_tasks(job.id, static_cast<RoundIndex>(r))) {
        EXPECT_GE(result.tasks[static_cast<std::size_t>(id.value())].start +
                      kEps,
                  barrier);
      }
    }
    // (6): completion is the last round's barrier.
    Time last_barrier = 0.0;
    for (TaskId id : inst.jobs.round_tasks(
             job.id, static_cast<RoundIndex>(job.rounds() - 1))) {
      last_barrier = std::max(
          last_barrier,
          result.tasks[static_cast<std::size_t>(id.value())].sync_end);
    }
    EXPECT_NEAR(
        result.jobs[static_cast<std::size_t>(job.id.value())].completion,
        last_barrier, 1e-9);
  }
}

class SimulatorInvariantTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimulatorInvariantTest, HareScheduleSatisfiesAllConstraints) {
  const Instance inst = make_random_instance(GetParam());
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const SimResult result = simulator.run(schedule);
  check_invariants(inst, schedule, result);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.weighted_completion, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Simulator, DeterministicReplay) {
  const Instance inst = make_random_instance(42);
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  SimConfig config;
  config.runtime_noise_cv = 0.05;
  config.noise_seed = 7;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult a = simulator.run(schedule);
  const SimResult b = simulator.run(schedule);
  EXPECT_DOUBLE_EQ(a.weighted_jct, b.weighted_jct);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].start, b.tasks[i].start);
  }
}

TEST(Simulator, NoiseModeStaysCloseToExact) {
  // The paper validates its simulator against the testbed at <5%; a 5%
  // per-task jitter must not move aggregate metrics by more than ~10%.
  const Instance inst = make_random_instance(11, 16, 8);
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});

  const Simulator exact(inst.cluster, inst.jobs, inst.times);
  SimConfig noisy_config;
  noisy_config.runtime_noise_cv = 0.05;
  const Simulator noisy(inst.cluster, inst.jobs, inst.times, noisy_config);

  const double a = exact.run(schedule).weighted_jct;
  const double b = noisy.run(schedule).weighted_jct;
  EXPECT_LT(common::relative_difference(a, b), 0.10);
}

TEST(Simulator, SwitchStatsCountCrossJobSwitches) {
  // Two single-round jobs back-to-back on one GPU: exactly one cross-job
  // switch is recorded.
  const Instance inst = make_uniform_instance({1.0}, 2, 1, 1);
  Schedule schedule;
  schedule.sequences = {{TaskId(0), TaskId(1)}};
  SimConfig config;
  config.switching.policy = switching::SwitchPolicy::PipeSwitch;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);
  std::size_t switches = 0;
  for (const auto& stat : result.switch_stats) switches += stat.switch_count;
  EXPECT_EQ(switches, 1u);
  EXPECT_GT(result.total_switch_time(), 0.0);
}

TEST(Simulator, HareMemoryManagerYieldsResidentHits) {
  // One job, several rounds on a single GPU: rounds 2.. find the model
  // resident (same-job continuation counts as resident too).
  const Instance inst = make_uniform_instance({1.0}, 1, 4, 1);
  Schedule schedule;
  schedule.sequences = {{TaskId(0), TaskId(1), TaskId(2), TaskId(3)}};
  SimConfig config;
  config.switching.policy = switching::SwitchPolicy::Hare;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(result.tasks[i].model_resident);
  }
}

TEST(Simulator, SyncOverlapsNextTask) {
  // Job A's sync must not delay job B's compute on the same GPU: with
  // tc=1, ts=10, two independent 1-round jobs run back-to-back at t=0,~1.
  const Instance inst = make_uniform_instance({1.0}, 2, 1, 1, 10.0);
  Schedule schedule;
  schedule.sequences = {{TaskId(0), TaskId(1)}};
  SimConfig config;
  config.switching.same_job_overhead_s = 0.0;
  config.switching.switch_base_s = 0.0;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);
  EXPECT_LT(result.tasks[1].compute_start, 1.1);
  // But the first job's completion still waits for its sync.
  EXPECT_NEAR(result.jobs[0].completion, 11.0, 0.1);
}

TEST(Simulator, ArrivalsDelayStart) {
  Instance inst = make_uniform_instance({1.0}, 1, 1, 1);
  // Rebuild with a late arrival.
  workload::JobSet jobs;
  workload::JobSpec spec;
  spec.rounds = 1;
  spec.tasks_per_round = 1;
  spec.arrival = 5.0;
  jobs.add_job(spec);
  profiler::TimeTable times(1, 1);
  times.set(JobId(0), GpuId(0), 1.0, 0.1);

  Schedule schedule;
  schedule.sequences = {{TaskId(0)}};
  const Simulator simulator(inst.cluster, jobs, times);
  const SimResult result = simulator.run(schedule);
  EXPECT_GE(result.tasks[0].start, 5.0);
  EXPECT_NEAR(result.jobs[0].jct(), result.jobs[0].completion - 5.0, 1e-9);
}

TEST(Simulator, ContentionModeStretchesConcurrentSyncs) {
  // Two tasks of one round on the same machine sync simultaneously; with
  // contention their round barrier lands later than the exclusive model.
  cluster::Cluster cluster =
      cluster::ClusterBuilder{}.add_machine(cluster::GpuType::V100, 2, 1.0)
          .build();  // 1 Gbit/s: sync is slow and contended
  workload::JobSet jobs;
  workload::JobSpec spec;
  spec.model = workload::ModelType::BertBase;
  spec.rounds = 1;
  spec.tasks_per_round = 2;
  jobs.add_job(spec);

  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, 1);
  const profiler::TimeTable times = profiler.exact(jobs, cluster);

  Schedule schedule;
  schedule.sequences = {{TaskId(0)}, {TaskId(1)}};

  const Simulator exclusive(cluster, jobs, times);
  SimConfig contended_config;
  contended_config.model_network_contention = true;
  const Simulator contended(cluster, jobs, times, contended_config);

  const Time exclusive_done = exclusive.run(schedule).jobs[0].completion;
  const Time contended_done = contended.run(schedule).jobs[0].completion;
  EXPECT_GT(contended_done, exclusive_done * 1.2);
}

TEST(Simulator, TimelineRecordsBusyIntervals) {
  const Instance inst = make_uniform_instance({1.0}, 2, 2, 1);
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  SimConfig config;
  config.record_timeline = true;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);
  ASSERT_EQ(result.busy_intervals.size(), 1u);
  EXPECT_EQ(result.busy_intervals[0].size(), 4u);
  const double frac = result.busy_fraction(GpuId(0), 0.0, result.makespan);
  EXPECT_GT(frac, 0.5);
  EXPECT_LE(frac, 1.0 + 1e-9);
}

TEST(Simulator, UtilizationBounded) {
  const Instance inst = make_random_instance(21);
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const SimResult result = simulator.run(schedule);
  for (const auto& gpu : result.gpus) {
    EXPECT_GE(gpu.utilization(result.makespan), 0.0);
    EXPECT_LE(gpu.utilization(result.makespan), 1.0 + 1e-9);
  }
  EXPECT_GT(result.mean_gpu_utilization(), 0.0);
}

TEST(Simulator, JctDistributionMatchesJobs) {
  const Instance inst = make_random_instance(31);
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const SimResult result = simulator.run(schedule);
  const auto dist = result.jct_distribution();
  EXPECT_EQ(dist.count(), inst.jobs.job_count());
  EXPECT_DOUBLE_EQ(dist.cdf(result.makespan + 1.0), 1.0);
}

TEST(Simulator, SingleJobMatchesAnalyticTime) {
  // One job, two rounds on one GPU, free switching: each round is its
  // compute plus its sync, so completion is exactly 2 x (10 + 1) s.
  const Instance inst = make_uniform_instance({10.0}, 1, 2, 1, 1.0);
  Schedule schedule;
  schedule.sequences = {{TaskId(0), TaskId(1)}};
  SimConfig config;
  config.switching.free_switching = true;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);
  EXPECT_DOUBLE_EQ(result.tasks[1].start, 11.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].completion, 22.0);
}

TEST(Simulator, RoundBarriersHoldInLockstep) {
  // Two tasks per round on GPUs 5:1 apart: every round of the fast GPU
  // waits for the slow GPU's compute and sync, so the pair runs in
  // lockstep and the job takes exactly 3 x (5.0 + 0.2) = 15.6 s.
  const Instance inst = make_uniform_instance({5.0, 1.0}, 1, 3, 2, 0.2);
  Schedule schedule;
  schedule.sequences.resize(2);
  for (RoundIndex r = 0; r < 3; ++r) {
    const auto round = inst.jobs.round_tasks(JobId(0), r);
    schedule.sequences[0].push_back(round[0]);
    schedule.sequences[1].push_back(round[1]);
  }
  SimConfig config;
  config.switching.free_switching = true;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t g = 0; g < 2; ++g) {
      const TaskId id = schedule.sequences[g][r];
      EXPECT_NEAR(result.tasks[static_cast<std::size_t>(id.value())].start,
                  5.2 * static_cast<double>(r), 1e-12);
    }
  }
  EXPECT_NEAR(result.jobs[0].completion, 15.6, 1e-12);
}

TEST(Simulator, AlternatingJobsCountSwitchesAndResidentHits) {
  // Two jobs alternating on one GPU under the Hare policy: three cross-job
  // switches, and each job's second round finds its kept model state.
  const Instance inst = make_uniform_instance({1.0}, 2, 2, 1, 0.05);
  Schedule schedule;
  schedule.sequences = {{TaskId(0), TaskId(2), TaskId(1), TaskId(3)}};
  SimConfig config;
  config.switching.policy = switching::SwitchPolicy::Hare;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);
  std::size_t switches = 0;
  std::size_t resident_hits = 0;
  for (const auto& stat : result.switch_stats) {
    switches += stat.switch_count;
    resident_hits += stat.resident_hits;
  }
  EXPECT_EQ(switches, 3u);  // j0->j1, j1->j0, j0->j1
  EXPECT_EQ(resident_hits, 2u);
  EXPECT_TRUE(result.tasks[1].model_resident);
  EXPECT_TRUE(result.tasks[3].model_resident);
}

TEST(Simulator, MismatchedInputsRejected) {
  const Instance inst = make_uniform_instance({1.0, 1.0}, 1, 1, 1);
  profiler::TimeTable wrong(1, 5);
  EXPECT_THROW(Simulator(inst.cluster, inst.jobs, wrong), common::Error);

  const Simulator simulator(inst.cluster, inst.jobs, inst.times);
  Schedule bad;
  bad.sequences.resize(1);  // cluster has 2 GPUs
  EXPECT_THROW(simulator.run(bad), common::Error);
}

}  // namespace
}  // namespace hare::sim

namespace hare::sim {
namespace {

TEST(Simulator, HarePlanTimesExactUnderZeroCostExecutor) {
  // With every switching cost zeroed and exact times, the simulator must
  // realize Algorithm 1's predicted start times to the nanosecond — the
  // planner and the executor implement the same §5.1 semantics.
  const testing::Instance inst = testing::make_random_instance(99, 10, 6);
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});

  SimConfig config;
  config.switching.free_switching = true;
  config.use_memory_manager = false;
  const Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const SimResult result = simulator.run(schedule);

  for (const auto& task : inst.jobs.tasks()) {
    const std::size_t i = static_cast<std::size_t>(task.id.value());
    EXPECT_NEAR(result.tasks[i].start, schedule.predicted_start[i], 1e-6)
        << "task " << task.id;
  }
  // The planner's objective equals the realized one.
  double realized = 0.0;
  for (const auto& job : result.jobs) {
    realized += job.weight * job.completion;
  }
  EXPECT_NEAR(realized, schedule.predicted_objective, 1e-6);
}

TEST(Simulator, SwitchCostsOnlyDelayNeverReorder) {
  // Turning realistic switching costs on shifts starts later but keeps
  // each GPU's task order (the sequences are the contract).
  const testing::Instance inst = testing::make_random_instance(98, 8, 4);
  core::HareScheduler scheduler;
  const Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});

  SimConfig zero;
  zero.switching.free_switching = true;
  zero.use_memory_manager = false;
  SimConfig real;
  real.switching.policy = switching::SwitchPolicy::Hare;

  const SimResult fast =
      Simulator(inst.cluster, inst.jobs, inst.times, zero).run(schedule);
  const SimResult costed =
      Simulator(inst.cluster, inst.jobs, inst.times, real).run(schedule);
  for (std::size_t i = 0; i < fast.tasks.size(); ++i) {
    EXPECT_GE(costed.tasks[i].start + 1e-9, fast.tasks[i].start);
    EXPECT_EQ(costed.tasks[i].gpu, fast.tasks[i].gpu);
  }
  EXPECT_GE(costed.weighted_jct, fast.weighted_jct - 1e-9);
}

TEST(Simulator, FinishedJobReleasesKeptStateOnEveryGpuItRan) {
  // Two V100s. GPU 1 runs B0, A0, C0, B1; GPU 0 runs A1, so job A
  // finishes on GPU 0 while its round-0 state is still kept on GPU 1. A
  // footprint F with S + F <= 16 GiB < 2S + F (S = kept model state) means
  // C0 fits beside one kept state, not two. If A's finish releases its
  // state on GPU 1, C0 evicts nothing and B1 finds B resident; if not, C0
  // evicts B, the earliest-completed state, and B1 reloads it.
  const workload::ModelType model = workload::ModelType::ResNet50;
  const workload::ModelSpec& spec = workload::model_spec(model);
  const Bytes capacity = cluster::gpu_spec(cluster::GpuType::V100).memory;
  const Bytes state = workload::model_state_bytes(spec);
  const Bytes base = workload::task_memory_footprint(spec, 0);
  const auto batch = static_cast<std::uint32_t>(
      (capacity - state - state / 2 - base) /
      spec.activation_bytes_per_sample);
  const Bytes footprint = workload::task_memory_footprint(spec, batch);
  ASSERT_LE(state + footprint, capacity);
  ASSERT_GT(2 * state + footprint, capacity);

  Instance inst;
  inst.cluster =
      cluster::ClusterBuilder{}.add_machine(cluster::GpuType::V100, 2).build();
  const auto add = [&](std::uint32_t rounds, Time arrival) {
    workload::JobSpec job;
    job.model = model;
    job.rounds = rounds;
    job.batch_size = batch;
    job.arrival = arrival;
    return inst.jobs.add_job(job);
  };
  const JobId a = add(2, 0.0);
  const JobId b = add(2, 0.0);
  const JobId c = add(1, 100.0);  // arrives after A has finished
  inst.times = profiler::TimeTable(3, 2);
  for (const JobId job : {a, b, c}) {
    for (int g = 0; g < 2; ++g) inst.times.set(job, GpuId(g), 1.0, 0.1);
  }
  const auto task = [&](JobId job, std::uint32_t round) {
    return inst.jobs.job(job).task_at(round, 0);
  };
  Schedule schedule;
  schedule.sequences = {{task(a, 1)},
                        {task(b, 0), task(a, 0), task(c, 0), task(b, 1)}};

  const SimResult result =
      Simulator(inst.cluster, inst.jobs, inst.times).run(schedule);
  const TaskRecord& b1 =
      result.tasks[static_cast<std::size_t>(task(b, 1).value())];
  EXPECT_EQ(b1.gpu, GpuId(1));
  EXPECT_TRUE(b1.model_resident);
}

// ------------------------------------------------------------------ export --

TEST(Export, TaskCsvHasHeaderAndAllRows) {
  const Instance inst = make_random_instance(640, 6, 4);
  core::HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);

  std::ostringstream os;
  sim::export_task_csv(inst.cluster, inst.jobs, result, os);
  const std::string text = os.str();
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, inst.jobs.task_count() + 1);
  EXPECT_EQ(text.rfind("task,job,", 0), 0u);
}

TEST(Export, JobCsvRowsMatchJobs) {
  const Instance inst = make_random_instance(641, 5, 4);
  core::HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);

  std::ostringstream os;
  sim::export_job_csv(inst.jobs, result, os);
  std::size_t lines = 0;
  for (char c : os.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, inst.jobs.job_count() + 1);
}

TEST(Export, FilesRoundTrip) {
  const Instance inst = make_random_instance(642, 4, 4);
  core::HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);

  const std::string prefix = ::testing::TempDir() + "/hare_export";
  sim::export_result_files(inst.cluster, inst.jobs, result, prefix);
  std::ifstream tasks(prefix + "_tasks.csv");
  std::ifstream jobs(prefix + "_jobs.csv");
  EXPECT_TRUE(tasks.good());
  EXPECT_TRUE(jobs.good());
  std::remove((prefix + "_tasks.csv").c_str());
  std::remove((prefix + "_jobs.csv").c_str());
}

// ------------------------------------------------------------------ gantt --

TEST(Gantt, RendersAllGpuRows) {
  const Instance inst = make_random_instance(720, 5, 4);
  core::HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);

  const std::string chart =
      sim::render_gantt(inst.cluster, inst.jobs, result);
  std::size_t rows = 0;
  for (char c : chart) rows += c == '|' ? 1 : 0;
  // Two pipes per GPU row.
  EXPECT_EQ(rows, inst.cluster.gpu_count() * 2);
  EXPECT_NE(chart.find("legend:"), std::string::npos);
}

TEST(Gantt, BusyGlyphsPresent) {
  const Instance inst = make_uniform_instance({1.0}, 2, 2, 1, 0.05);
  sim::Schedule schedule;
  schedule.sequences = {{TaskId(0), TaskId(2), TaskId(1), TaskId(3)}};
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);

  sim::GanttOptions options;
  options.width = 40;
  options.show_legend = false;
  const std::string chart =
      sim::render_gantt(inst.cluster, inst.jobs, result, options);
  EXPECT_NE(chart.find('0'), std::string::npos);
  EXPECT_NE(chart.find('1'), std::string::npos);
}

TEST(Gantt, RejectsTinyWidth) {
  const Instance inst = make_uniform_instance({1.0}, 1, 1, 1);
  sim::Schedule schedule;
  schedule.sequences = {{TaskId(0)}};
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  const sim::SimResult result = simulator.run(schedule);
  sim::GanttOptions options;
  options.width = 4;
  EXPECT_THROW(
      (void)sim::render_gantt(inst.cluster, inst.jobs, result, options),
      common::Error);
}

}  // namespace
}  // namespace hare::sim
