// Fault-injection subsystem tests: spec parsing, deterministic plan
// generation, scenario semantics (failure/recovery, cancellation,
// dead-letter), replan-on-failure through the real planners, and the
// determinism contract — the same fault spec + seed yields bit-identical
// SimResults across repeated runs and across serial vs pooled sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "core/hare.hpp"
#include "exp/engine.hpp"
#include "fault/fault_spec.hpp"
#include "fault/runner.hpp"
#include "test_util.hpp"
#include "workload/feasibility.hpp"

namespace hare {
namespace {

using testing::Instance;
using testing::make_random_instance;

// ------------------------------------------------------------- equality --

bool records_identical(const sim::TaskRecord& a, const sim::TaskRecord& b) {
  return a.gpu == b.gpu && a.ready == b.ready && a.start == b.start &&
         a.switch_time == b.switch_time &&
         a.compute_start == b.compute_start &&
         a.compute_end == b.compute_end && a.sync_end == b.sync_end &&
         a.model_resident == b.model_resident && a.attempts == b.attempts;
}

/// Bitwise result equality (exact double compares, no tolerance): the
/// determinism contract promises bit-identical runs, so == is the test.
bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.tasks.size() != b.tasks.size() || a.jobs.size() != b.jobs.size() ||
      a.gpus.size() != b.gpus.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    if (!records_identical(a.tasks[i], b.tasks[i])) return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.arrival != y.arrival || x.completion != y.completion ||
        x.weight != y.weight || x.outcome != y.outcome ||
        x.restarts != y.restarts) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.gpus.size(); ++i) {
    const auto& x = a.gpus[i];
    const auto& y = b.gpus[i];
    if (x.busy_compute != y.busy_compute || x.busy_switch != y.busy_switch ||
        x.last_busy_end != y.last_busy_end || x.task_count != y.task_count) {
      return false;
    }
  }
  const auto& fa = a.faults;
  const auto& fb = b.faults;
  return a.makespan == b.makespan &&
         a.weighted_completion == b.weighted_completion &&
         a.weighted_jct == b.weighted_jct &&
         fa.machine_failures == fb.machine_failures &&
         fa.gpu_failures == fb.gpu_failures &&
         fa.recoveries == fb.recoveries &&
         fa.cancellations == fb.cancellations &&
         fa.restarts == fb.restarts && fa.dead_letters == fb.dead_letters &&
         fa.replans == fb.replans && fa.tasks_killed == fb.tasks_killed &&
         fa.lost_compute == fb.lost_compute &&
         fa.restart_overhead == fb.restart_overhead &&
         fa.recovery_latencies == fb.recovery_latencies;
}

/// §5.1 execution invariants restricted to jobs that completed: barrier
/// ordering between consecutive rounds, arrival gating, completion = last
/// barrier. Replanned tasks move GPUs, so per-GPU sequence order against
/// the original schedule is not checked here.
void check_completed_job_invariants(const Instance& inst,
                                    const sim::SimResult& result) {
  constexpr double kEps = 1e-6;
  for (const auto& job : inst.jobs.jobs()) {
    const auto& record = result.jobs[static_cast<std::size_t>(job.id.value())];
    if (record.outcome != sim::JobOutcome::Completed) continue;
    for (TaskId id : job.task_ids()) {
      const auto& task = result.tasks[static_cast<std::size_t>(id.value())];
      EXPECT_GE(task.attempts, 1u);
      EXPECT_GE(task.start + kEps, job.spec.arrival);
      EXPECT_GE(task.compute_start + kEps, task.start);
      EXPECT_GT(task.compute_end, task.compute_start);
      EXPECT_GE(task.sync_end + kEps, task.compute_end);
    }
    for (std::uint32_t r = 1; r < job.rounds(); ++r) {
      Time barrier = 0.0;
      for (TaskId id :
           inst.jobs.round_tasks(job.id, static_cast<RoundIndex>(r - 1))) {
        barrier = std::max(
            barrier,
            result.tasks[static_cast<std::size_t>(id.value())].sync_end);
      }
      for (TaskId id :
           inst.jobs.round_tasks(job.id, static_cast<RoundIndex>(r))) {
        EXPECT_GE(result.tasks[static_cast<std::size_t>(id.value())].start +
                      kEps,
                  barrier);
      }
    }
    Time last_barrier = 0.0;
    for (TaskId id : inst.jobs.round_tasks(
             job.id, static_cast<RoundIndex>(job.rounds() - 1))) {
      last_barrier = std::max(
          last_barrier,
          result.tasks[static_cast<std::size_t>(id.value())].sync_end);
    }
    EXPECT_NEAR(record.completion, last_barrier, 1e-9);
  }
}

fault::FaultRunReport run_scenario(const Instance& inst,
                                   fault::FaultRunnerConfig config) {
  fault::FaultRunner runner(inst.cluster, inst.jobs, inst.times, inst.times,
                            std::move(config));
  return runner.run();
}

// ---------------------------------------------------------- spec parsing --

TEST(FaultSpec, ParsesAllKeys) {
  const fault::FaultSpec spec = fault::parse_fault_spec(
      "seed=7,machine_failures=2,gpu_failures=3,mttf=500,mttr=40,"
      "cancellations=1,stragglers=2,straggler_factor=3.5,"
      "straggler_duration=25,max_retries=5,backoff_base=2,"
      "backoff_factor=1.5,backoff_cap=60,restart_overhead=0.5,"
      "replan_budget=4,horizon=900");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.machine_failures, 2u);
  EXPECT_EQ(spec.gpu_failures, 3u);
  EXPECT_DOUBLE_EQ(spec.mttf, 500.0);
  EXPECT_DOUBLE_EQ(spec.mttr, 40.0);
  EXPECT_EQ(spec.cancellations, 1u);
  EXPECT_EQ(spec.stragglers, 2u);
  EXPECT_DOUBLE_EQ(spec.straggler_factor, 3.5);
  EXPECT_DOUBLE_EQ(spec.straggler_duration, 25.0);
  EXPECT_EQ(spec.retry.max_retries, 5u);
  EXPECT_DOUBLE_EQ(spec.retry.backoff_base_s, 2.0);
  EXPECT_DOUBLE_EQ(spec.retry.backoff_factor, 1.5);
  EXPECT_DOUBLE_EQ(spec.retry.backoff_cap_s, 60.0);
  EXPECT_DOUBLE_EQ(spec.retry.restart_overhead_s, 0.5);
  EXPECT_EQ(spec.replan_budget, 4u);
  EXPECT_DOUBLE_EQ(spec.horizon, 900.0);
}

TEST(FaultSpec, EmptyStringThrows) {
  EXPECT_THROW((void)fault::parse_fault_spec(""), common::Error);
}

TEST(FaultSpec, DuplicateKeyThrowsNamingTheKey) {
  try {
    (void)fault::parse_fault_spec("mttf=10,mttr=5,mttf=20");
    FAIL() << "duplicate key accepted";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("mttf"), std::string::npos);
  }
}

TEST(FaultSpec, OverflowValueThrowsNamingTheKey) {
  try {
    (void)fault::parse_fault_spec("mttf=1e9999");
    FAIL() << "overflowing value accepted";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("mttf"), std::string::npos);
  }
  // Integer counts reject magnitudes past what the integral cast holds.
  EXPECT_THROW((void)fault::parse_fault_spec("gpu_failures=1e30"),
               common::Error);
  // from_chars parses "nan"; event times, durations and straggler factors
  // reject it like any other non-finite value.
  for (const char* spec :
       {"events=(fail_gpu:0@nan)", "mttr=nan,machine_failures=1",
        "events=(straggle_gpu:0@0-200:nan)", "mttf=NAN"}) {
    try {
      (void)fault::parse_fault_spec(spec);
      FAIL() << "non-finite value accepted: " << spec;
    } catch (const common::Error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << spec;
    }
  }
}

TEST(FaultSpec, TrailingSeparatorThrows) {
  EXPECT_THROW((void)fault::parse_fault_spec("mttf=10,"), common::Error);
  EXPECT_THROW((void)fault::parse_fault_spec("mttf=10,,mttr=5"),
               common::Error);
  EXPECT_THROW((void)fault::parse_fault_spec("events=(fail_gpu:0@10;)"),
               common::Error);
}

TEST(FaultSpec, ParsesJobCompleteEvents) {
  const fault::FaultSpec spec =
      fault::parse_fault_spec("events=(complete_job:7@42)");
  ASSERT_EQ(spec.scripted.size(), 1u);
  EXPECT_EQ(spec.scripted[0].kind, fault::FaultKind::JobComplete);
  EXPECT_EQ(spec.scripted[0].job, JobId(7));
  EXPECT_DOUBLE_EQ(spec.scripted[0].time, 42.0);
}

TEST(FaultSpec, ParsesScriptedEvents) {
  const fault::FaultSpec spec = fault::parse_fault_spec(
      "events=(fail_machine:1@30;recover_machine:1@80;fail_gpu:4@10;"
      "recover_gpu:4@15;cancel_job:3@12;straggle_gpu:2@5-25:3)");
  // straggle expands into a start+end pair.
  ASSERT_EQ(spec.scripted.size(), 7u);
  EXPECT_EQ(spec.scripted[0].kind, fault::FaultKind::MachineFail);
  EXPECT_EQ(spec.scripted[0].machine, MachineId(1));
  EXPECT_DOUBLE_EQ(spec.scripted[0].time, 30.0);
  EXPECT_EQ(spec.scripted[1].kind, fault::FaultKind::MachineRecover);
  EXPECT_EQ(spec.scripted[2].kind, fault::FaultKind::GpuFail);
  EXPECT_EQ(spec.scripted[2].gpu, GpuId(4));
  EXPECT_EQ(spec.scripted[3].kind, fault::FaultKind::GpuRecover);
  EXPECT_EQ(spec.scripted[4].kind, fault::FaultKind::JobCancel);
  EXPECT_EQ(spec.scripted[4].job, JobId(3));
  EXPECT_EQ(spec.scripted[5].kind, fault::FaultKind::StragglerStart);
  EXPECT_DOUBLE_EQ(spec.scripted[5].factor, 3.0);
  EXPECT_EQ(spec.scripted[6].kind, fault::FaultKind::StragglerEnd);
  EXPECT_DOUBLE_EQ(spec.scripted[6].time, 25.0);
}

TEST(FaultSpec, RejectsUnknownKeysAndMalformedValues) {
  EXPECT_THROW((void)fault::parse_fault_spec("bogus_knob=1"), common::Error);
  EXPECT_THROW((void)fault::parse_fault_spec("mttf=abc"), common::Error);
  EXPECT_THROW((void)fault::parse_fault_spec("events=(explode:1@2)"),
               common::Error);
  EXPECT_THROW((void)fault::parse_fault_spec("events=(fail_gpu:1)"),
               common::Error);
}

TEST(FaultSpec, BackoffIsExponentialAndCapped) {
  fault::RetryPolicy retry;
  retry.backoff_base_s = 5.0;
  retry.backoff_factor = 2.0;
  retry.backoff_cap_s = 18.0;
  EXPECT_DOUBLE_EQ(retry.backoff(1), 5.0);
  EXPECT_DOUBLE_EQ(retry.backoff(2), 10.0);
  EXPECT_DOUBLE_EQ(retry.backoff(3), 18.0);  // 20 capped
  EXPECT_DOUBLE_EQ(retry.backoff(9), 18.0);
}

// -------------------------------------------------------- plan generation --

TEST(FaultPlan, GenerationIsDeterministicInSeed) {
  const Instance inst = make_random_instance(501);
  fault::FaultSpec spec;
  spec.seed = 11;
  spec.machine_failures = 1;
  spec.gpu_failures = 2;
  spec.mttr = 30.0;
  spec.cancellations = 2;
  spec.stragglers = 1;

  const fault::FaultPlan a =
      fault::generate_fault_plan(spec, inst.cluster, inst.jobs, 600.0);
  const fault::FaultPlan b =
      fault::generate_fault_plan(spec, inst.cluster, inst.jobs, 600.0);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].machine, b.events[i].machine);
    EXPECT_EQ(a.events[i].gpu, b.events[i].gpu);
    EXPECT_EQ(a.events[i].job, b.events[i].job);
  }

  spec.seed = 12;
  const fault::FaultPlan c =
      fault::generate_fault_plan(spec, inst.cluster, inst.jobs, 600.0);
  bool any_different = a.events.size() != c.events.size();
  for (std::size_t i = 0; !any_different && i < a.events.size(); ++i) {
    any_different = a.events[i].time != c.events[i].time;
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultPlan, EventCapRejectsUnboundedSpecs) {
  // A spec is checked against kMaxFaultEvents before it expands: an
  // explicit count by its events, the Poisson stream by its expectation
  // (16 GPUs x 60 s / mttf). The error names the key.
  const Instance inst = make_random_instance(506);
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(16, 25.0, 4);
  const auto expand = [&](const std::string& text) {
    return fault::generate_fault_plan(fault::parse_fault_spec(text), cluster,
                                      inst.jobs, 60.0);
  };
  const auto expect_cap = [&](const std::string& text, const char* key) {
    try {
      (void)expand(text);
      ADD_FAILURE() << text << " expanded past the cap";
    } catch (const common::Error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  expect_cap("machine_failures=1e12", "machine_failures");
  expect_cap("mttf=1e-9", "mttf");
  expect_cap("gpu_failures=600000,mttr=5", "gpu_failures");
  expect_cap("stragglers=500001", "stragglers");

  // mttf=0.01 on 16 GPUs is ~96k failures: within the cap, it expands.
  const fault::FaultPlan dense = expand("mttf=0.01");
  EXPECT_GT(dense.events.size(), 90000u);
  EXPECT_LT(dense.events.size(), 100000u);
}

TEST(FaultPlan, EventsAreTimeSorted) {
  const Instance inst = make_random_instance(502);
  fault::FaultSpec spec;
  spec.seed = 3;
  spec.gpu_failures = 3;
  spec.mttr = 20.0;
  spec.cancellations = 2;
  const fault::FaultPlan plan =
      fault::generate_fault_plan(spec, inst.cluster, inst.jobs, 400.0);
  for (std::size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].time, plan.events[i].time);
  }
}

// -------------------------------------------------------------- scenarios --

TEST(FaultScenario, MachineFailureWithRecoveryCompletesEverything) {
  const Instance inst = make_random_instance(503, 10, 8);
  fault::FaultRunnerConfig config;
  config.spec = fault::parse_fault_spec(
      "events=(fail_machine:0@20;recover_machine:0@60)");
  const fault::FaultRunReport report = run_scenario(inst, config);

  EXPECT_GE(report.faulted.faults.gpu_failures, 1u);
  EXPECT_GE(report.faulted.faults.recoveries, 1u);
  for (const auto& job : report.faulted.jobs) {
    EXPECT_EQ(job.outcome, sim::JobOutcome::Completed);
  }
  check_completed_job_invariants(inst, report.faulted);

  // Nothing executed on the dead machine during its downtime: every
  // surviving task record on one of its GPUs lies entirely outside
  // [20, 60).
  for (const GpuId gpu : inst.cluster.machine(MachineId(0)).gpus) {
    for (const auto& task : report.faulted.tasks) {
      if (task.gpu != gpu || task.attempts == 0) continue;
      EXPECT_TRUE(task.compute_end <= 20.0 + 1e-9 ||
                  task.start >= 60.0 - 1e-9)
          << "task ran on failed GPU during downtime: start=" << task.start
          << " compute_end=" << task.compute_end;
    }
  }
  EXPECT_GE(report.degradation_ratio, 0.99);
}

TEST(FaultScenario, CancellationRemovesJobFromAggregates) {
  const Instance inst = make_random_instance(504, 8, 8);
  fault::FaultRunnerConfig config;
  config.spec = fault::parse_fault_spec("events=(cancel_job:2@5)");
  const fault::FaultRunReport report = run_scenario(inst, config);

  const auto& cancelled = report.faulted.jobs[2];
  EXPECT_EQ(cancelled.outcome, sim::JobOutcome::Cancelled);
  EXPECT_DOUBLE_EQ(cancelled.completion, 5.0);
  EXPECT_EQ(report.faulted.faults.cancellations, 1u);

  // The cancelled job contributes nothing to weighted JCT; the others
  // finish no later than fault-free (a cancellation only frees capacity).
  double expected = 0.0;
  for (std::size_t j = 0; j < report.faulted.jobs.size(); ++j) {
    const auto& job = report.faulted.jobs[j];
    if (job.outcome == sim::JobOutcome::Completed) {
      expected += job.weight * job.jct();
    }
  }
  EXPECT_NEAR(report.faulted.weighted_jct, expected, 1e-6);
  check_completed_job_invariants(inst, report.faulted);
}

TEST(FaultScenario, PermanentFailureWithoutReplanDeadLetters) {
  // No replan hook wired at all: jobs displaced by a permanent GPU
  // failure cannot be rescued and must be dead-lettered, not hang.
  const Instance inst = make_random_instance(505, 6, 4);
  core::HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});

  fault::FaultSpec spec = fault::parse_fault_spec("events=(fail_gpu:0@10)");
  const fault::FaultPlan plan =
      fault::generate_fault_plan(spec, inst.cluster, inst.jobs, 100.0);
  sim::SimConfig config;
  config.fault_plan = &plan;
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times, config);
  const sim::SimResult result = simulator.run(schedule);

  EXPECT_GE(result.faults.dead_letters, 1u);
  std::size_t dead = 0;
  for (const auto& job : result.jobs) {
    if (job.outcome == sim::JobOutcome::DeadLettered) ++dead;
  }
  EXPECT_EQ(dead, result.faults.dead_letters);
}

TEST(FaultScenario, ExhaustedRetriesDeadLetter) {
  // max_retries=0: the first failure a job suffers exhausts its retry
  // budget even though a replan hook exists.
  const Instance inst = make_random_instance(506, 8, 8);
  fault::FaultRunnerConfig config;
  config.spec =
      fault::parse_fault_spec("max_retries=0,events=(fail_machine:0@15)");
  const fault::FaultRunReport report = run_scenario(inst, config);

  EXPECT_GE(report.faulted.faults.dead_letters, 1u);
  EXPECT_EQ(report.faulted.faults.restarts, 0u);
  for (const auto& job : report.faulted.jobs) {
    if (job.outcome == sim::JobOutcome::DeadLettered) {
      EXPECT_EQ(job.restarts, 0u);
    }
  }
  check_completed_job_invariants(inst, report.faulted);
}

TEST(FaultScenario, CombinedScenarioReportsDegradationMetrics) {
  // The acceptance scenario: a machine failure with recovery, a
  // cancellation, and an exhausted-retry dead-letter in one run.
  const Instance inst = make_random_instance(507, 12, 8);
  fault::FaultRunnerConfig config;
  config.spec = fault::parse_fault_spec(
      "max_retries=1,backoff_base=2,"
      "events=(fail_machine:0@25;recover_machine:0@70;cancel_job:1@10;"
      "fail_gpu:4@30;fail_gpu:5@40;recover_gpu:4@90;recover_gpu:5@95)");
  const fault::FaultRunReport report = run_scenario(inst, config);

  const sim::FaultStats& stats = report.faulted.faults;
  EXPECT_GE(stats.machine_failures, 1u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_EQ(stats.cancellations, 1u);
  EXPECT_GE(stats.restarts, 1u);
  EXPECT_GT(report.degradation_ratio, 0.0);
  EXPECT_GE(report.starvation, 1.0 - 1e-9);
  EXPECT_GE(report.fragmentation, 0.0);
  EXPECT_LE(report.fragmentation, 1.0);
  EXPECT_TRUE(std::isfinite(report.degradation_ratio));
  check_completed_job_invariants(inst, report.faulted);
}

TEST(FaultScenario, StragglerWindowSlowsButCompletes) {
  const Instance inst = make_random_instance(508, 8, 8);
  fault::FaultRunnerConfig config;
  config.spec =
      fault::parse_fault_spec("events=(straggle_gpu:0@0-200:4)");
  const fault::FaultRunReport report = run_scenario(inst, config);
  for (const auto& job : report.faulted.jobs) {
    EXPECT_EQ(job.outcome, sim::JobOutcome::Completed);
  }
  // A 4x slowdown on one GPU cannot speed the run up.
  EXPECT_GE(report.faulted.weighted_jct,
            report.fault_free.weighted_jct - 1e-9);
  check_completed_job_invariants(inst, report.faulted);
}

TEST(FaultScenario, ZeroReplanBudgetFallsBackToGreedy) {
  const Instance inst = make_random_instance(509, 10, 8);
  fault::FaultRunnerConfig config;
  config.spec = fault::parse_fault_spec(
      "replan_budget=0,events=(fail_machine:0@20;recover_machine:0@80)");
  const fault::FaultRunReport report = run_scenario(inst, config);
  EXPECT_EQ(report.replans_full, 0u);
  EXPECT_GE(report.replans_greedy, 1u);
  for (const auto& job : report.faulted.jobs) {
    EXPECT_EQ(job.outcome, sim::JobOutcome::Completed);
  }
  check_completed_job_invariants(inst, report.faulted);
}

// --------------------------------------------------- greedy repair oracle --

/// The budget-exhausted greedy repair as a plain per-candidate loop: WSPT
/// order over remaining work, then for every task a scan of the alive GPUs
/// that fit the job, keeping the first strict earliest finish. The library
/// runs the same placement through the planner's SIMD scan; this loop is
/// the reference it must match.
fault::ReplanFn greedy_oracle(const Instance& inst) {
  return [&inst](const fault::ReplanRequest& request) {
    fault::ReplanResult result;
    result.appended.resize(inst.cluster.gpu_count());
    std::vector<Time> phi = request.gpu_busy_until;
    std::vector<std::size_t> order(request.jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<double> priority(request.jobs.size(), 0.0);
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
      const fault::ReplanRequest::JobRequest& jr = request.jobs[i];
      const workload::Job& job = inst.jobs.job(jr.job);
      const double remaining_tasks =
          static_cast<double>(job.rounds() -
                              static_cast<std::uint32_t>(jr.first_round)) *
          static_cast<double>(job.tasks_per_round());
      const double work =
          std::max(1e-12, remaining_tasks * inst.times.min_total(jr.job));
      priority[i] = job.spec.weight / work;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (priority[a] != priority[b]) return priority[a] > priority[b];
      return request.jobs[a].job.value() < request.jobs[b].job.value();
    });

    for (const std::size_t i : order) {
      const fault::ReplanRequest::JobRequest& jr = request.jobs[i];
      const workload::Job& job = inst.jobs.job(jr.job);
      std::vector<GpuId> candidates;
      for (std::size_t g = 0; g < inst.cluster.gpu_count(); ++g) {
        if (!request.gpu_alive[g]) continue;
        const GpuId gpu_id(static_cast<int>(g));
        if (workload::task_fits(job, inst.cluster.gpu(gpu_id))) {
          candidates.push_back(gpu_id);
        }
      }
      if (candidates.empty()) continue;

      Time job_ready = jr.release;
      for (std::uint32_t r = static_cast<std::uint32_t>(jr.first_round);
           r < job.rounds(); ++r) {
        Time barrier = job_ready;
        for (std::uint32_t slot = 0; slot < job.tasks_per_round(); ++slot) {
          GpuId best = candidates.front();
          Time best_finish = kTimeInfinity;
          for (const GpuId gpu_id : candidates) {
            const std::size_t g = static_cast<std::size_t>(gpu_id.value());
            const Time finish =
                std::max(phi[g], job_ready) + inst.times.tc(jr.job, gpu_id);
            if (finish < best_finish) {
              best_finish = finish;
              best = gpu_id;
            }
          }
          const std::size_t g = static_cast<std::size_t>(best.value());
          phi[g] = best_finish;
          barrier =
              std::max(barrier, best_finish + inst.times.ts(jr.job, best));
          result.appended[g].push_back(job.task_at(r, slot));
        }
        job_ready = barrier;
      }
    }
    return result;
  };
}

/// Batch size that puts one task of `model` at about `target` bytes.
std::uint32_t batch_for_footprint(workload::ModelType model, Bytes target) {
  const workload::ModelSpec& spec = workload::model_spec(model);
  const Bytes base = workload::task_memory_footprint(spec, 0);
  return static_cast<std::uint32_t>((target - base) /
                                    spec.activation_bytes_per_sample);
}

/// Mixed-memory cluster: machine 0 holds the only A100s (40 GiB), then
/// V100/T4 (16 GiB) and M60 (8 GiB) machines. Job 0 fits only the A100s,
/// so losing machine 0 leaves it no surviving GPU; job 1 fits only the
/// 16 GiB-and-up GPUs.
Instance make_mixed_memory_instance(std::uint64_t seed) {
  Instance inst;
  cluster::ClusterBuilder builder;
  builder.add_machine(cluster::GpuType::A100, 2, 25.0);
  builder.add_machine(cluster::GpuType::V100, 2, 25.0);
  builder.add_machine(cluster::GpuType::T4, 2, 25.0);
  builder.add_machine(cluster::GpuType::M60, 2, 25.0);
  builder.add_machine(cluster::GpuType::M60, 2, 25.0);
  inst.cluster = builder.build();

  workload::TraceConfig trace_config;
  trace_config.job_count = 14;
  trace_config.base_arrival_rate = 0.3;
  trace_config.sync_scales = {1, 2, 2, 4};
  trace_config.rounds_scale_min = 0.05;
  trace_config.rounds_scale_max = 0.2;
  const workload::JobSet generated =
      workload::TraceGenerator(seed).generate(trace_config);
  for (const workload::Job& job : generated.jobs()) {
    workload::JobSpec spec = job.spec;
    if (job.id == JobId(0) || job.id == JobId(1)) {
      spec.model = workload::ModelType::ResNet50;
      spec.arrival = 0.0;
      spec.tasks_per_round = 2;
      spec.batch_size = batch_for_footprint(
          spec.model, job.id == JobId(0) ? 24_GiB : 12_GiB);
    }
    inst.jobs.add_job(std::move(spec));
  }
  profiler::Profiler profiler(workload::PerfModel{},
                              profiler::ProfilerConfig{}, seed);
  inst.times = profiler.exact(inst.jobs, inst.cluster);
  return inst;
}

TEST(FaultGreedyRepair, MatchesPerCandidateOracle) {
  for (const std::uint64_t seed : {531u, 532u, 533u, 534u}) {
    const Instance inst = make_mixed_memory_instance(seed);
    ASSERT_FALSE(workload::task_fits(inst.jobs.job(JobId(0)),
                                     inst.cluster.gpu(GpuId(2))));
    ASSERT_TRUE(workload::task_fits(inst.jobs.job(JobId(1)),
                                    inst.cluster.gpu(GpuId(2))));
    ASSERT_FALSE(workload::task_fits(inst.jobs.job(JobId(1)),
                                     inst.cluster.gpu(GpuId(6))));

    // Fault times scale with the fault-free makespan so every failure
    // lands while work is still queued.
    core::HareScheduler scheduler;
    const sim::Schedule schedule =
        scheduler.schedule({inst.cluster, inst.jobs, inst.times});
    const Time span = sim::Simulator(inst.cluster, inst.jobs, inst.times)
                          .run(schedule)
                          .makespan;
    std::ostringstream spec;
    spec << "replan_budget=0,events=(fail_machine:0@" << 0.05 * span
         << ";fail_gpu:3@" << 0.2 * span << ";recover_machine:0@"
         << 0.4 * span << ";recover_gpu:3@" << 0.6 * span << ")";
    fault::FaultRunnerConfig config;
    config.spec = fault::parse_fault_spec(spec.str());
    const fault::FaultRunReport report = run_scenario(inst, config);
    EXPECT_EQ(report.replans_full, 0u);
    EXPECT_GE(report.replans_greedy, 2u) << "seed " << seed;
    EXPECT_EQ(report.faulted.jobs[0].outcome, sim::JobOutcome::DeadLettered)
        << "seed " << seed;

    const fault::ReplanFn oracle = greedy_oracle(inst);
    sim::SimConfig oracle_config;
    oracle_config.fault_plan = &report.plan;
    oracle_config.retry = config.spec.retry;
    oracle_config.replan = &oracle;
    const sim::SimResult expected =
        sim::Simulator(inst.cluster, inst.jobs, inst.times, oracle_config)
            .run(report.schedule);
    EXPECT_TRUE(results_identical(report.faulted, expected)) << "seed " << seed;
  }
}

// ---------------------------------------------------------- golden runs --

/// One small scenario that fires a full replan (budget 1) and then greedy
/// repairs, alongside a cancellation and a straggler window. Its outcome
/// is pinned bit for bit in both network modes, so a change to the repair,
/// the event loop or the uplink model that moves any result shows here.
fault::FaultRunReport run_golden_scenario(bool contention) {
  const Instance inst = make_random_instance(524, 20, 8);
  fault::FaultRunnerConfig config;
  config.sim.model_network_contention = contention;
  config.spec = fault::parse_fault_spec(
      "replan_budget=1,max_retries=4,backoff_base=2,"
      "events=(cancel_job:2@8;straggle_gpu:5@0-120:3;fail_machine:0@20;"
      "fail_gpu:6@35;recover_machine:0@60;recover_gpu:6@90)");
  fault::FaultRunReport report = run_scenario(inst, config);
  EXPECT_EQ(report.replans_full, 1u);
  EXPECT_EQ(report.replans_greedy, 3u);
  EXPECT_EQ(report.faulted.faults.cancellations, 1u);
  return report;
}

std::vector<std::size_t> resident_hits(const sim::SimResult& result) {
  std::vector<std::size_t> hits;
  for (const auto& stat : result.switch_stats) {
    hits.push_back(stat.resident_hits);
  }
  return hits;
}

TEST(FaultGolden, DefaultNetworkRunIsPinned) {
  const sim::SimResult r = run_golden_scenario(false).faulted;
  EXPECT_EQ(r.weighted_completion, 2383.7308510400617);
  EXPECT_EQ(r.makespan, 265.82031202152768);
  EXPECT_EQ(r.faults.restarts, 28u);
  EXPECT_EQ(r.faults.tasks_killed, 7u);
  EXPECT_EQ(r.faults.dead_letters, 0u);
  EXPECT_EQ(r.faults.lost_compute, 19.864949612897323);
  EXPECT_EQ(resident_hits(r),
            (std::vector<std::size_t>{0, 0, 0, 0, 0, 2, 0, 0, 0}));
}

TEST(FaultGolden, ContentionNetworkRunIsPinned) {
  const sim::SimResult r = run_golden_scenario(true).faulted;
  EXPECT_EQ(r.weighted_completion, 2411.4753079438306);
  EXPECT_EQ(r.makespan, 270.2513532034647);
  EXPECT_EQ(r.faults.restarts, 28u);
  EXPECT_EQ(r.faults.tasks_killed, 7u);
  EXPECT_EQ(r.faults.dead_letters, 0u);
  EXPECT_EQ(r.faults.lost_compute, 19.660938666337319);
  EXPECT_EQ(resident_hits(r),
            (std::vector<std::size_t>{0, 0, 0, 0, 0, 2, 0, 0, 0}));
}

// ------------------------------------------------------------ determinism --

fault::FaultRunnerConfig stochastic_config() {
  fault::FaultRunnerConfig config;
  config.spec = fault::parse_fault_spec(
      "seed=13,machine_failures=1,gpu_failures=1,mttr=30,cancellations=1,"
      "max_retries=3,backoff_base=2");
  return config;
}

TEST(FaultDeterminism, RepeatedRunsAreBitIdentical) {
  const Instance inst = make_random_instance(510, 10, 8);
  const fault::FaultRunReport a = run_scenario(inst, stochastic_config());
  const fault::FaultRunReport b = run_scenario(inst, stochastic_config());
  EXPECT_TRUE(results_identical(a.faulted, b.faulted));
  EXPECT_TRUE(results_identical(a.fault_free, b.fault_free));
  EXPECT_DOUBLE_EQ(a.degradation_ratio, b.degradation_ratio);
  ASSERT_EQ(a.plan.events.size(), b.plan.events.size());
}

TEST(FaultDeterminism, SerialAndPooledSweepsAreBitIdentical) {
  // The same four scenarios fanned across the experiment engine's pool
  // must be byte-for-byte what a serial loop produces — fault handling
  // keeps the strict (time, sequence) event order.
  const std::vector<std::uint64_t> seeds = {21, 22, 23, 24};
  auto run_cell = [&](std::size_t i) {
    const Instance inst = make_random_instance(511, 8, 8);
    fault::FaultRunnerConfig config = stochastic_config();
    config.spec.seed = seeds[i];
    return run_scenario(inst, config).faulted;
  };

  exp::Engine::Options serial_options;
  serial_options.serial = true;
  exp::Engine serial_engine(serial_options);
  const auto serial = serial_engine.map(seeds.size(), run_cell);

  exp::Engine::Options pooled_options;
  pooled_options.workers = 4;
  exp::Engine pooled_engine(pooled_options);
  const auto pooled = pooled_engine.map(seeds.size(), run_cell);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(results_identical(serial[i], pooled[i])) << "cell " << i;
  }
}

// --------------------------------------------------------- sharded replan --

TEST(FaultSharded, ReplanTouchesOnlyAffectedShards) {
  // 32 GPUs in 4 racks (network domains); kill one machine in rack 0.
  // The hierarchical replan partitions displaced jobs over the surviving
  // cluster — shards that receive no displaced job must not plan.
  Instance inst;
  inst.cluster = cluster::make_simulation_cluster(32, 25.0, 4, 2);
  workload::TraceConfig trace_config;
  trace_config.job_count = 12;
  trace_config.base_arrival_rate = 0.2;
  trace_config.sync_scales = {1, 2, 2, 4};
  trace_config.rounds_scale_min = 0.05;
  trace_config.rounds_scale_max = 0.2;
  workload::TraceGenerator generator(513);
  inst.jobs = generator.generate(trace_config);
  profiler::Profiler profiler(workload::PerfModel{},
                              profiler::ProfilerConfig{}, 513);
  inst.times = profiler.exact(inst.jobs, inst.cluster);

  fault::FaultRunnerConfig config;
  config.sharded = true;
  config.spec = fault::parse_fault_spec(
      "events=(fail_machine:0@20;recover_machine:0@120)");
  const fault::FaultRunReport report = run_scenario(inst, config);

  EXPECT_GE(report.faulted.faults.replans, 1u);
  EXPECT_GT(report.replan_shards_total, 0u);
  EXPECT_LT(report.replan_shards_planned, report.replan_shards_total)
      << "every shard planned — replan is not localized";
  check_completed_job_invariants(inst, report.faulted);
}

}  // namespace
}  // namespace hare
