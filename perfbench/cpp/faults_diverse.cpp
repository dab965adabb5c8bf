// faults_diverse: 10k jobs on 1024 GPUs where almost every job has its own
// shape, so the profiler's shape memo is defeated and every job costs a
// profile row. Planning sees the noisy Profiler::profile table, the
// simulator charges Profiler::exact, and FaultRunner::run plans, replays
// fault-free, then injects machine and GPU failures (with repair) and
// stragglers and replans the displaced work, once per fault scenario. The
// work is simulation, fault handling and switching, plus profiling in
// set-up; the LP and the shard planner are bypassed.
#include <cmath>
#include <set>
#include <tuple>

#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/hare_scheduler.hpp"
#include "core/relaxation.hpp"
#include "fault/runner.hpp"
#include "profiler/profiler.hpp"
#include "sim/simulator.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hare;

constexpr std::size_t kJobs = 10'000;
constexpr std::size_t kGpus = 1024;
constexpr double kArrivalRate = 3.0;  ///< jobs/s in the quiet MMPP state
constexpr std::size_t kGpuFailures = 32;
constexpr std::size_t kMachineFailures = 4;
/// Fault scenarios (seeded failure sites) replayed over the one trace;
/// averaging them keeps the faulted JCT and the fault work per run from
/// hanging on which GPUs one scenario happens to hit, and gives plan_ms.*
/// a dozen samples per run.
constexpr std::size_t kScenarios = 12;

/// Fault accounting summed over the scenarios of one cycle.
struct FaultTotals {
  std::size_t replans_full = 0;
  std::size_t replans_greedy = 0;
  std::size_t restarts = 0;
  std::size_t dead_letters = 0;
  std::size_t tasks_killed = 0;
  double lost_compute_s = 0.0;
  double weighted_jct_sum = 0.0;  ///< each scenario's weighted JCT
  double makespan_sum = 0.0;
  Quality counts;  ///< job outcomes and switching (the JCT sums unused)

  void add(const fault::FaultRunReport& report) {
    const sim::FaultStats& faults = report.faulted.faults;
    replans_full += report.replans_full;
    replans_greedy += report.replans_greedy;
    restarts += faults.restarts;
    dead_letters += faults.dead_letters;
    tasks_killed += faults.tasks_killed;
    lost_compute_s += faults.lost_compute;
    const Quality q = quality_of(report.faulted);
    weighted_jct_sum += q.weighted_jct();
    makespan_sum += q.makespan;
    counts.jobs += q.jobs;
    counts.completed += q.completed;
    counts.cancelled += q.cancelled;
    counts.dead_lettered += q.dead_lettered;
    counts.switch_overhead_s += q.switch_overhead_s;
    counts.switches += q.switches;
    counts.resident_hits += q.resident_hits;
  }
};

/// The default trace generator draws every job's model, arrival, sync
/// scale, rounds and weight; this then gives each job a (batch size,
/// batches per task) pair no earlier job of its model has. Batch sizes
/// span [b0/2, 2·b0] around the model default b0, and batches per task are
/// log-uniform on [1, 400], whose geometric mean is the default 20.
void diversify(workload::JobSet& jobs, std::uint64_t seed) {
  common::Rng rng(seed);
  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> used;
  workload::JobSet out;
  for (const workload::Job& job : jobs.jobs()) {
    workload::JobSpec spec = job.spec;
    const std::uint32_t b0 = workload::model_spec(spec.model).default_batch_size;
    const std::uint32_t lo = std::max<std::uint32_t>(1, b0 / 2);
    for (int attempt = 0; attempt < 256; ++attempt) {
      spec.batch_size = static_cast<std::uint32_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(2 * b0)));
      spec.batches_per_task = static_cast<std::uint32_t>(
          std::lround(std::exp(rng.uniform(0.0, std::log(400.0)))));
      if (used.emplace(static_cast<int>(spec.model), spec.batch_size,
                       spec.batches_per_task)
              .second) {
        break;
      }
    }
    out.add_job(std::move(spec));
  }
  jobs = std::move(out);
}

fault::FaultEvent event(fault::FaultKind kind, Time time, int id) {
  fault::FaultEvent e;
  e.kind = kind;
  e.time = time;
  e.gpu = GpuId(id);
  e.machine = MachineId(id);
  return e;
}

/// Failures at fixed fractions of the arrival span, on seeded GPUs and
/// machines: kGpuFailures GPU failures spread over [0.5, 0.9] of the span,
/// each repaired after 120 s and each followed by a half-speed straggler
/// window on another GPU, plus kMachineFailures machine failures at 0.5,
/// 0.6, ... of the span, repaired after 300 s. Fixed instants keep the
/// damage comparable from seed to seed: with failures drawn at random
/// instants the faulted weighted JCT moves by up to 2x between seeds,
/// because a job displaced early waits behind its survivors' whole plan.
fault::FaultRunnerConfig runner_config(const cluster::Cluster& cluster,
                                       Time span, std::uint64_t seed) {
  fault::FaultRunnerConfig config;
  config.spec.seed = seed;
  config.spec.retry.max_retries = 10;
  common::Rng rng(seed);
  const auto gpus = static_cast<std::uint64_t>(cluster.gpu_count());
  const auto machines = static_cast<std::uint64_t>(cluster.machine_count());
  std::vector<fault::FaultEvent>& events = config.spec.scripted;
  for (std::size_t k = 0; k < kGpuFailures; ++k) {
    const Time t = span * (0.5 + 0.4 * static_cast<double>(k) /
                                     static_cast<double>(kGpuFailures));
    const int gpu = static_cast<int>(rng.uniform_int(gpus));
    events.push_back(event(fault::FaultKind::GpuFail, t, gpu));
    events.push_back(event(fault::FaultKind::GpuRecover, t + 120.0, gpu));
    fault::FaultEvent slow = event(fault::FaultKind::StragglerStart, t + 50.0,
                                   static_cast<int>(rng.uniform_int(gpus)));
    slow.factor = 2.0;
    events.push_back(slow);
    slow.kind = fault::FaultKind::StragglerEnd;
    slow.time = t + 250.0;
    slow.factor = 1.0;
    events.push_back(slow);
  }
  for (std::size_t k = 0; k < kMachineFailures; ++k) {
    const Time t = span * (0.5 + 0.1 * static_cast<double>(k)) + 10.0;
    const int machine = static_cast<int>(rng.uniform_int(machines));
    events.push_back(event(fault::FaultKind::MachineFail, t, machine));
    events.push_back(
        event(fault::FaultKind::MachineRecover, t + 300.0, machine));
  }
  return config;
}

struct State {
  cluster::Cluster cluster =
      cluster::make_simulation_cluster(kGpus, 25.0, 8, 16);
  workload::JobSet jobs;
  Time span = 0.0;  ///< last arrival
  profiler::TimeTable profiled;
  profiler::TimeTable actual;
  ProfileCounts profile;
};

std::unique_ptr<State> build(std::uint64_t seed, Tracer& tracer) {
  auto state = std::make_unique<State>();
  {
    ScopedSpan span(tracer, "workload.gen");
    // The default MMPP arrival process; fixed duty-cycle bursts queue
    // more per burst here and double the seed-to-seed JCT spread.
    workload::TraceConfig config;
    config.job_count = kJobs;
    config.base_arrival_rate = kArrivalRate;
    config.rounds_scale_min = 0.02;
    config.rounds_scale_max = 0.08;
    workload::TraceGenerator generator(derive_seed(seed, 1));
    state->jobs = generator.generate(config);
    diversify(state->jobs, derive_seed(seed, 2));
    state->span = state->jobs.jobs().back().spec.arrival;
  }
  {
    ScopedSpan span(tracer, "profiler.profile");
    profiler::Profiler profiler(workload::PerfModel{},
                                profiler::ProfilerConfig{},
                                derive_seed(seed, 3));
    state->profiled = profiler.profile(state->jobs, state->cluster);
    state->profile.add(profiler);
    state->actual = profiler.exact(state->jobs, state->cluster);
    state->profiled.precompute();
    state->actual.precompute();
  }
  return state;
}

fault::FaultRunReport run_scenario(const State& state, std::uint64_t seed,
                                   std::size_t k) {
  fault::FaultRunner runner(
      state.cluster, state.jobs, state.profiled, state.actual,
      runner_config(state.cluster, state.span, derive_seed(seed, 100 + k)));
  return runner.run();
}

/// Bit identity of two faulted runs: every job's outcome, completion and
/// restarts, the objective, the makespan and the replan counts.
bool same_outcome(const fault::FaultRunReport& a,
                  const fault::FaultRunReport& b) {
  const std::vector<sim::JobRecord>& x = a.faulted.jobs;
  const std::vector<sim::JobRecord>& y = b.faulted.jobs;
  if (x.size() != y.size()) return false;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j].outcome != y[j].outcome || x[j].completion != y[j].completion ||
        x[j].restarts != y[j].restarts) {
      return false;
    }
  }
  return a.faulted.weighted_completion == b.faulted.weighted_completion &&
         a.faulted.makespan == b.faulted.makespan &&
         a.replans_full == b.replans_full &&
         a.replans_greedy == b.replans_greedy;
}

}  // namespace

RunResult run_faults_diverse(const Options& options, Tracer& tracer) {
  RunResult result;
  double setup_s = 0.0;
  const std::unique_ptr<State> state = repeated_setup<State>(
      options.trace, tracer,
      [&] { return build(options.seed, tracer); }, setup_s);

  // Timed phase: whole cycles over the fault scenarios. The first cycle's
  // outcomes are summed for the metrics.
  FaultTotals totals;
  fault::FaultRunReport report;
  fault::FaultRunReport first;  ///< scenario 0 of the first cycle
  bool same_baseline = true;
  // The planning calls are the flat plans FaultRunner::run starts from,
  // timed on their own: a fault run's time also hangs on how much damage
  // its scenario does, which moved plan_ms.p90 by up to 0.26 (IQR over
  // median, ten seeds) when the runs themselves were the samples.
  const sched::SchedulerInput input{state->cluster, state->jobs,
                                    state->profiled};
  core::HareScheduler planner;
  std::vector<sim::Schedule> plans(kScenarios);
  sim::Schedule plan;
  std::vector<double> plan_ms;
  std::vector<double> run_ms;
  {
    ScopedSpan timed(tracer, "timed");
    plan_ms = timed_cycles(
        0.0, kScenarios,
        [&](std::size_t) {
          ScopedSpan span(tracer, "core.plan");
          plan = planner.schedule(input);
        },
        [&](std::size_t k, std::size_t) { plans[k] = std::move(plan); });
    run_ms = timed_cycles(
        options.seconds, kScenarios,
        [&](std::size_t k) {
          ScopedSpan span(tracer, "fault.run");
          report = run_scenario(*state, options.seed, k);
        },
        [&](std::size_t k, std::size_t cycle) {
          if (cycle > 0) return;
          totals.add(report);
          if (k == 0) {
            first = std::move(report);
          } else {
            same_baseline =
                same_baseline && identical(report.schedule, first.schedule);
          }
        });
  }
  record_timing(result, setup_s, run_ms, kJobs);
  result.e2e("plan_ms.p50", percentile(plan_ms, 0.50), "ms");
  result.e2e("plan_ms.p90", percentile(plan_ms, 0.90), "ms");
  result.plan_samples = plan_ms.size();

  // Output checks: the baseline plan (the same in every scenario)
  // validates and replays fault-free in full, every job of every faulted
  // run is accounted for, and a second run of scenario 0 reproduces the
  // first bit for bit.
  const Quality& q = totals.counts;
  {
    ScopedSpan span(tracer, "check");
    const fault::FaultRunReport again = run_scenario(*state, options.seed, 0);
    result.check(same_outcome(again, first),
                 "a repeated fault run disagrees with the first");
    std::string why;
    result.check(validates(first.schedule, state->jobs, &why),
                 "invalid baseline plan: " + why);
    for (const sim::Schedule& p : plans) {
      result.check(identical(p, first.schedule),
                   "flat plan differs from the fault runner's baseline");
    }
    result.check(same_baseline, "fault scenarios start from different plans");
    result.check(quality_of(first.fault_free).completed == kJobs,
                 "fault-free replay left jobs unfinished");
    result.check(q.jobs == kJobs * kScenarios &&
                     q.completed + q.cancelled + q.dead_lettered == q.jobs,
                 "faulted runs lost track of jobs");
  }
  const std::size_t cycles = run_ms.size() / kScenarios;
  result.attempted = kJobs * run_ms.size();
  result.failed = (q.jobs - q.completed - q.cancelled) * cycles;
  // Per-scenario weighted JCT and makespan, averaged over the scenarios.
  const double scenarios = static_cast<double>(kScenarios);
  result.e2e("weighted_jct_s", totals.weighted_jct_sum / scenarios, "s");
  result.e2e("makespan_s", totals.makespan_sum / scenarios, "s");
  result.e2e("completed_ratio", q.completed_ratio(), "ratio");
  result.notes.push_back(
      "fault-free: mean GPU utilization " +
      std::to_string(first.fault_free.mean_gpu_utilization()) +
      ", weighted JCT " +
      std::to_string(quality_of(first.fault_free).weighted_jct()) + " s");

  if (!options.trace) return result;

  // Diagnostics outside the spans they decompose: the flat plan's
  // relaxation alone, and a fault-free replay of the plan.
  std::size_t sim_tasks = 0;
  {
    ScopedSpan span(tracer, "diagnostic");
    {
      ScopedSpan relax_span(tracer, "core.relax");
      const core::HareRelaxation relaxation{core::RelaxationConfig{}};
      result.check(relaxation.solve(state->cluster, state->jobs,
                                    state->profiled)
                           .h.size() == state->jobs.task_count(),
                   "relaxation skipped tasks");
    }
    const sim::Simulator simulator(state->cluster, state->jobs, state->actual);
    ScopedSpan sim_span(tracer, "sim.run");
    sim_tasks = simulator.run(first.schedule).tasks.size();
  }
  const double plan_mean = tracer.mean_ms("core.plan");
  const double relax_mean = tracer.mean_ms("core.relax");
  const double sim_ms = tracer.total_ms("sim.run");
  record_setup_layers(result, tracer, state->jobs.task_count(),
                      state->profile);
  result.layer("core.plan_ms", plan_mean, "ms");
  result.layer("core.relax_ms", relax_mean, "ms");
  result.layer("core.list_ms", plan_mean - relax_mean, "ms");
  result.layer("sim.run_ms", sim_ms, "ms");
  result.layer("sim.tasks_per_s",
               ratio(static_cast<double>(sim_tasks), sim_ms / 1000.0), "1/s");
  // Fault and switching counts are summed over one cycle's scenarios.
  result.layer("switching.overhead_s", q.switch_overhead_s, "s");
  result.layer("switching.resident_hit_ratio", q.resident_hit_ratio(),
               "ratio");
  result.layer("fault.run_ms", tracer.mean_ms("fault.run"), "ms");
  result.layer("fault.replans_full", static_cast<double>(totals.replans_full),
               "count");
  result.layer("fault.replans_greedy",
               static_cast<double>(totals.replans_greedy), "count");
  result.layer("fault.restarts", static_cast<double>(totals.restarts),
               "count");
  result.layer("fault.dead_letters", static_cast<double>(totals.dead_letters),
               "count");
  result.layer("fault.tasks_killed", static_cast<double>(totals.tasks_killed),
               "count");
  result.layer("fault.lost_compute_s", totals.lost_compute_s, "s");
  return result;
}

}  // namespace perfbench
