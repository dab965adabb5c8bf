// serve_bursty: the streaming ServeService with its default configuration
// (per-arrival admission, incremental LP for batches of at most 32 jobs,
// compaction at 2048 rows) on 256 GPUs. Input is kStreams independent
// bursty arrival streams below the cluster's capacity, each with its own
// GPU and machine failures and cancellations. Arrivals are an open loop in
// virtual time, so jobs_per_s is the highest arrival rate the planner
// sustains in wall time. The work is the serve loop and its warm-started
// LP (serve, opt); no simulator run is timed, and the schedule-quality
// metrics are the planned values.
#include <algorithm>

#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault_spec.hpp"
#include "profiler/profiler.hpp"
#include "serve/serve_service.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hare;

/// Streams per run and arrivals per stream. Job durations are heavy
/// tailed, so the mean JCT of a few hundred jobs moves by ~10% from seed
/// to seed; averaging independent streams narrows that by sqrt(kStreams).
constexpr std::size_t kStreams = 6;
constexpr std::size_t kArrivals = 500;
/// Quiet-window arrival rate (jobs/s); bursts run at six times this. The
/// planned GPU busy share is ~28% and the planned makespan ends ~20 s
/// after the last arrival: bursts queue, and the backlog stays bounded.
constexpr double kArrivalRate = 2.3;
constexpr std::size_t kGpus = 256;

struct Stream {
  workload::JobSet jobs;  ///< the arrivals, materialized
  std::vector<workload::JobSpec> arrivals;
  fault::FaultPlan faults;
};

struct State {
  cluster::Cluster cluster = cluster::make_simulation_cluster(kGpus, 25.0, 8);
  std::vector<Stream> streams;
  sim::Schedule cold_plan;  ///< stream 0 served once during set-up
};

serve::ServeReport serve_stream(const State& state, std::size_t k,
                                std::unique_ptr<serve::ServeService>& service) {
  service = std::make_unique<serve::ServeService>(
      state.cluster, workload::PerfModel{}, serve::ServeConfig{});
  return service->run(state.streams[k].arrivals, state.streams[k].faults);
}

std::unique_ptr<State> build(std::uint64_t seed, Tracer& tracer) {
  auto state = std::make_unique<State>();
  {
    ScopedSpan span(tracer, "workload.gen");
    state->streams.resize(kStreams);
    for (std::size_t k = 0; k < kStreams; ++k) {
      Stream& stream = state->streams[k];
      const workload::TraceConfig config =
          loaded_trace(kArrivals, kArrivalRate, 5.0, 15.0);
      workload::TraceGenerator generator(derive_seed(seed, 10 + k));
      stream.jobs = generator.generate(config);
      for (const workload::Job& job : stream.jobs.jobs()) {
        stream.arrivals.push_back(job.spec);
      }
      fault::FaultSpec spec;
      spec.seed = derive_seed(seed, 20 + k);
      spec.gpu_failures = 8;
      spec.machine_failures = 2;
      spec.mttr = 120.0;
      spec.cancellations = kArrivals / 50;
      stream.faults = fault::generate_fault_plan(
          spec, state->cluster, stream.jobs, stream.arrivals.back().arrival);
    }
  }
  {
    // The first, cold serve run (profiling included, since the service
    // profiles each arrival as it admits it). Trace generation alone takes
    // about a millisecond, too short to time steadily.
    ScopedSpan span(tracer, "serve.cold_run");
    std::unique_ptr<serve::ServeService> service;
    state->cold_plan = serve_stream(*state, 0, service).schedule;
  }
  return state;
}

/// What one served stream leaves behind for the checks and metrics.
struct Served {
  serve::ServeReport report;
  workload::JobSet jobs;       ///< arrivals plus continuations
  profiler::TimeTable times;   ///< the service's per-arrival profile
};

/// Planned outcome of one served stream. Completion is the latest
/// predicted start + T^c + T^s of a job's tasks; quality is taken over
/// every planned job (originals and the continuations failures spawned).
struct PlannedQuality {
  double weighted_flow = 0.0;
  double weight = 0.0;
  double makespan = 0.0;
  double busy = 0.0;               ///< planned compute, all tasks
  std::vector<char> planned;       ///< by JobId: has planned tasks
  std::size_t originals = 0;       ///< stream arrivals found in the JobSet
  std::size_t planned_originals = 0;
  std::size_t cancelled_originals = 0;  ///< unplanned, with a cancel event
  std::size_t cancelled_jobs = 0;  ///< unplanned jobs of any kind, likewise
};

PlannedQuality planned_quality(const Served& served, const Stream& stream) {
  const sim::Schedule& plan = served.report.schedule;
  std::vector<Time> done(served.jobs.job_count(), 0.0);
  PlannedQuality q;
  q.planned.assign(served.jobs.job_count(), 0);
  for (std::size_t g = 0; g < plan.sequences.size(); ++g) {
    const GpuId gpu(static_cast<GpuId::underlying_type>(g));
    for (TaskId task : plan.sequences[g]) {
      const JobId job = served.jobs.task(task).job;
      const Time end =
          plan.predicted_start[static_cast<std::size_t>(task.value())] +
          served.times.tc(job, gpu) + served.times.ts(job, gpu);
      q.busy += served.times.tc(job, gpu);
      const auto j = static_cast<std::size_t>(job.value());
      done[j] = std::max(done[j], end);
      q.planned[j] = 1;
    }
  }
  std::vector<char> cancel_event(served.jobs.job_count(), 0);
  for (const fault::FaultEvent& e : stream.faults.events) {
    const auto j = static_cast<std::size_t>(e.job.value());
    if (e.kind == fault::FaultKind::JobCancel && j < cancel_event.size()) {
      cancel_event[j] = 1;
    }
  }
  // The service admits arrivals in stream order and each continuation the
  // moment its GPU fails, so JobIds interleave the two; an original is
  // the next stream arrival by name (continuations carry a "+r<round>"
  // suffix).
  for (const workload::Job& job : served.jobs.jobs()) {
    const auto j = static_cast<std::size_t>(job.id.value());
    const bool original = q.originals < stream.arrivals.size() &&
                          job.spec.name == stream.arrivals[q.originals].name;
    q.originals += original ? 1 : 0;
    if (!q.planned[j]) {
      if (cancel_event[j]) {
        ++q.cancelled_jobs;
        q.cancelled_originals += original ? 1 : 0;
      }
      continue;
    }
    q.planned_originals += original ? 1 : 0;
    q.weighted_flow += job.spec.weight * (done[j] - job.spec.arrival);
    q.weight += job.spec.weight;
    q.makespan = std::max(q.makespan, done[j]);
  }
  return q;
}

}  // namespace

RunResult run_serve_bursty(const Options& options, Tracer& tracer) {
  RunResult result;
  double setup_s = 0.0;
  const std::unique_ptr<State> state = repeated_setup<State>(
      options.trace, tracer,
      [&] { return build(options.seed, tracer); }, setup_s);

  // Timed phase: whole cycles over the streams until the time is up, each
  // stream served by a fresh service. The first cycle's outcomes are kept
  // for the checks.
  std::vector<Served> served(kStreams);
  std::unique_ptr<serve::ServeService> service;
  serve::ServeReport report;
  std::vector<double> run_ms;
  {
    ScopedSpan timed(tracer, "timed");
    run_ms = timed_cycles(
        options.seconds, kStreams,
        [&](std::size_t k) {
          ScopedSpan span(tracer, "serve.run");
          report = serve_stream(*state, k, service);
        },
        [&](std::size_t k, std::size_t cycle) {
          if (cycle > 0) return;
          served[k] =
              Served{std::move(report), service->jobs(), service->times()};
        });
  }
  record_timing(result, setup_s, run_ms, kArrivals);

  // Output checks: the timed run of stream 0 reproduces the cold set-up
  // run bit for bit; each stream's planned jobs validate and replay in the
  // simulator; every arrival was admitted; and the jobs left unplanned
  // with a cancel event are exactly the cancellations the service counted.
  // Originals left unplanned without one are the service's own drops:
  // they count as failed operations and lower completed_ratio.
  double weighted_jct = 0.0;
  double makespan = 0.0;
  double busy_share = 0.0;
  double span_s = 0.0;
  std::size_t submitted = 0;
  std::size_t planned = 0;
  {
    ScopedSpan span(tracer, "check");
    result.check(identical(served[0].report.schedule, state->cold_plan),
                 "timed serve run differs from the cold set-up run");
    const profiler::Profiler profiler(workload::PerfModel{},
                                      profiler::ProfilerConfig{}, 1);
    for (std::size_t k = 0; k < kStreams; ++k) {
      const Stream& stream = state->streams[k];
      const PlannedQuality q = planned_quality(served[k], stream);
      const SubInstance sub =
          restrict_to(served[k].report.schedule, served[k].jobs, q.planned);
      std::string why;
      result.check(validates(sub.schedule, sub.jobs, &why),
                   "invalid served plan: " + why);
      const profiler::TimeTable exact =
          profiler.exact(sub.jobs, state->cluster);
      const sim::Simulator simulator(state->cluster, sub.jobs, exact);
      {
        ScopedSpan sim_span(tracer, "sim.replay");
        result.check(quality_of(simulator.run(sub.schedule)).completed ==
                         sub.jobs.job_count(),
                     "replay of the served plan left jobs unfinished");
      }
      result.check(served[k].report.arrivals == kArrivals &&
                       q.originals == kArrivals,
                   "arrivals went missing");
      result.check(q.cancelled_jobs == served[k].report.canceled,
                   "unplanned cancelled jobs do not match the service's "
                   "cancel count");
      submitted += kArrivals - q.cancelled_originals;
      planned += q.planned_originals;
      const double n = static_cast<double>(kStreams);
      weighted_jct += ratio(q.weighted_flow, q.weight) / n;
      makespan += q.makespan / n;
      busy_share += q.busy / (q.makespan * static_cast<double>(kGpus)) / n;
      span_s += stream.arrivals.back().arrival / n;
    }
  }
  const std::size_t cycles = run_ms.size() / kStreams;
  result.attempted = submitted * cycles;
  result.failed = (submitted - planned) * cycles;

  result.e2e("weighted_jct_s", weighted_jct, "s");
  result.e2e("makespan_s", makespan, "s");
  result.e2e("completed_ratio",
             ratio(static_cast<double>(planned), static_cast<double>(submitted)),
             "ratio");
  result.notes.push_back("mean last arrival " + std::to_string(span_s) +
                         " s, mean planned makespan " +
                         std::to_string(makespan) +
                         " s, planned GPU busy share " +
                         std::to_string(busy_share));

  if (!options.trace) return result;

  // LP and batch counts are summed over one cycle's streams.
  serve::ServeReport sum;
  std::size_t tasks = 0;
  for (std::size_t k = 0; k < kStreams; ++k) {
    const serve::ServeReport& r = served[k].report;
    sum.lp.warm_solves += r.lp.warm_solves;
    sum.lp.cold_solves += r.lp.cold_solves;
    sum.lp.warm_pivots += r.lp.warm_pivots;
    sum.lp.cold_pivots += r.lp.cold_pivots;
    sum.lp.compactions += r.lp.compactions;
    sum.batches += r.batches;
    sum.lp_batches += r.lp_batches;
    sum.flat_batches += r.flat_batches;
    sum.greedy_batches += r.greedy_batches;
    sum.displaced_tasks += r.displaced_tasks;
    sum.continuations += r.continuations;
    tasks += state->streams[k].jobs.task_count();
  }
  result.layer("workload.gen_ms", tracer.total_ms("workload.gen"), "ms");
  result.layer("workload.tasks", static_cast<double>(tasks), "count");
  result.layer("opt.serve_warm_solves",
               static_cast<double>(sum.lp.warm_solves), "count");
  result.layer("opt.serve_cold_solves",
               static_cast<double>(sum.lp.cold_solves), "count");
  result.layer("opt.serve_pivots",
               static_cast<double>(sum.lp.warm_pivots + sum.lp.cold_pivots),
               "count");
  result.layer("opt.serve_compactions", static_cast<double>(sum.lp.compactions),
               "count");
  result.layer("serve.run_ms", tracer.mean_ms("serve.run"), "ms");
  result.layer("serve.batches", static_cast<double>(sum.batches), "count");
  result.layer("serve.batch_ms.mean",
               ratio(tracer.mean_ms("serve.run") * static_cast<double>(kStreams),
                     static_cast<double>(sum.batches)),
               "ms");
  result.layer("serve.lp_batches", static_cast<double>(sum.lp_batches),
               "count");
  result.layer("serve.flat_batches", static_cast<double>(sum.flat_batches),
               "count");
  result.layer("serve.greedy_batches", static_cast<double>(sum.greedy_batches),
               "count");
  result.layer("serve.displaced_tasks",
               static_cast<double>(sum.displaced_tasks), "count");
  result.layer("serve.continuations", static_cast<double>(sum.continuations),
               "count");
  return result;
}

}  // namespace perfbench
