// Fault-injection scenario bench + regression baseline generator.
//
// Runs the acceptance fault scenario end to end through fault::FaultRunner:
// a seeded workload is planned, executed fault-free to fix the horizon,
// then re-executed under a scripted timeline holding (at least) one
// machine failure with recovery, one job cancellation, and one total
// outage that exhausts the single-retry budget — so checkpoint-restart,
// replan-on-failure, and the dead-letter path all fire in one run.
//
// The same scenario is executed three ways — twice back to back on the
// calling thread and once per cell fanned across the hare::exp pool — and
// every SimResult must be **bit-identical**: fault events ride the
// simulator's (time, sequence) event order, so fault runs keep the
// determinism contract the sweep engine relies on.
//
// Emits machine-readable BENCH_fault.json (outcome counts, degradation
// ratio, fragmentation, replan split, determinism flag), gated by
// scripts/check_bench_regression.py: bit-identity and scenario coverage
// always; all gates are machine-independent, so quick and full mode
// enforce the same contracts. A traced quick run is exported as
// Chrome-trace JSON so scripts/validate_trace.py covers the fault spans
// and instant events (`--trace-out`/`--no-trace`).
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault_spec.hpp"
#include "fault/runner.hpp"
#include "obs/obs.hpp"

namespace {

using namespace hare;

struct Instance {
  cluster::Cluster cluster;
  workload::JobSet jobs;
  profiler::TimeTable times;
};

Instance make_instance(bool quick) {
  Instance inst;
  inst.cluster = cluster::make_simulation_cluster(quick ? 8 : 16, 25.0, 4);
  workload::TraceConfig config;
  config.job_count = quick ? 8 : 14;
  config.base_arrival_rate = 0.2;
  config.sync_scales = {1, 2, 2, 4};
  config.rounds_scale_min = 0.05;
  config.rounds_scale_max = 0.2;
  workload::TraceGenerator generator(3100);
  inst.jobs = generator.generate(config);
  profiler::Profiler profiler(workload::PerfModel{},
                              profiler::ProfilerConfig{}, 3100);
  inst.times = profiler.exact(inst.jobs, inst.cluster);
  return inst;
}

/// The acceptance scenario, scripted against the fault-free makespan H:
/// cancel a job early, fail machine 0 at 0.15H and recover it (forcing a
/// checkpoint-restart + replan), then take the whole cluster down at
/// 0.65H under max_retries=1 — any job already restarted once exhausts
/// its budget, everything else has no survivors to replan onto, so the
/// dead-letter path is exercised either way. The late recovery restores
/// capacity for whatever replans remain.
std::string scenario_spec(const Instance& inst, Time horizon) {
  std::ostringstream spec;
  spec << "max_retries=1,backoff_base=1,restart_overhead=0.2,events=(";
  spec << "cancel_job:1@" << 0.05 * horizon << ';';
  spec << "fail_machine:0@" << 0.15 * horizon << ';';
  spec << "recover_machine:0@" << 0.30 * horizon << ';';
  for (std::size_t m = 0; m < inst.cluster.machine_count(); ++m) {
    spec << "fail_machine:" << m << '@' << 0.65 * horizon << ';';
  }
  for (std::size_t m = 0; m < inst.cluster.machine_count(); ++m) {
    spec << "recover_machine:" << m << '@' << 0.80 * horizon << ';';
  }
  spec << "fail_machine:0@" << 1.50 * horizon;  // harmless tail event
  spec << ")";
  return spec.str();
}

fault::FaultRunReport run_scenario(const Instance& inst,
                                   const fault::FaultSpec& spec) {
  fault::FaultRunnerConfig config;
  config.spec = spec;
  fault::FaultRunner runner(inst.cluster, inst.jobs, inst.times, inst.times,
                            config);
  return runner.run();
}

bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.tasks.size() != b.tasks.size() || a.jobs.size() != b.jobs.size() ||
      a.makespan != b.makespan || a.weighted_jct != b.weighted_jct ||
      a.weighted_completion != b.weighted_completion) {
    return false;
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const sim::TaskRecord& x = a.tasks[i];
    const sim::TaskRecord& y = b.tasks[i];
    if (x.gpu != y.gpu || x.start != y.start || x.sync_end != y.sync_end ||
        x.compute_start != y.compute_start ||
        x.compute_end != y.compute_end || x.attempts != y.attempts) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const sim::JobRecord& x = a.jobs[i];
    const sim::JobRecord& y = b.jobs[i];
    if (x.completion != y.completion || x.outcome != y.outcome ||
        x.restarts != y.restarts) {
      return false;
    }
  }
  const sim::FaultStats& fa = a.faults;
  const sim::FaultStats& fb = b.faults;
  return fa.machine_failures == fb.machine_failures &&
         fa.gpu_failures == fb.gpu_failures &&
         fa.recoveries == fb.recoveries &&
         fa.cancellations == fb.cancellations &&
         fa.restarts == fb.restarts && fa.dead_letters == fb.dead_letters &&
         fa.replans == fb.replans && fa.tasks_killed == fb.tasks_killed &&
         fa.lost_compute == fb.lost_compute &&
         fa.recovery_latencies == fb.recovery_latencies;
}

[[nodiscard]] bool write_json(const std::string& path,
                              const fault::FaultRunReport& report,
                              bool deterministic, double wall_ms,
                              bool quick) {
  const sim::FaultStats& stats = report.faulted.faults;
  std::size_t completed = 0, cancelled = 0, dead = 0;
  for (const auto& job : report.faulted.jobs) {
    switch (job.outcome) {
      case sim::JobOutcome::Completed: ++completed; break;
      case sim::JobOutcome::Cancelled: ++cancelled; break;
      case sim::JobOutcome::DeadLettered: ++dead; break;
    }
  }
  double recovery_mean = 0.0;
  for (const Time latency : stats.recovery_latencies) {
    recovery_mean += latency;
  }
  if (!stats.recovery_latencies.empty()) {
    recovery_mean /= static_cast<double>(stats.recovery_latencies.size());
  }

  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_fault\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n";
  out << "  \"jobs\": " << report.faulted.jobs.size() << ",\n";
  out << "  \"jobs_completed\": " << completed << ",\n";
  out << "  \"jobs_cancelled\": " << cancelled << ",\n";
  out << "  \"jobs_dead\": " << dead << ",\n";
  out << "  \"machine_failures\": " << stats.machine_failures << ",\n";
  out << "  \"gpu_failures\": " << stats.gpu_failures << ",\n";
  out << "  \"recoveries\": " << stats.recoveries << ",\n";
  out << "  \"cancellations\": " << stats.cancellations << ",\n";
  out << "  \"restarts\": " << stats.restarts << ",\n";
  out << "  \"dead_letters\": " << stats.dead_letters << ",\n";
  out << "  \"tasks_killed\": " << stats.tasks_killed << ",\n";
  out << "  \"lost_compute_s\": " << stats.lost_compute << ",\n";
  out << "  \"replans_full\": " << report.replans_full << ",\n";
  out << "  \"replans_greedy\": " << report.replans_greedy << ",\n";
  out << "  \"recovery_latency_mean_s\": " << recovery_mean << ",\n";
  out << "  \"degradation_ratio\": " << report.degradation_ratio << ",\n";
  out << "  \"fragmentation\": " << report.fragmentation << ",\n";
  out << "  \"starvation\": " << report.starvation << ",\n";
  out << "  \"wall_ms\": " << wall_ms << "\n";
  out << "}\n";

  std::ofstream file(path);
  file << out.str();
  if (!file) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

/// Re-run the quick scenario with the tracer on and export the telemetry
/// next to the bench JSON, so the trace validator sees the fault spans
/// ("fault.replan") and instant events ("fault.event").
bool export_traced_run(const std::string& trace_path) {
  obs::Tracer::instance().set_thread_name("bench_fault");
  obs::Tracer::instance().enable();
  {
    const Instance inst = make_instance(/*quick=*/true);
    const fault::FaultRunReport probe = run_scenario(inst, fault::FaultSpec{});
    const fault::FaultRunReport traced = run_scenario(
        inst, fault::parse_fault_spec(
                  scenario_spec(inst, probe.fault_free.makespan)));
    static_cast<void>(traced);
  }
  obs::Tracer::instance().disable();

  bool ok = obs::write_chrome_trace_file(trace_path);
  const std::string base =
      trace_path.size() > 5 &&
              trace_path.rfind(".json") == trace_path.size() - 5
          ? trace_path.substr(0, trace_path.size() - 5)
          : trace_path;
  ok = obs::Registry::instance().write_json_file(base + "_metrics.json") && ok;
  if (ok) {
    std::cout << "wrote " << trace_path << " (+ _metrics.json)\n";
  } else {
    std::cerr << "error: cannot write trace outputs at " << trace_path << "\n";
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool trace = true;
  std::string json_path = "BENCH_fault.json";
  std::string trace_path = "BENCH_fault_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-trace") == 0) {
      trace = false;
    } else {
      std::cerr << "usage: bench_fault [--quick] [--json <path>] "
                   "[--trace-out <path>] [--no-trace]\n";
      return 2;
    }
  }

  std::cout << "=== fault injection: failure/recovery, cancellation, "
               "dead-letter ===\n";
  const Instance inst = make_instance(quick);

  // Fix the scenario timeline off the fault-free makespan, then run it.
  const fault::FaultRunReport probe = run_scenario(inst, fault::FaultSpec{});
  const std::string spec_text =
      scenario_spec(inst, probe.fault_free.makespan);
  const fault::FaultSpec spec = fault::parse_fault_spec(spec_text);
  std::cout << "scenario: " << spec_text << "\n";

  const auto start = std::chrono::steady_clock::now();
  const fault::FaultRunReport report = run_scenario(inst, spec);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  // Determinism: an immediate serial re-run and a pooled fan-out of four
  // replicas must all be bit-identical to the first run.
  bool deterministic =
      results_identical(report.faulted,
                        run_scenario(inst, spec).faulted);
  exp::Engine engine;
  const auto replicas = engine.map(4, [&](std::size_t) {
    return run_scenario(inst, spec).faulted;
  });
  for (const auto& replica : replicas) {
    deterministic = deterministic && results_identical(report.faulted, replica);
  }

  const sim::FaultStats& stats = report.faulted.faults;
  common::Table table({"metric", "value"});
  table.row().cell("machine failures").cell(stats.machine_failures);
  table.row().cell("recoveries").cell(stats.recoveries);
  table.row().cell("cancellations").cell(stats.cancellations);
  table.row().cell("restarts").cell(stats.restarts);
  table.row().cell("dead-letters").cell(stats.dead_letters);
  table.row().cell("replans (planner/greedy)").cell(
      std::to_string(report.replans_full) + "/" +
      std::to_string(report.replans_greedy));
  table.row().cell("degradation ratio").cell(report.degradation_ratio, 3);
  table.row().cell("fragmentation").cell(report.fragmentation, 3);
  table.row().cell("starvation").cell(report.starvation, 3);
  table.row().cell("bit-identical x6").cell(deterministic ? "yes" : "NO");
  table.print(std::cout);

  const bool wrote = write_json(json_path, report, deterministic, wall_ms,
                                quick);
  bool traced = true;
  if (trace) traced = export_traced_run(trace_path);

  const bool coverage = stats.machine_failures >= 1 &&
                        stats.recoveries >= 1 && stats.cancellations >= 1 &&
                        stats.dead_letters >= 1;
  if (!coverage) {
    std::cerr << "error: scenario lost coverage (failure/recovery/"
                 "cancellation/dead-letter)\n";
  }
  return deterministic && coverage && wrote && traced ? 0 : 1;
}
