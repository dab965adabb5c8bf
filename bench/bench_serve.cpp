// Serving-loop bench + regression baseline generator.
//
// Exercises the hare::serve daemon loop the way a deployment would: a
// pull-based TraceStream front-end pushes a bursty synthetic arrival
// stream through the event loop, the admission batcher coalesces arrivals
// per tick, and each flush replans incrementally. Three numbers are the
// contract:
//
//   * sustained admission throughput (arrivals/second through the full
//     admit -> profile -> batch -> replan path) on large batches (flat
//     path) — the 10k/s floor from the serving design note;
//   * the same throughput on a stream whose every batch takes the LP path
//     (each batch relaxed as its own small block, in closed form), with
//     its own floor;
//   * p99 replan latency, the nearest-rank bucket bound of the
//     `serve.replan_latency` histogram the service records per flush.
//
// Determinism is the fourth, never-waived contract: the served schedule
// for a fixed event stream must be bit-identical across a serial re-run,
// four replicas fanned across the hare::exp pool, and the sharded serve
// path serial vs pooled. (That each block's closed-form vertex is the one
// it takes inside the accumulated LP of the stream's blocks is checked by
// Serve.BlockSolvesMatchAccumulatedProgram in tests/test_serve.cpp.)
//
// Emits machine-readable BENCH_serve.json, gated by
// scripts/check_bench_regression.py.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_service.hpp"
#include "workload/arrival_spec.hpp"

namespace {

using namespace hare;

bool schedules_identical(const sim::Schedule& a, const sim::Schedule& b) {
  return a.sequences == b.sequences &&
         a.predicted_start == b.predicted_start &&
         a.predicted_objective == b.predicted_objective;
}

/// Serve one full stream from scratch (fresh stream, fresh service).
serve::ServeReport serve_stream(const cluster::Cluster& cluster,
                                const std::string& spec,
                                const serve::ServeConfig& config) {
  workload::TraceStream stream(4200, workload::parse_arrival_spec(spec));
  serve::ServeService service(cluster, workload::PerfModel{}, config);
  return service.run(stream);
}

struct ServeNumbers {
  std::size_t arrivals = 0;
  std::size_t batches = 0;
  std::size_t max_batch_jobs = 0;
  double throughput = 0.0;
  std::size_t lp_arrivals = 0;
  std::size_t lp_batches = 0;
  std::size_t lp_max_batch_jobs = 0;
  double lp_throughput = 0.0;
  double p99_us = 0.0;
  bool sharded_identical = false;
  bool deterministic = false;
};

[[nodiscard]] bool write_json(const std::string& path, const ServeNumbers& n,
                              double wall_ms, bool quick) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_serve\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"deterministic\": " << (n.deterministic ? "true" : "false")
      << ",\n";
  out << "  \"arrivals\": " << n.arrivals << ",\n";
  out << "  \"batches\": " << n.batches << ",\n";
  out << "  \"max_batch_jobs\": " << n.max_batch_jobs << ",\n";
  out << "  \"throughput_arrivals_per_s\": " << n.throughput << ",\n";
  out << "  \"lp_arrivals\": " << n.lp_arrivals << ",\n";
  out << "  \"lp_batches\": " << n.lp_batches << ",\n";
  out << "  \"lp_max_batch_jobs\": " << n.lp_max_batch_jobs << ",\n";
  out << "  \"lp_throughput_arrivals_per_s\": " << n.lp_throughput << ",\n";
  out << "  \"replan_p99_us\": " << n.p99_us << ",\n";
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

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_serve [--quick] [--json <path>]\n";
      return 2;
    }
  }

  std::cout << "=== serve: streaming admission, per-batch block replans ===\n";
  obs::Registry::instance().reset();
  const auto bench_start = std::chrono::steady_clock::now();
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  ServeNumbers n;

  const auto timed_stream = [&](const std::string& spec,
                                const serve::ServeConfig& config,
                                double& throughput) {
    const auto start = std::chrono::steady_clock::now();
    serve::ServeReport report = serve_stream(cluster, spec, config);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    throughput = static_cast<double>(report.arrivals) / seconds;
    return report;
  };

  // --- Sustained throughput: a dense stream, batched per tick, through
  // the flat replan path (batches larger than the LP cap). -------------
  {
    const std::string spec =
        std::string("jobs=") + (quick ? "1200" : "4000") +
        ",rate=50,burst=4,on_period=10,off_period=30,"
        "rounds_min=0.05,rounds_max=0.15";
    serve::ServeConfig config;
    config.tick = 2.0;
    const serve::ServeReport report = timed_stream(spec, config, n.throughput);
    n.arrivals = report.arrivals;
    n.batches = report.batches;
    n.max_batch_jobs = report.max_batch_jobs;
  }

  // --- LP-path throughput: small bursty batches, every one within the LP
  // cap, so each flush relaxes its own block. ---------------------------
  {
    const std::string spec =
        std::string("jobs=") + (quick ? "600" : "2000") +
        ",rate=2,burst=3,on_period=10,off_period=30,"
        "rounds_min=0.05,rounds_max=0.15";
    serve::ServeConfig config;
    config.tick = 1.0;
    const serve::ServeReport report =
        timed_stream(spec, config, n.lp_throughput);
    n.lp_arrivals = report.arrivals;
    n.lp_batches = report.lp_batches;
    n.lp_max_batch_jobs = report.max_batch_jobs;
    if (report.lp_batches != report.batches) {
      std::cerr << "error: " << report.batches - report.lp_batches
                << " batches of the LP stream left the LP path\n";
      n.lp_batches = 0;
    }
  }

  // --- Determinism on a moderate LP stream: a serial re-run and four pool
  // replicas must reproduce the first schedule bit for bit. -------------
  const std::string lp_spec =
      std::string("jobs=") + (quick ? "48" : "96") +
      ",rate=2,rounds_min=0.08,rounds_max=0.2";
  serve::ServeConfig lp_config;
  lp_config.tick = 4.0;
  {
    const sim::Schedule first =
        serve_stream(cluster, lp_spec, lp_config).schedule;
    bool identical = schedules_identical(
        first, serve_stream(cluster, lp_spec, lp_config).schedule);
    exp::Engine engine;
    const auto replicas = engine.map(4, [&](std::size_t) {
      return serve_stream(cluster, lp_spec, lp_config).schedule;
    });
    for (const auto& replica : replicas) {
      identical = identical && schedules_identical(first, replica);
    }
    n.deterministic = identical;
  }

  // --- Sharded serve path: large batches fanned across shard workers
  // must merge to the serial sharded plan bit for bit. ------------------
  {
    const cluster::Cluster big =
        cluster::make_simulation_cluster(32, 25.0, 8, 2);
    const std::string spec = "jobs=48,rate=4,rounds_min=0.05,rounds_max=0.15";
    const auto sharded = [&](bool serial) {
      serve::ServeConfig config;
      config.tick = 4.0;
      config.lp_max_batch_jobs = 0;
      config.shard_min_batch_jobs = 2;
      config.shard.serial = serial;
      config.shard.workers = serial ? 0 : 3;
      return serve_stream(big, spec, config).schedule;
    };
    n.sharded_identical = schedules_identical(sharded(true), sharded(false));
    n.deterministic = n.deterministic && n.sharded_identical;
  }

  n.p99_us = obs::histogram("serve.replan_latency", obs::latency_bounds_us())
                 .quantile_upper_bound(99, 100);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - bench_start)
                             .count();

  common::Table table({"metric", "value"});
  table.row().cell("arrivals served (flat stream)").cell(n.arrivals);
  table.row().cell("batches (max jobs)").cell(
      std::to_string(n.batches) + " (" + std::to_string(n.max_batch_jobs) +
      ")");
  table.row().cell("throughput (arrivals/s)").cell(n.throughput, 0);
  table.row().cell("arrivals served (LP stream)").cell(n.lp_arrivals);
  table.row().cell("LP batches (max jobs)").cell(
      std::to_string(n.lp_batches) + " (" +
      std::to_string(n.lp_max_batch_jobs) + ")");
  table.row().cell("LP throughput (arrivals/s)").cell(n.lp_throughput, 0);
  table.row().cell("replan p99 (us, bucket bound)").cell(n.p99_us, 1);
  table.row().cell("sharded serial == pooled").cell(
      n.sharded_identical ? "yes" : "NO");
  table.row().cell("deterministic").cell(n.deterministic ? "yes" : "NO");
  table.print(std::cout);

  const bool wrote = write_json(json_path, n, wall_ms, quick);
  const bool lp_path_ok = n.lp_batches > 0;
  const bool throughput_ok = quick || n.throughput >= 10000.0;
  if (!throughput_ok) {
    std::cerr << "error: sustained throughput " << n.throughput
              << " arrivals/s below the 10k/s floor\n";
  }
  return n.deterministic && lp_path_ok && throughput_ok && wrote ? 0 : 1;
}
