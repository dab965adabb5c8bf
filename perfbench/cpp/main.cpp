// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <path>]
//
// Runs one workload through the real pipeline, checks its outputs, and
// prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with --trace 1 they are the per-layer metrics the workload
// recorded in a traced run (run.py fills the layers it bypasses with 0).
// A failed output check exits 1 without printing a result.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload "
               "<testbed_lpcuts|sharded_50k|faults_diverse|serve_bursty> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n";
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = v;
  return true;
}

/// Print `metrics` as the JSON result line.
void print_result(const RunResult& result,
                  const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    out << sep << '"' << name << "\": {\"value\": " << metric.value
        << ", \"unit\": \"" << metric.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string spans_path;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed" && parse_u64(value, n)) {
      options.seed = n;
      have_seed = true;
    } else if (key == "--seconds" && parse_u64(value, n) && n > 0) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace" && parse_u64(value, n) && n <= 1) {
      options.trace = n == 1;
      have_trace = true;
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }

  RunResult (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "testbed_lpcuts") run = run_testbed_lpcuts;
  if (options.workload == "sharded_50k") run = run_sharded_50k;
  if (options.workload == "faults_diverse") run = run_faults_diverse;
  if (options.workload == "serve_bursty") run = run_serve_bursty;
  if (run == nullptr) return usage();

  const double ref_start_ms = host_reference_ms();
  Tracer tracer(options.trace);
  RunResult result;
  try {
    result = run(options, tracer);
  } catch (const hare::common::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const double top_level_ms = tracer.top_level_ms();
  const double traced_wall_ms = tracer.wall_ms();
  const double ref_end_ms = host_reference_ms();

  for (const std::string& failure : result.failures) {
    std::cerr << "check failed: " << failure << "\n";
  }
  if (!result.correct) return 1;

  std::cerr << std::setprecision(6) << options.workload << " seed "
            << options.seed << ": " << result.plan_samples
            << " planning calls, host reference " << ref_start_ms << " / "
            << ref_end_ms << " ms\n";
  for (const std::string& note : result.notes) std::cerr << "  " << note << "\n";
  for (const auto& [name, metric] : result.end_to_end) {
    std::cerr << "  " << name << " = " << metric.value << " " << metric.unit
              << "\n";
  }

  if (!options.trace) {
    print_result(result, result.end_to_end);
    return 0;
  }

  result.layer("host.ref_ms", 0.5 * (ref_start_ms + ref_end_ms), "ms");
  result.layer("trace.jobs_per_s", result.end_to_end["jobs_per_s"].value,
               "1/s");
  result.layer("trace.top_coverage",
               traced_wall_ms > 0.0 ? top_level_ms / traced_wall_ms : 0.0,
               "ratio");
  result.layer("trace.plan_samples",
               static_cast<double>(result.plan_samples), "count");
  if (!spans_path.empty() && !tracer.write_json(spans_path)) {
    std::cerr << "error: cannot write " << spans_path << "\n";
    return 1;
  }
  print_result(result, result.per_layer);
  return 0;
}
