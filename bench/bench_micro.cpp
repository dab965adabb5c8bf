// Micro-benchmarks (google-benchmark): scheduling algorithm and substrate
// throughput — Algorithm 1 runtime vs task count, simulator event
// throughput, and the optimization kernels (Hungarian, simplex, Queyranne
// separation).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/hare.hpp"
#include "opt/hungarian.hpp"
#include "opt/queyranne.hpp"
#include "opt/revised_simplex.hpp"

namespace {

using namespace hare;

struct MicroInstance {
  cluster::Cluster cluster;
  workload::JobSet jobs;
  profiler::TimeTable times;
};

MicroInstance make_instance(std::size_t job_count, std::size_t gpu_count) {
  MicroInstance inst;
  inst.cluster = cluster::make_simulation_cluster(gpu_count);
  workload::TraceConfig config;
  config.job_count = job_count;
  config.rounds_scale_min = 0.15;
  config.rounds_scale_max = 0.4;
  inst.jobs = workload::TraceGenerator(1).generate(config);
  profiler::Profiler profiler(workload::PerfModel{},
                              profiler::ProfilerConfig{}, 1);
  inst.times = profiler.exact(inst.jobs, inst.cluster);
  return inst;
}

void BM_HareSchedule(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)));
  core::HareScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.schedule({inst.cluster, inst.jobs, inst.times}));
  }
  state.counters["tasks"] = static_cast<double>(inst.jobs.task_count());
}
BENCHMARK(BM_HareSchedule)
    ->Args({50, 40})
    ->Args({100, 80})
    ->Args({200, 160})
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorRun(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)));
  core::HareScheduler scheduler;
  const sim::Schedule schedule =
      scheduler.schedule({inst.cluster, inst.jobs, inst.times});
  const sim::Simulator simulator(inst.cluster, inst.jobs, inst.times);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(schedule));
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(inst.jobs.task_count()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SimulatorRun)
    ->Args({50, 40})
    ->Args({200, 160})
    ->Unit(benchmark::kMillisecond);

void BM_BaselineSchedulers(benchmark::State& state) {
  const auto inst = make_instance(100, 80);
  const auto schedulers = core::make_standard_schedulers();
  auto& scheduler = *schedulers[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.schedule({inst.cluster, inst.jobs, inst.times}));
  }
  state.SetLabel(std::string(scheduler.name()));
}
BENCHMARK(BM_BaselineSchedulers)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(3);
  std::vector<double> cost(n * n);
  for (auto& c : cost) c = rng.uniform(0.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_assignment(cost, n, n));
  }
}
BENCHMARK(BM_Hungarian)->Arg(32)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_SimplexLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    opt::RevisedSimplex lp;
    std::vector<std::size_t> vars;
    for (std::size_t i = 0; i < n; ++i) {
      vars.push_back(lp.add_variable(rng.uniform(-1.0, 0.0)));
    }
    for (const std::size_t var : vars) {
      const opt::RevisedSimplex::Term cap[] = {{var, 1.0}};
      lp.add_row(cap, opt::Relation::LessEqual, rng.uniform(1.0, 5.0));
    }
    std::vector<opt::RevisedSimplex::Term> terms;
    for (std::size_t c = 0; c < n; ++c) {
      terms.clear();
      for (std::size_t i = 0; i < n; ++i) {
        terms.emplace_back(vars[i], rng.uniform(0.0, 1.0));
      }
      lp.add_row(terms, opt::Relation::LessEqual, rng.uniform(5.0, 20.0));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(lp.solve());
  }
}
BENCHMARK(BM_SimplexLp)->Arg(10)->Arg(30)->Unit(benchmark::kMicrosecond);

void BM_QueyranneSeparation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  std::vector<double> t(n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = rng.uniform(0.5, 5.0);
    x[i] = rng.uniform(0.0, 10.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::separate_queyranne_cut(t, x));
  }
}
BENCHMARK(BM_QueyranneSeparation)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_SwitchCost(benchmark::State& state) {
  switching::SwitchModelConfig config;
  config.policy = static_cast<switching::SwitchPolicy>(state.range(0));
  const switching::SwitchCostModel model(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.switch_cost(JobId(1), workload::ModelType::BertBase,
                          cluster::GpuType::V100, JobId(0), nullptr));
  }
  state.SetLabel(std::string(
      switching::switch_policy_name(config.policy)));
}
BENCHMARK(BM_SwitchCost)->DenseRange(0, 2);

}  // namespace

BENCHMARK_MAIN();
