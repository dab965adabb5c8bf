// hare::exp sweep engine: parallel fan-out must be bit-identical to the
// serial path, the calendar event queue must pop in exactly the heap
// oracle's order (ties included), worker exceptions must surface loudly,
// and scratch reuse must never change a simulation result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/hare.hpp"
#include "exp/engine.hpp"
#include "heap_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace hare {
namespace {

exp::SweepSpec small_grid() {
  exp::SweepSpec spec;
  for (const std::size_t job_count : {8, 12}) {
    workload::TraceConfig config;
    config.job_count = job_count;
    auto jobs = workload::TraceGenerator(900 + job_count).generate(config);
    spec.scenarios.push_back(exp::ScenarioSpec{
        std::to_string(job_count) + " jobs",
        cluster::make_simulation_cluster(8), std::move(jobs)});
  }
  spec.seeds = {3, 17};
  return spec;
}

void expect_cells_identical(const exp::CellResult& a,
                            const exp::CellResult& b) {
  ASSERT_EQ(a.result.scheduler, b.result.scheduler);
  EXPECT_EQ(a.seed, b.seed);
  // Exact double equality on purpose: the engines must produce the same
  // bits, not merely close numbers.
  EXPECT_EQ(a.result.weighted_jct, b.result.weighted_jct);
  EXPECT_EQ(a.result.weighted_completion, b.result.weighted_completion);
  EXPECT_EQ(a.result.makespan, b.result.makespan);
  EXPECT_EQ(a.result.mean_utilization, b.result.mean_utilization);
  ASSERT_EQ(a.result.sim.tasks.size(), b.result.sim.tasks.size());
  for (std::size_t i = 0; i < a.result.sim.tasks.size(); ++i) {
    const sim::TaskRecord& ta = a.result.sim.tasks[i];
    const sim::TaskRecord& tb = b.result.sim.tasks[i];
    EXPECT_EQ(ta.gpu.value(), tb.gpu.value());
    EXPECT_EQ(ta.start, tb.start);
    EXPECT_EQ(ta.switch_time, tb.switch_time);
    EXPECT_EQ(ta.compute_end, tb.compute_end);
    EXPECT_EQ(ta.sync_end, tb.sync_end);
    EXPECT_EQ(ta.model_resident, tb.model_resident);
  }
}

TEST(ExpSweep, ParallelBitIdenticalToSerial) {
  const exp::SweepSpec spec = small_grid();

  exp::Engine::Options serial_options;
  serial_options.serial = true;
  exp::Engine serial_engine(serial_options);
  const exp::SweepResult serial = serial_engine.run(spec);

  exp::Engine::Options parallel_options;
  parallel_options.workers = 4;
  exp::Engine parallel_engine(parallel_options);
  const exp::SweepResult parallel = parallel_engine.run(spec);

  EXPECT_EQ(serial.workers, 1u);
  ASSERT_EQ(serial.cells.size(), spec.cell_count());
  ASSERT_EQ(parallel.cells.size(), spec.cell_count());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    expect_cells_identical(serial.cells[i], parallel.cells[i]);
  }
}

TEST(ExpSweep, MatchesLegacySerialComparisonLoop) {
  // The engine's cells must reproduce the pre-engine serial bench loop
  // (one HareSystem per scheme, seed ^ 0x5eed noise stream) bit for bit.
  const auto cluster = cluster::make_simulation_cluster(8);
  workload::TraceConfig config;
  config.job_count = 10;
  const auto jobs = workload::TraceGenerator(1234).generate(config);

  exp::ScenarioOptions options;
  options.seed = 77;
  options.runtime_noise_cv = 0.05;  // exercise the noise path too

  std::vector<exp::SchemeResult> legacy;
  for (const auto& scheduler : core::make_standard_schedulers(options.hare)) {
    core::HareSystem::Options sys_options;
    sys_options.seed = options.seed;
    sys_options.perf = options.perf;
    sys_options.sim.runtime_noise_cv = options.runtime_noise_cv;
    sys_options.sim.noise_seed = options.seed ^ 0x5eedull;
    const bool is_hare = scheduler->name() == std::string_view("Hare");
    sys_options.sim.switching.policy =
        is_hare ? switching::SwitchPolicy::Hare
                : switching::SwitchPolicy::Default;
    sys_options.sim.use_memory_manager = is_hare;
    core::HareSystem system(cluster, sys_options);
    system.submit_all(jobs);
    const core::RunReport report = system.run(*scheduler);
    exp::SchemeResult entry;
    entry.scheduler = report.scheduler;
    entry.weighted_jct = report.result.weighted_jct;
    entry.makespan = report.result.makespan;
    legacy.push_back(std::move(entry));
  }

  exp::SweepSpec spec;
  spec.scenarios.push_back(exp::ScenarioSpec{"legacy", cluster, jobs, options});
  exp::Engine engine(exp::Engine::Options{4, false});
  const auto schemes = engine.run(spec).comparison(0);

  ASSERT_EQ(schemes.size(), legacy.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    EXPECT_EQ(schemes[i].scheduler, legacy[i].scheduler);
    EXPECT_EQ(schemes[i].weighted_jct, legacy[i].weighted_jct);
    EXPECT_EQ(schemes[i].makespan, legacy[i].makespan);
  }
}

TEST(ExpEngine, ThrowingCellFailsLoudly) {
  exp::Engine engine(exp::Engine::Options{4, false});
  EXPECT_THROW(
      engine.map(16,
                 [](std::size_t i) -> int {
                   if (i == 11) throw std::runtime_error("cell 11 exploded");
                   return static_cast<int>(i);
                 }),
      std::runtime_error);

  // The engine (and its pool) must stay usable after a failed sweep.
  const auto ok = engine.map(8, [](std::size_t i) { return i * i; });
  ASSERT_EQ(ok.size(), 8u);
  EXPECT_EQ(ok[7], 49u);
}

TEST(ExpEngine, OneWorkerRunsInlineOnCallingThread) {
  // With one effective worker, dispatching through the pool only adds task
  // allocation and queue wake-ups (measured ~0.78x of the serial loop), so
  // map() must run inline on the calling thread — and still match the
  // multi-worker engine bit for bit.
  exp::Engine one(exp::Engine::Options{1, false});
  EXPECT_EQ(one.workers(), 1u);
  const auto caller = std::this_thread::get_id();
  const auto inline_out = one.map(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 7 * i;
  });

  exp::Engine pooled(exp::Engine::Options{4, false});
  const auto pooled_out = pooled.map(16, [](std::size_t i) { return 7 * i; });
  EXPECT_EQ(inline_out, pooled_out);

  // Whole sweeps agree too, and the 1-worker run reports workers == 1 so
  // regression gates can recognize the inline path.
  const exp::SweepSpec spec = small_grid();
  const exp::SweepResult serial_result =
      exp::Engine(exp::Engine::Options{1, true}).run(spec);
  const exp::SweepResult one_result =
      exp::Engine(exp::Engine::Options{1, false}).run(spec);
  EXPECT_EQ(one_result.workers, 1u);
  ASSERT_EQ(one_result.cells.size(), serial_result.cells.size());
  for (std::size_t i = 0; i < one_result.cells.size(); ++i) {
    expect_cells_identical(serial_result.cells[i], one_result.cells[i]);
  }
}

TEST(ExpEngine, MapMergesInIndexOrder) {
  exp::Engine engine(exp::Engine::Options{4, false});
  const auto out =
      engine.map(100, [](std::size_t i) { return 3 * i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

// --- event queue vs. the heap oracle --------------------------------------

using IntQueue = sim::EventQueue<int>;
using HeapQueue = testing::HeapEventQueue<int>;

template <typename Queue>
std::vector<std::pair<Time, int>> drain(Queue& queue) {
  std::vector<std::pair<Time, int>> out;
  Time last = -kTimeInfinity;
  std::uint64_t last_sequence = 0;
  bool first = true;
  while (!queue.empty()) {
    const auto event = queue.pop();
    // The contract: strict (time, sequence) order.
    if (!first) {
      EXPECT_TRUE(event.time > last ||
                  (event.time == last && event.sequence > last_sequence))
          << "pop order violated at t=" << event.time;
    }
    first = false;
    last = event.time;
    last_sequence = event.sequence;
    out.emplace_back(event.time, event.payload);
  }
  return out;
}

TEST(EventQueueBackends, IdenticalOrderUnderEqualTimestamps) {
  IntQueue calendar;
  HeapQueue heap;
  // Heavy ties: insertion order must break them identically in both.
  const double times[] = {5.0, 1.0, 1.0, 1.0, 3.0, 5.0, 0.0, 0.0, 3.0, 1.0};
  int payload = 0;
  for (const double t : times) {
    calendar.push(t, payload);
    heap.push(t, payload);
    ++payload;
  }
  EXPECT_EQ(drain(calendar), drain(heap));
}

TEST(EventQueueBackends, IdenticalOrderUnderInterleavedPushPop) {
  IntQueue calendar;
  HeapQueue heap;
  common::Rng rng(99);
  int payload = 0;
  std::vector<std::pair<Time, int>> calendar_out;
  std::vector<std::pair<Time, int>> heap_out;
  Time now = 0.0;
  // Simulator-shaped traffic: pop the frontier, schedule a few near-future
  // events per pop, occasionally a far-future one (overflow + rebuild).
  for (int round = 0; round < 400; ++round) {
    const int pushes = 1 + static_cast<int>(rng.uniform() * 3.0);
    for (int p = 0; p < pushes; ++p) {
      const double span = rng.uniform() < 0.1 ? 1e4 : 10.0;
      const Time t = now + rng.uniform() * span;
      calendar.push(t, payload);
      heap.push(t, payload);
      ++payload;
    }
    ASSERT_FALSE(calendar.empty());
    const auto a = calendar.pop();
    const auto b = heap.pop();
    now = a.time;
    calendar_out.emplace_back(a.time, a.payload);
    heap_out.emplace_back(b.time, b.payload);
  }
  EXPECT_EQ(calendar_out, heap_out);
  EXPECT_EQ(drain(calendar), drain(heap));
}

TEST(EventQueueBackends, MatchesHeapOracleOnSimulatorShapedCorpus) {
  // A seeded corpus shaped like a simulator run: fault events pushed
  // first at scattered times, one TryStart per GPU at t = 0, then per pop
  // a few follow-ups, some at exactly the popped time (equal-time bursts)
  // and some far in the future (overflow). Each seed runs twice on the
  // same queues, cleared in between, as a reused SimScratch would.
  IntQueue calendar;
  HeapQueue heap;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    for (int reuse = 0; reuse < 2; ++reuse) {
      calendar.clear();
      heap.clear();
      common::Rng rng(seed * 31 + static_cast<std::uint64_t>(reuse));
      int payload = 0;
      const auto push = [&](Time t) {
        calendar.push(t, payload);
        heap.push(t, payload);
        ++payload;
      };
      const int faults = static_cast<int>(rng.uniform() * 12.0);
      for (int f = 0; f < faults; ++f) push(rng.uniform() * 500.0);
      const int gpus = 8 + static_cast<int>(rng.uniform() * 56.0);
      for (int g = 0; g < gpus; ++g) push(0.0);

      std::size_t pops = 0;
      while (!calendar.empty() && pops < 3000) {
        ASSERT_EQ(calendar.size(), heap.size());
        const auto a = calendar.pop();
        const auto b = heap.pop();
        ASSERT_EQ(a.time, b.time) << "seed " << seed << " pop " << pops;
        ASSERT_EQ(a.sequence, b.sequence) << "seed " << seed << " pop " << pops;
        ASSERT_EQ(a.payload, b.payload) << "seed " << seed << " pop " << pops;
        ++pops;
        if (pops > 2000) continue;  // let the tail drain
        const int follow_ups = static_cast<int>(rng.uniform() * 3.0);
        for (int k = 0; k < follow_ups; ++k) {
          const double draw = rng.uniform();
          if (draw < 0.25) {
            push(a.time);  // same-instant wake-up
          } else if (draw < 0.3) {
            push(a.time + 1e6 * (1.0 + rng.uniform()));  // far future
          } else {
            push(a.time + rng.uniform() * 20.0);
          }
        }
      }
      EXPECT_EQ(drain(calendar), drain(heap)) << "seed " << seed;
    }
  }
}

TEST(EventQueueBackends, ClearRetainsNothing) {
  IntQueue queue;
  for (int i = 0; i < 50; ++i) queue.push(i * 0.5, i);
  (void)queue.pop();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  queue.push(2.0, 1);
  queue.push(1.0, 2);
  const auto first = queue.pop();
  EXPECT_EQ(first.payload, 2);
  EXPECT_EQ(first.sequence, 1u);  // numbering restarted
}

TEST(SimScratch, ReuseNeverChangesAResult) {
  const auto cluster = cluster::make_simulation_cluster(8);
  workload::TraceConfig config;
  config.job_count = 10;
  const auto jobs = workload::TraceGenerator(8).generate(config);

  core::HareSystem system(cluster, {});
  system.submit_all(jobs);
  core::HareScheduler scheduler;

  sim::SimScratch scratch;
  const auto first = system.run(scheduler, scratch);
  const auto second = system.run(scheduler, scratch);  // reused buffers
  const auto fresh = system.run(scheduler);            // fresh scratch
  EXPECT_EQ(first.result.weighted_jct, second.result.weighted_jct);
  EXPECT_EQ(first.result.weighted_jct, fresh.result.weighted_jct);
  EXPECT_EQ(first.result.makespan, second.result.makespan);
  ASSERT_EQ(first.result.tasks.size(), second.result.tasks.size());
  for (std::size_t i = 0; i < first.result.tasks.size(); ++i) {
    EXPECT_EQ(first.result.tasks[i].compute_end,
              second.result.tasks[i].compute_end);
  }
}

// --- thread pool ---------------------------------------------------------

TEST(ThreadPoolErrors, SubmitExceptionSurfacesAtRethrowPending) {
  common::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("worker task failed"); });
  pool.wait_idle();
  EXPECT_TRUE(pool.has_pending_exception());
  EXPECT_THROW(pool.rethrow_pending(), std::runtime_error);
  // Collected: a second rethrow is a no-op.
  EXPECT_FALSE(pool.has_pending_exception());
  pool.rethrow_pending();
}

TEST(ThreadPoolErrors, ParallelForEachRethrowsFirstError) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_each(
                   64,
                   [](std::size_t i) {
                     if (i % 13 == 7) throw std::runtime_error("shard failed");
                   }),
               std::runtime_error);
  // Pool stays usable.
  std::atomic<int> hits{0};
  pool.parallel_for_each(16, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPoolConfig, HareJobsEnvOverridesWorkerCount) {
  ::setenv("HARE_JOBS", "3", 1);
  EXPECT_EQ(common::default_worker_count(), 3u);
  common::ThreadPool pool;
  EXPECT_EQ(pool.size(), 3u);

  ::setenv("HARE_JOBS", "not-a-number", 1);
  EXPECT_GE(common::default_worker_count(), 1u);  // falls back to hardware

  ::setenv("HARE_JOBS", "0", 1);
  EXPECT_GE(common::default_worker_count(), 1u);  // zero is ignored

  ::unsetenv("HARE_JOBS");
}

TEST(ExpEngine, SerialEnvForcesSerialPath) {
  ::setenv("HARE_EXP_SERIAL", "1", 1);
  exp::Engine engine;
  EXPECT_TRUE(engine.serial());
  EXPECT_EQ(engine.workers(), 1u);
  ::unsetenv("HARE_EXP_SERIAL");
  exp::Engine parallel_engine;
  EXPECT_FALSE(parallel_engine.serial());
}

}  // namespace
}  // namespace hare
