#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "fault/fault_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace hare::sim {

namespace detail {

constexpr double kTimeEps = 1e-9;

enum class EventKind : std::uint8_t { TryStart, ComputeDone, SyncDone, Fault };

struct EventPayload {
  EventKind kind = EventKind::TryStart;
  GpuId gpu;
  TaskId task;
  /// Staleness guard / dispatch tag: ComputeDone carries the GPU's kill
  /// epoch at push, SyncDone the job's plan epoch at push (mismatched
  /// events are dropped — the hardware died or the job was replanned
  /// while they were in flight); Fault carries the plan event index.
  std::uint32_t epoch = 0;
};

struct GpuState {
  std::size_t next_index = 0;  ///< cursor into the GPU's sequence
  bool busy = false;
  bool waiting = false;  ///< registered on a round barrier
  bool alive = true;
  /// Bumped whenever the running attempt is killed (GPU death or job
  /// displacement); in-flight ComputeDones from before the bump no-op.
  std::uint32_t kill_epoch = 0;
  double slow_factor = 1.0;  ///< > 1 inside a straggler window
  TaskId current_task;
  std::optional<JobId> previous_job;
  std::optional<switching::SpeculativeMemoryManager> memory;
};

struct RoundState {
  int remaining = 0;
  Time barrier = 0.0;
  bool done = false;
  std::vector<GpuId> waiters;
};

struct JobState {
  enum class Phase : std::uint8_t { Active, Finished, Cancelled, Dead };

  std::vector<RoundState> rounds;
  Phase phase = Phase::Active;
  /// Bumped whenever the job's placements are invalidated; queued sequence
  /// entries and in-flight SyncDones from older epochs are skipped.
  std::uint32_t plan_epoch = 0;
  RoundIndex checkpoint = 0;  ///< first incomplete round (restart point)
  Time release = 0.0;         ///< backoff gate after a restart
  Time failed_at = -1.0;      ///< last displacement time; -1 = none pending
  bool restart_started = false;  ///< a post-restart attempt began executing
};

/// One slot of a GPU's (mutable) task queue: the scheduled task plus the
/// owning job's plan epoch at append time. Entries whose epoch no longer
/// matches are dead — skipped by the cursor, never executed.
struct SeqEntry {
  TaskId task;
  std::uint32_t epoch = 0;
};

/// Everything a run touches per event, owned by SimScratch so repeated
/// runs reuse the buffers. The per-job info and the switch-cost table are
/// the memoized lookups: built in one pass at run start, read per event.
struct SimScratchImpl {
  struct JobInfo {
    workload::ModelType model{};
    Bytes footprint = 0;    ///< task_memory_footprint at the job's batch
    Bytes state_bytes = 0;  ///< model_state_bytes
  };
  struct SyncRef {
    TaskId task;
    std::uint32_t epoch = 0;
  };

  std::vector<double> tc_noise;
  std::vector<double> ts_noise;
  std::vector<GpuState> gpus;
  std::vector<JobState> job_states;
  std::vector<JobInfo> job_info;
  /// Per job: the GPUs that started one of its tasks this run, ascending
  /// and unique — the only GPUs that can run it or keep its state.
  std::vector<std::vector<GpuId>> job_gpus;
  std::vector<std::vector<SeqEntry>> seq;
  EventQueue<EventPayload> events;
  std::unordered_map<NetworkModel::TransferId, SyncRef> inflight_syncs;
  switching::SwitchCostTable switch_table;
};

}  // namespace detail

SimScratch::SimScratch() : impl_(std::make_unique<detail::SimScratchImpl>()) {}
SimScratch::~SimScratch() = default;
SimScratch::SimScratch(SimScratch&&) noexcept = default;
SimScratch& SimScratch::operator=(SimScratch&&) noexcept = default;

double SimResult::busy_fraction(GpuId gpu, Time lo, Time hi) const {
  HARE_CHECK_MSG(!busy_intervals.empty(),
                 "busy_fraction requires record_timeline");
  HARE_CHECK_MSG(hi > lo, "empty window");
  const auto& intervals =
      busy_intervals[static_cast<std::size_t>(gpu.value())];
  Time busy = 0.0;
  for (const auto& [start, end] : intervals) {
    busy += std::max(0.0, std::min(end, hi) - std::max(start, lo));
  }
  return busy / (hi - lo);
}

Simulator::Simulator(const cluster::Cluster& cluster,
                     const workload::JobSet& jobs,
                     const profiler::TimeTable& actual, SimConfig config)
    : cluster_(cluster), jobs_(jobs), actual_(actual), config_(config) {
  HARE_CHECK_MSG(actual.job_count() == jobs.job_count(),
                 "time table covers " << actual.job_count() << " jobs, set has "
                                      << jobs.job_count());
  HARE_CHECK_MSG(actual.gpu_count() == cluster.gpu_count(),
                 "time table covers " << actual.gpu_count()
                                      << " GPUs, cluster has "
                                      << cluster.gpu_count());
}

SimResult Simulator::run(const Schedule& schedule) const {
  SimScratch scratch;
  return run(schedule, scratch);
}

SimResult Simulator::run(const Schedule& schedule, SimScratch& state) const {
  using detail::EventKind;
  using detail::EventPayload;
  using detail::GpuState;
  using detail::JobState;
  using detail::RoundState;
  using detail::SeqEntry;
  using detail::kTimeEps;
  using Phase = detail::JobState::Phase;

  HARE_SPAN("sim", "sim.run");
  HARE_CHECK_MSG(schedule.gpu_count() == cluster_.gpu_count(),
                 "schedule covers " << schedule.gpu_count()
                                    << " GPUs, cluster has "
                                    << cluster_.gpu_count());
  validate_schedule(schedule, jobs_);

  const std::size_t task_count = jobs_.task_count();
  const std::size_t gpu_count = cluster_.gpu_count();
  detail::SimScratchImpl& scratch = *state.impl_;
  const bool faulty =
      config_.fault_plan != nullptr && !config_.fault_plan->events.empty();
  const bool can_replan = config_.replan != nullptr && *config_.replan;

  // Pre-drawn per-task noise keeps actual durations independent of event
  // order (deterministic replay regardless of schedule shape). With noise
  // off (exact simulator mode) the vectors are skipped entirely.
  const bool with_noise = config_.runtime_noise_cv > 0.0;
  std::vector<double>& tc_noise = scratch.tc_noise;
  std::vector<double>& ts_noise = scratch.ts_noise;
  if (with_noise) {
    tc_noise.assign(task_count, 1.0);
    ts_noise.assign(task_count, 1.0);
    common::Rng rng(config_.noise_seed);
    const double cv = config_.runtime_noise_cv;
    const double sigma = std::sqrt(std::log(1.0 + cv * cv));
    for (std::size_t i = 0; i < task_count; ++i) {
      tc_noise[i] = rng.log_normal(-sigma * sigma / 2.0, sigma);
      ts_noise[i] = rng.log_normal(-sigma * sigma / 2.0, sigma);
    }
  }

  // Memoized lookups: per-(model, GPU-type) switch costs and per-job model
  // info, built once instead of re-derived at every task start.
  const switching::SwitchCostModel switch_model(config_.switching);
  scratch.switch_table.build(switch_model);
  scratch.job_info.assign(jobs_.job_count(), {});
  for (const auto& job : jobs_.jobs()) {
    const workload::ModelSpec& model = workload::model_spec(job.spec.model);
    auto& info = scratch.job_info[static_cast<std::size_t>(job.id.value())];
    info.model = job.spec.model;
    info.footprint =
        workload::task_memory_footprint(model, job.effective_batch_size());
    info.state_bytes = workload::model_state_bytes(model);
  }

  const bool with_memory =
      config_.use_memory_manager &&
      config_.switching.policy == switching::SwitchPolicy::Hare;

  std::vector<GpuState>& gpus = scratch.gpus;
  gpus.assign(gpu_count, {});
  for (std::size_t g = 0; g < gpu_count; ++g) {
    if (with_memory) {
      gpus[g].memory.emplace(
          cluster_.gpu(GpuId(static_cast<int>(g))).spec().memory);
    }
  }

  // The schedule's sequences become the mutable per-GPU queues: faults
  // stale-out entries via epochs and replans append new ones.
  std::vector<std::vector<SeqEntry>>& seq = scratch.seq;
  seq.resize(gpu_count);
  for (std::size_t g = 0; g < gpu_count; ++g) {
    const auto& source = schedule.sequences[g];
    seq[g].clear();
    seq[g].reserve(source.size());
    for (const TaskId task : source) seq[g].push_back(SeqEntry{task, 0});
  }

  std::vector<JobState>& job_states = scratch.job_states;
  job_states.resize(jobs_.job_count());
  auto& job_gpus = scratch.job_gpus;
  job_gpus.resize(jobs_.job_count());
  for (auto& started : job_gpus) started.clear();
  for (const auto& job : jobs_.jobs()) {
    auto& js = job_states[static_cast<std::size_t>(job.id.value())];
    js.phase = Phase::Active;
    js.plan_epoch = 0;
    js.checkpoint = 0;
    js.release = 0.0;
    js.failed_at = -1.0;
    js.restart_started = false;
    js.rounds.resize(job.rounds());
    for (auto& round : js.rounds) {
      round.remaining = static_cast<int>(job.tasks_per_round());
      round.barrier = 0.0;
      round.done = false;
      round.waiters.clear();
    }
  }

  SimResult result;
  result.tasks.assign(task_count, {});
  result.jobs.resize(jobs_.job_count());
  for (const auto& job : jobs_.jobs()) {
    auto& record = result.jobs[static_cast<std::size_t>(job.id.value())];
    record = {};
    record.arrival = job.spec.arrival;
    record.weight = job.spec.weight;
  }
  result.gpus.assign(gpu_count, {});
  if (config_.record_timeline) result.busy_intervals.resize(gpu_count);

  EventQueue<EventPayload>& events = scratch.events;
  events.clear();
  events.reserve(gpu_count * 2 + 16);
  NetworkModel network(cluster_);
  auto& inflight_syncs = scratch.inflight_syncs;
  inflight_syncs.clear();

  // --- helpers -----------------------------------------------------------

  const auto job_state_of = [&](TaskId task_id) -> JobState& {
    return job_states[static_cast<std::size_t>(
        jobs_.task(task_id).job.value())];
  };

  auto start_task = [&](GpuId gpu_id, TaskId task_id, Time now, Time ready) {
    GpuState& gpu = gpus[static_cast<std::size_t>(gpu_id.value())];
    const workload::Task& task = jobs_.task(task_id);
    const auto& info =
        scratch.job_info[static_cast<std::size_t>(task.job.value())];
    const cluster::Gpu& hw = cluster_.gpu(gpu_id);

    const switching::SpeculativeMemoryManager* memory_view =
        gpu.memory ? &*gpu.memory : nullptr;
    const switching::SwitchBreakdown& breakdown = scratch.switch_table.lookup(
        task.job, info.model, hw.type, gpu.previous_job, memory_view);
    if (gpu.memory) {
      gpu.memory->on_task_start(task.job, info.footprint, info.state_bytes);
    }
    auto& started = job_gpus[static_cast<std::size_t>(task.job.value())];
    const auto at = std::lower_bound(started.begin(), started.end(), gpu_id);
    if (at == started.end() || *at != gpu_id) started.insert(at, gpu_id);

    const double tc =
        (with_noise
             ? actual_.tc(task.job, gpu_id) *
                   tc_noise[static_cast<std::size_t>(task_id.value())]
             : actual_.tc(task.job, gpu_id)) *
        gpu.slow_factor;
    Time switch_time = breakdown.total();

    // First post-restart attempt of a displaced job: charge the checkpoint
    // restore and close the failure -> progress recovery-latency window.
    JobState& js = job_states[static_cast<std::size_t>(task.job.value())];
    if (js.failed_at >= 0.0 && !js.restart_started) {
      js.restart_started = true;
      const Time latency = now - js.failed_at;
      js.failed_at = -1.0;
      result.faults.recovery_latencies.push_back(latency);
      result.faults.restart_overhead += config_.retry.restart_overhead_s;
      switch_time += config_.retry.restart_overhead_s;
      static obs::Histogram& recovery_latency = obs::histogram(
          "fault.recovery_latency_us", obs::latency_bounds_us());
      recovery_latency.record(latency * 1e6);  // virtual seconds -> µs
    }

    TaskRecord& record =
        result.tasks[static_cast<std::size_t>(task_id.value())];
    record.gpu = gpu_id;
    record.ready = ready;
    record.start = now;
    record.switch_time = switch_time;
    record.compute_start = now + switch_time;
    record.compute_end = record.compute_start + tc;
    record.model_resident = breakdown.model_resident;
    ++record.attempts;

    GpuRecord& gpu_record =
        result.gpus[static_cast<std::size_t>(gpu_id.value())];
    gpu_record.busy_switch += switch_time;
    gpu_record.busy_compute += tc;
    gpu_record.last_busy_end = record.compute_end;
    ++gpu_record.task_count;
    if (config_.record_timeline) {
      result.busy_intervals[static_cast<std::size_t>(gpu_id.value())]
          .emplace_back(now, record.compute_end);
    }

    auto& stat = result.switch_stats[static_cast<std::size_t>(info.model)];
    stat.total_compute_time += tc;
    if (gpu.previous_job && *gpu.previous_job != task.job) {
      ++stat.switch_count;
      stat.total_switch_time += switch_time;
      if (breakdown.model_resident) ++stat.resident_hits;
      static obs::Histogram& preempt_latency = obs::histogram(
          "switch.preempt_latency_us", obs::latency_bounds_us());
      preempt_latency.record(switch_time * 1e6);  // virtual seconds -> µs
    }

    gpu.busy = true;
    gpu.current_task = task_id;
    gpu.previous_job = task.job;
    ++gpu.next_index;
    events.push(record.compute_end,
                EventPayload{EventKind::ComputeDone, gpu_id, task_id,
                             gpu.kill_epoch});
  };

  auto try_start = [&](GpuId gpu_id, Time now) {
    GpuState& gpu = gpus[static_cast<std::size_t>(gpu_id.value())];
    if (!gpu.alive || gpu.busy || gpu.waiting) return;
    const auto& sequence = seq[static_cast<std::size_t>(gpu_id.value())];
    // Skip entries staled by job termination or displacement.
    while (gpu.next_index < sequence.size()) {
      const SeqEntry entry = sequence[gpu.next_index];
      const JobState& js = job_state_of(entry.task);
      if (js.phase == Phase::Active && entry.epoch == js.plan_epoch) break;
      ++gpu.next_index;
    }
    if (gpu.next_index >= sequence.size()) return;

    const TaskId task_id = sequence[gpu.next_index].task;
    const workload::Task& task = jobs_.task(task_id);
    const workload::Job& job = jobs_.job(task.job);
    JobState& js = job_states[static_cast<std::size_t>(task.job.value())];

    Time ready = std::max(job.spec.arrival, js.release);
    if (task.round > 0) {
      RoundState& prev =
          js.rounds[static_cast<std::size_t>(task.round - 1)];
      if (!prev.done) {
        prev.waiters.push_back(gpu_id);
        gpu.waiting = true;
        return;
      }
      ready = std::max(ready, prev.barrier);
    }

    if (ready > now + kTimeEps) {
      events.push(ready, EventPayload{EventKind::TryStart, gpu_id, TaskId{}});
      return;
    }
    start_task(gpu_id, task_id, now, ready);
  };

  // A finished or cancelled job's kept state can sit only on GPUs that
  // started one of its tasks.
  const auto release_memory = [&](JobId job_id) {
    for (const GpuId gpu_id :
         job_gpus[static_cast<std::size_t>(job_id.value())]) {
      auto& memory = gpus[static_cast<std::size_t>(gpu_id.value())].memory;
      if (memory) memory->on_job_finished(job_id);
    }
  };

  auto handle_sync_done = [&](TaskId task_id, std::uint32_t epoch, Time now) {
    const workload::Task& task = jobs_.task(task_id);
    JobState& job_state =
        job_states[static_cast<std::size_t>(task.job.value())];
    // A sync from before the job was cancelled/displaced: drop it.
    if (job_state.phase != Phase::Active || epoch != job_state.plan_epoch) {
      return;
    }
    result.tasks[static_cast<std::size_t>(task_id.value())].sync_end = now;

    RoundState& round =
        job_state.rounds[static_cast<std::size_t>(task.round)];
    round.barrier = std::max(round.barrier, now);
    HARE_CHECK_MSG(round.remaining > 0, "round over-completed");
    if (--round.remaining > 0) return;

    round.done = true;
    const workload::Job& job = jobs_.job(task.job);
    job_state.checkpoint =
        std::max(job_state.checkpoint, static_cast<RoundIndex>(task.round) + 1);
    if (static_cast<std::uint32_t>(task.round) + 1 == job.rounds()) {
      job_state.phase = Phase::Finished;
      auto& record = result.jobs[static_cast<std::size_t>(task.job.value())];
      record.completion = round.barrier;
      release_memory(task.job);
    }
    // Wake GPUs whose heads were blocked on this barrier. Their start time
    // is the barrier, which may be earlier than `now` only by sync-ordering
    // slack; use the barrier as the ready stamp.
    std::vector<GpuId> waiters = std::move(round.waiters);
    round.waiters.clear();
    for (GpuId waiter : waiters) {
      gpus[static_cast<std::size_t>(waiter.value())].waiting = false;
      try_start(waiter, now);
    }
  };

  auto handle_compute_done = [&](GpuId gpu_id, TaskId task_id,
                                 std::uint32_t epoch, Time now) {
    GpuState& gpu = gpus[static_cast<std::size_t>(gpu_id.value())];
    // The attempt was killed (GPU death or job displacement) mid-compute.
    if (epoch != gpu.kill_epoch) return;
    gpu.busy = false;
    gpu.current_task = TaskId{};
    if (gpu.memory) gpu.memory->on_task_complete(now);

    const workload::Task& task = jobs_.task(task_id);
    const std::uint32_t plan_epoch =
        job_states[static_cast<std::size_t>(task.job.value())].plan_epoch;
    if (config_.model_network_contention) {
      const workload::ModelSpec& model = workload::model_spec(
          scratch.job_info[static_cast<std::size_t>(task.job.value())].model);
      const double bytes =
          2.0 * static_cast<double>(model.parameter_bytes) *
          config_.sync_volume_factor;
      const auto id = network.start_transfer(
          cluster_.gpu(gpu_id).machine, bytes, now);
      inflight_syncs.emplace(
          id, detail::SimScratchImpl::SyncRef{task_id, plan_epoch});
    } else {
      const double ts =
          with_noise
              ? actual_.ts(task.job, gpu_id) *
                    ts_noise[static_cast<std::size_t>(task_id.value())]
              : actual_.ts(task.job, gpu_id);
      events.push(now + ts, EventPayload{EventKind::SyncDone, gpu_id, task_id,
                                         plan_epoch});
    }
    try_start(gpu_id, now);
  };

  // --- fault machinery ---------------------------------------------------

  // Undo the un-executed part of the running attempt's accounting and drop
  // its in-flight ComputeDone. The time actually burned (switch first,
  // then compute) stays in the GPU's busy totals and is counted as lost.
  auto kill_running_task = [&](GpuId gpu_id, Time now) {
    GpuState& gpu = gpus[static_cast<std::size_t>(gpu_id.value())];
    const TaskRecord& rec =
        result.tasks[static_cast<std::size_t>(gpu.current_task.value())];
    const Time executed = std::max(0.0, now - rec.start);
    const Time tc = rec.compute_end - rec.compute_start;
    const Time done_switch = std::min(executed, rec.switch_time);
    const Time done_compute = std::max(0.0, executed - rec.switch_time);
    GpuRecord& gpu_record =
        result.gpus[static_cast<std::size_t>(gpu_id.value())];
    gpu_record.busy_switch -= rec.switch_time - done_switch;
    gpu_record.busy_compute -= tc - done_compute;
    gpu_record.last_busy_end = now;
    --gpu_record.task_count;
    if (config_.record_timeline) {
      auto& intervals =
          result.busy_intervals[static_cast<std::size_t>(gpu_id.value())];
      if (!intervals.empty()) intervals.back().second = now;
    }
    ++result.faults.tasks_killed;
    result.faults.lost_compute += executed;
    ++gpu.kill_epoch;
    gpu.busy = false;
    gpu.current_task = TaskId{};
    if (gpu.memory) gpu.memory->on_task_complete(now);
  };

  // Invalidate every placement of a job: running attempts (only GPUs that
  // started one of its tasks can hold one; visited in ascending order, so
  // lost compute sums in a fixed order), queued entries (via the epoch
  // bump), round progress past the checkpoint, and barrier waiters (freed
  // to re-examine their queues).
  auto kill_placements = [&](JobId job_id, Time now) {
    JobState& js = job_states[static_cast<std::size_t>(job_id.value())];
    ++js.plan_epoch;
    for (const GpuId gpu_id :
         job_gpus[static_cast<std::size_t>(job_id.value())]) {
      const GpuState& gpu = gpus[static_cast<std::size_t>(gpu_id.value())];
      if (gpu.busy && gpu.current_task.valid() &&
          jobs_.task(gpu.current_task).job == job_id) {
        kill_running_task(gpu_id, now);
      }
    }
    const workload::Job& job = jobs_.job(job_id);
    for (std::size_t r = static_cast<std::size_t>(js.checkpoint);
         r < job.rounds(); ++r) {
      RoundState& round = js.rounds[r];
      round.remaining = static_cast<int>(job.tasks_per_round());
      round.barrier = 0.0;
      round.done = false;
      for (GpuId waiter : round.waiters) {
        gpus[static_cast<std::size_t>(waiter.value())].waiting = false;
      }
      round.waiters.clear();
    }
  };

  // A GPU dies: invalidate its queue and collect the jobs it displaces
  // (the running attempt's owner plus every job with live queued entries).
  auto fail_gpu = [&](GpuId gpu_id, Time now, std::vector<JobId>& affected) {
    GpuState& gpu = gpus[static_cast<std::size_t>(gpu_id.value())];
    if (!gpu.alive) return;
    gpu.alive = false;
    gpu.slow_factor = 1.0;
    ++result.faults.gpu_failures;
    if (gpu.busy) {
      affected.push_back(jobs_.task(gpu.current_task).job);
      kill_running_task(gpu_id, now);
    }
    ++gpu.kill_epoch;
    auto& sequence = seq[static_cast<std::size_t>(gpu_id.value())];
    for (std::size_t i = gpu.next_index; i < sequence.size(); ++i) {
      const SeqEntry entry = sequence[i];
      const JobState& js = job_state_of(entry.task);
      if (js.phase == Phase::Active && entry.epoch == js.plan_epoch) {
        affected.push_back(jobs_.task(entry.task).job);
      }
    }
    gpu.next_index = sequence.size();
    gpu.previous_job.reset();
    gpu.memory.reset();
  };

  // Ask the replan hook to place the displaced jobs' remaining rounds on
  // the surviving cluster, validate the answer, and append it to the
  // queues. A job the hook cannot fully place is dead-lettered.
  auto request_replan = [&](const std::vector<JobId>& retry_jobs, Time now) {
    if (retry_jobs.empty()) return;
    HARE_SPAN_ARG("fault", "fault.replan", "vt", now);
    fault::ReplanRequest request;
    request.now = now;
    request.gpu_alive.resize(gpu_count);
    request.gpu_busy_until.assign(gpu_count, now);
    for (std::size_t g = 0; g < gpu_count; ++g) {
      const GpuState& gpu = gpus[g];
      request.gpu_alive[g] = gpu.alive ? 1 : 0;
      if (!gpu.alive) {
        request.gpu_busy_until[g] = kTimeInfinity;
        continue;
      }
      Time until = now;
      if (gpu.busy) {
        until = result
                    .tasks[static_cast<std::size_t>(gpu.current_task.value())]
                    .compute_end;
      }
      // Rough tail estimate: compute time of the live queued entries. An
      // entry once stale stays stale (epochs and phases only move forward)
      // and every reader skips it, so the scan drops stale entries from
      // the queue and later replans do not walk them again.
      auto& sequence = seq[g];
      std::size_t live = gpu.next_index;
      for (std::size_t i = gpu.next_index; i < sequence.size(); ++i) {
        const SeqEntry entry = sequence[i];
        const JobState& js = job_state_of(entry.task);
        if (js.phase != Phase::Active || entry.epoch != js.plan_epoch) continue;
        until += actual_.tc(jobs_.task(entry.task).job,
                            GpuId(static_cast<int>(g)));
        sequence[live++] = entry;
      }
      sequence.resize(live);
      request.gpu_busy_until[g] = until;
    }
    std::vector<char> requested(jobs_.job_count(), 0);
    for (const JobId job_id : retry_jobs) {
      const std::size_t j = static_cast<std::size_t>(job_id.value());
      const JobState& js = job_states[j];
      request.jobs.push_back(fault::ReplanRequest::JobRequest{
          job_id, js.checkpoint, js.release, result.jobs[j].restarts});
      requested[j] = 1;
    }

    ++result.faults.replans;
    static obs::Counter& replans = obs::counter("fault.replans");
    replans.add();
    const fault::ReplanResult replanned = (*config_.replan)(request);
    HARE_CHECK_MSG(replanned.appended.size() <= gpu_count,
                   "replan covers more GPUs than the cluster has");

    std::vector<char> seen(task_count, 0);
    std::vector<std::size_t> appended_count(jobs_.job_count(), 0);
    for (std::size_t g = 0; g < replanned.appended.size(); ++g) {
      if (replanned.appended[g].empty()) continue;
      HARE_CHECK_MSG(gpus[g].alive, "replan placed work on a dead GPU");
      for (const TaskId task_id : replanned.appended[g]) {
        const workload::Task& task = jobs_.task(task_id);
        const std::size_t j = static_cast<std::size_t>(task.job.value());
        HARE_CHECK_MSG(requested[j],
                       "replan placed a task of an unrequested job");
        JobState& js = job_states[j];
        HARE_CHECK_MSG(task.round >= js.checkpoint,
                       "replan re-placed an already-completed round");
        HARE_CHECK_MSG(!seen[static_cast<std::size_t>(task_id.value())],
                       "replan placed a task twice");
        seen[static_cast<std::size_t>(task_id.value())] = 1;
        seq[g].push_back(SeqEntry{task_id, js.plan_epoch});
        ++appended_count[j];
      }
    }
    for (const JobId job_id : retry_jobs) {
      const std::size_t j = static_cast<std::size_t>(job_id.value());
      JobState& js = job_states[j];
      const workload::Job& job = jobs_.job(job_id);
      const std::size_t expected =
          (job.rounds() - static_cast<std::size_t>(js.checkpoint)) *
          job.tasks_per_round();
      if (appended_count[j] == expected) continue;
      // Partial/absent placement — there is no capacity for this job on
      // the survivors. Stale its appended entries and dead-letter it.
      ++js.plan_epoch;
      js.phase = Phase::Dead;
      auto& record = result.jobs[j];
      record.outcome = JobOutcome::DeadLettered;
      record.completion = now;
      ++result.faults.dead_letters;
      static obs::Counter& dead_letters = obs::counter("fault.dead_letters");
      dead_letters.add();
    }
  };

  // Displaced jobs: checkpoint, decide retry vs. dead-letter, replan.
  auto handle_failures = [&](std::vector<JobId>& affected, Time now) {
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    std::vector<JobId> retry_jobs;
    for (const JobId job_id : affected) {
      const std::size_t j = static_cast<std::size_t>(job_id.value());
      JobState& js = job_states[j];
      if (js.phase != Phase::Active) continue;
      kill_placements(job_id, now);
      js.failed_at = now;
      js.restart_started = false;
      auto& record = result.jobs[j];
      if (record.restarts + 1 > config_.retry.max_retries || !can_replan) {
        js.phase = Phase::Dead;
        record.outcome = JobOutcome::DeadLettered;
        record.completion = now;
        ++result.faults.dead_letters;
        static obs::Counter& dead_letters = obs::counter("fault.dead_letters");
        dead_letters.add();
        continue;
      }
      ++record.restarts;
      ++result.faults.restarts;
      static obs::Counter& restarts = obs::counter("fault.job_restarts");
      restarts.add();
      js.release = now + config_.retry.backoff(record.restarts);
      retry_jobs.push_back(job_id);
    }
    request_replan(retry_jobs, now);
  };

  auto recover_gpu = [&](GpuId gpu_id, Time now) -> bool {
    GpuState& gpu = gpus[static_cast<std::size_t>(gpu_id.value())];
    if (gpu.alive) return false;
    gpu.alive = true;
    gpu.busy = false;
    gpu.waiting = false;
    gpu.slow_factor = 1.0;
    gpu.current_task = TaskId{};
    gpu.previous_job.reset();
    if (with_memory) {
      gpu.memory.emplace(cluster_.gpu(gpu_id).spec().memory);  // cold
    }
    ++result.faults.recoveries;
    static_cast<void>(now);
    return true;
  };

  // Capacity came back: displaced jobs that have not yet made post-restart
  // progress get a fresh replan onto the richer cluster. Jobs already
  // executing their restarted placement keep it; dead jobs stay dead.
  auto replan_after_recovery = [&](Time now) {
    if (!can_replan) return;
    std::vector<JobId> retry_jobs;
    for (const auto& job : jobs_.jobs()) {
      JobState& js = job_states[static_cast<std::size_t>(job.id.value())];
      if (js.phase != Phase::Active || js.plan_epoch == 0 ||
          js.restart_started || js.failed_at < 0.0) {
        continue;
      }
      kill_placements(job.id, now);
      js.release = std::max(js.release, now);
      retry_jobs.push_back(job.id);
    }
    request_replan(retry_jobs, now);
  };

  auto handle_fault = [&](std::size_t index, Time now) {
    const fault::FaultEvent& fault_event = config_.fault_plan->events[index];
    if (obs::Tracer::instance().enabled()) {
      obs::instant("fault", "fault.event", fault::describe(fault_event));
    }
    switch (fault_event.kind) {
      case fault::FaultKind::MachineFail: {
        const cluster::Machine& machine = cluster_.machine(fault_event.machine);
        std::vector<JobId> affected;
        bool any = false;
        for (const GpuId gpu_id : machine.gpus) {
          const bool was_alive =
              gpus[static_cast<std::size_t>(gpu_id.value())].alive;
          fail_gpu(gpu_id, now, affected);
          any = any || was_alive;
        }
        if (any) {
          ++result.faults.machine_failures;
          static obs::Counter& machine_failures =
              obs::counter("fault.machine_failures");
          machine_failures.add();
        }
        handle_failures(affected, now);
        break;
      }
      case fault::FaultKind::GpuFail: {
        std::vector<JobId> affected;
        fail_gpu(fault_event.gpu, now, affected);
        static obs::Counter& gpu_failures = obs::counter("fault.gpu_failures");
        gpu_failures.add();
        handle_failures(affected, now);
        break;
      }
      case fault::FaultKind::MachineRecover: {
        const cluster::Machine& machine = cluster_.machine(fault_event.machine);
        bool any = false;
        for (const GpuId gpu_id : machine.gpus) {
          any = recover_gpu(gpu_id, now) || any;
        }
        if (any) {
          static obs::Counter& recoveries = obs::counter("fault.recoveries");
          recoveries.add();
          replan_after_recovery(now);
        }
        break;
      }
      case fault::FaultKind::GpuRecover: {
        if (recover_gpu(fault_event.gpu, now)) {
          static obs::Counter& recoveries = obs::counter("fault.recoveries");
          recoveries.add();
          replan_after_recovery(now);
        }
        break;
      }
      case fault::FaultKind::JobCancel: {
        JobState& js =
            job_states[static_cast<std::size_t>(fault_event.job.value())];
        if (js.phase != Phase::Active) break;
        kill_placements(fault_event.job, now);
        js.phase = Phase::Cancelled;
        auto& record =
            result.jobs[static_cast<std::size_t>(fault_event.job.value())];
        record.outcome = JobOutcome::Cancelled;
        record.completion = now;
        ++result.faults.cancellations;
        static obs::Counter& cancellations =
            obs::counter("fault.cancellations");
        cancellations.add();
        release_memory(fault_event.job);
        break;
      }
      case fault::FaultKind::JobComplete:
        // Serve-layer event: the simulator derives completions from task
        // execution itself, so a scripted completion carries no state here.
        break;
      case fault::FaultKind::StragglerStart: {
        GpuState& gpu =
            gpus[static_cast<std::size_t>(fault_event.gpu.value())];
        if (gpu.alive) gpu.slow_factor = std::max(1.0, fault_event.factor);
        break;
      }
      case fault::FaultKind::StragglerEnd: {
        GpuState& gpu =
            gpus[static_cast<std::size_t>(fault_event.gpu.value())];
        gpu.slow_factor = 1.0;
        break;
      }
    }
    // Freed/recovered/replanned GPUs re-examine their queues. try_start is
    // a cheap no-op for busy/waiting/dead GPUs, and the ascending sweep
    // keeps the visit order deterministic.
    for (std::size_t g = 0; g < gpu_count; ++g) {
      try_start(GpuId(static_cast<int>(g)), now);
    }
  };

  // --- main loop ---------------------------------------------------------

  // Fault events enter first so at equal timestamps a fault pops before
  // the task event it races (lower sequence number), which keeps fault
  // runs bit-identical across repeated runs and sweep parallelism.
  if (faulty) {
    for (std::size_t i = 0; i < config_.fault_plan->events.size(); ++i) {
      const fault::FaultEvent& fault_event = config_.fault_plan->events[i];
      HARE_CHECK_MSG(
          fault_event.kind == fault::FaultKind::MachineFail ||
                  fault_event.kind == fault::FaultKind::MachineRecover
              ? fault_event.machine.valid() &&
                    static_cast<std::size_t>(fault_event.machine.value()) <
                        cluster_.machine_count()
          : fault_event.kind == fault::FaultKind::JobCancel
              ? fault_event.job.valid() &&
                    static_cast<std::size_t>(fault_event.job.value()) <
                        jobs_.job_count()
              : fault_event.gpu.valid() &&
                    static_cast<std::size_t>(fault_event.gpu.value()) <
                        gpu_count,
          "fault plan event " << i << " targets an id out of range");
      events.push(std::max(0.0, fault_event.time),
                  EventPayload{EventKind::Fault, GpuId{}, TaskId{},
                               static_cast<std::uint32_t>(i)});
    }
  }

  for (std::size_t g = 0; g < gpu_count; ++g) {
    events.push(0.0, EventPayload{EventKind::TryStart,
                                  GpuId(static_cast<int>(g)), TaskId{}});
  }

  static obs::Counter& events_processed =
      obs::counter("sim.events_processed");
  while (!events.empty() || network.active_count() > 0) {
    const Time network_time = network.next_completion();
    const Time event_time =
        events.empty() ? kTimeInfinity : events.top().time;

    if (network_time <= event_time) {
      HARE_SPAN_ARG("sim", "sim.event.network_sync", "vt", network_time);
      for (const auto transfer : network.complete_at(network_time)) {
        const auto it = inflight_syncs.find(transfer);
        HARE_CHECK_MSG(it != inflight_syncs.end(), "unknown transfer");
        // RPC/aggregation latency lands after the transfer completes.
        events.push(network_time + config_.sync_latency_s,
                    EventPayload{EventKind::SyncDone, GpuId{},
                                 it->second.task, it->second.epoch});
        inflight_syncs.erase(it);
        events_processed.add();
      }
      continue;
    }

    const auto event = events.pop();
    events_processed.add();
    switch (event.payload.kind) {
      case EventKind::TryStart: {
        HARE_SPAN_ARG("sim", "sim.event.try_start", "vt", event.time);
        try_start(event.payload.gpu, event.time);
        break;
      }
      case EventKind::ComputeDone: {
        HARE_SPAN_ARG("sim", "sim.event.compute_done", "vt", event.time);
        handle_compute_done(event.payload.gpu, event.payload.task,
                            event.payload.epoch, event.time);
        break;
      }
      case EventKind::SyncDone: {
        HARE_SPAN_ARG("sim", "sim.event.sync_done", "vt", event.time);
        handle_sync_done(event.payload.task, event.payload.epoch, event.time);
        break;
      }
      case EventKind::Fault: {
        HARE_SPAN_ARG("sim", "sim.event.fault", "vt", event.time);
        handle_fault(event.payload.epoch, event.time);
        break;
      }
    }
  }

  // --- aggregates --------------------------------------------------------

  for (const auto& job : jobs_.jobs()) {
    const auto& js = job_states[static_cast<std::size_t>(job.id.value())];
    HARE_CHECK_MSG(js.phase != Phase::Active,
                   "job " << job.id
                          << " did not finish (scheduler or replan bug)");
  }
  for (const auto& record : result.jobs) {
    if (record.outcome != JobOutcome::Completed) continue;
    result.makespan = std::max(result.makespan, record.completion);
    result.weighted_completion += record.weight * record.completion;
    result.weighted_jct += record.weight * record.jct();
  }
  for (const auto& gpu_record : result.gpus) {
    result.makespan = std::max(result.makespan, gpu_record.last_busy_end);
  }
  common::log_debug("sim: run finished, makespan ", result.makespan,
                    " s, weighted JCT ", result.weighted_jct, " s");
  return result;
}

}  // namespace hare::sim
