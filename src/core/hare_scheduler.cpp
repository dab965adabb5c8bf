#include "core/hare_scheduler.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "common/error.hpp"
#include "core/placement_index.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hare::core {

namespace {

using RoundTable = std::vector<std::vector<RoundProgress>>;

/// One list-scheduling pass. Placements go straight into `schedule`, the
/// horizons into `phi` and round progress into `rounds`, all owned by the
/// caller: call-local buffers for an offline plan, the IncrementalState
/// and the caller's cumulative plan for a batch.
struct BuildState {
  const sched::SchedulerInput& input;
  const HareConfig& config;
  sim::Schedule& schedule;
  std::vector<Time>& phi;  ///< GPU available times
  RoundTable& rounds;      ///< [job][round]
  /// The fitting matrix and placement index live in the caller's scratch,
  /// shared with the relaxation (φ-independent, so re-seeded for free).
  PlannerScratch& scratch;
  PlacementIndex* index = nullptr;
  double objective = 0.0;
  std::size_t placed = 0;  ///< tasks placed by this pass

  [[nodiscard]] const std::vector<std::vector<char>>& fits() const {
    return scratch.fits;
  }

  /// Seed the placement index for the relaxed pass. Must run after `phi`
  /// holds the initial horizons (incremental planning seeds them).
  void build_index() {
    index = &scratch.index_for(input.cluster, input.jobs, input.times, phi);
  }

  [[nodiscard]] RoundProgress& progress(JobId job, RoundIndex round) {
    return rounds[static_cast<std::size_t>(job.value())]
                 [static_cast<std::size_t>(round)];
  }

  /// Algorithm 1 lines 12-16 for one task with availability t_i. Returns
  /// the deferred tasks unblocked by any round completion this causes.
  std::vector<TaskId> place_task(TaskId task_id, Time available) {
    const workload::Task& task = input.jobs.task(task_id);
    const workload::Job& job = input.jobs.job(task.job);

    const PlacementIndex::Candidate chosen =
        config.placement == Placement::EarliestAvailable
            ? index->earliest_available(task.job, available)
            : index->earliest_finish(task.job, available);
    HARE_CHECK_MSG(chosen.valid(), "no feasible GPU for task " << task_id);
    const std::size_t best = chosen.gpu;
    const GpuId gpu(static_cast<int>(best));
    const Time start = chosen.start;
    const Time tc = input.times.tc(task.job, gpu);
    const Time ts = input.times.ts(task.job, gpu);

    schedule.sequences[best].push_back(task_id);
    schedule.predicted_start[static_cast<std::size_t>(task_id.value())] =
        start;
    phi[best] = start + tc;  // T^s overlaps the GPU's next task (line 16)
    index->set_phi(best, phi[best]);
    ++placed;

    RoundProgress& round = progress(task.job, task.round);
    round.barrier = std::max(round.barrier, start + tc + ts);
    ++round.scheduled;

    std::vector<TaskId> unblocked;
    if (round.scheduled == static_cast<int>(job.tasks_per_round())) {
      if (static_cast<std::uint32_t>(task.round) + 1 == job.rounds()) {
        objective += job.spec.weight * round.barrier;
      }
      unblocked = std::move(round.waiting);
      round.waiting.clear();
    }
    return unblocked;
  }

  /// Availability t_i (Algorithm 1 lines 7-11), or nullopt when the
  /// previous round is not fully scheduled yet (deferral).
  [[nodiscard]] std::optional<Time> availability(TaskId task_id) {
    const workload::Task& task = input.jobs.task(task_id);
    const workload::Job& job = input.jobs.job(task.job);
    if (task.round == 0) return job.spec.arrival;
    RoundProgress& prev = progress(task.job, task.round - 1);
    if (prev.scheduled < static_cast<int>(job.tasks_per_round())) {
      return std::nullopt;
    }
    return std::max(job.spec.arrival, prev.barrier);
  }
};

/// The call-local buffers of an offline plan: an empty plan spanning the
/// instance, every GPU free at 0, and a fresh round table.
struct OfflineBuffers {
  sim::Schedule schedule;
  std::vector<Time> phi;
  RoundTable rounds;

  OfflineBuffers(const sched::SchedulerInput& in, PlannerScratch& scratch) {
    scratch.sync(in.cluster, in.jobs);
    schedule.sequences.resize(in.cluster.gpu_count());
    schedule.predicted_start.assign(in.jobs.task_count(), 0.0);
    phi.assign(in.cluster.gpu_count(), 0.0);
    rounds.resize(in.jobs.job_count());
    for (const auto& job : in.jobs.jobs()) {
      rounds[static_cast<std::size_t>(job.id.value())].resize(job.rounds());
    }
  }
};

/// Algorithm 1's main loop over a π sequence, with deferral for tasks
/// whose previous round is not yet fully placed.
void run_relaxed_pass(BuildState& state, const std::vector<TaskId>& pi) {
  static obs::Counter& placed_counter = obs::counter("planner.tasks_placed");
  std::deque<TaskId> queue;
  std::size_t pi_cursor = 0;
  while (pi_cursor < pi.size() || !queue.empty()) {
    TaskId task_id;
    if (!queue.empty()) {
      task_id = queue.front();
      queue.pop_front();
    } else {
      task_id = pi[pi_cursor++];
    }
    const auto available = state.availability(task_id);
    if (!available) {
      const workload::Task& task = state.input.jobs.task(task_id);
      state.progress(task.job, task.round - 1).waiting.push_back(task_id);
      continue;
    }
    for (TaskId unblocked : state.place_task(task_id, *available)) {
      queue.push_back(unblocked);
    }
  }
  placed_counter.add(state.placed);  // once per pass, not per task
}

/// Line 4: sort π by non-descending H, ids breaking ties (deterministic).
/// Sorting packed (H, id) pairs keeps each comparison off two dependent
/// random loads into h.
void sort_by_middle_completion(std::vector<TaskId>& pi,
                               const std::vector<Time>& h) {
  HARE_SPAN("planner", "planner.sort_pi");
  std::vector<std::pair<Time, TaskId>> keyed(pi.size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    keyed[i] = {h[static_cast<std::size_t>(pi[i].value())], pi[i]};
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<Time, TaskId>& a,
               const std::pair<Time, TaskId>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = keyed[i].second;
}

sim::Schedule build_relaxed(const sched::SchedulerInput& input,
                            const HareConfig& config,
                            const std::vector<TaskId>& pi, double* objective,
                            PlannerScratch& scratch) {
  HARE_SPAN("planner", "planner.list_schedule");
  OfflineBuffers buffers(input, scratch);
  BuildState state{input,          config,         buffers.schedule,
                   buffers.phi,    buffers.rounds, scratch};
  state.build_index();
  run_relaxed_pass(state, pi);
  *objective = state.objective;
  return std::move(buffers.schedule);
}

sim::Schedule build_strict(const sched::SchedulerInput& input,
                           const HareConfig& config,
                           const std::vector<TaskId>& pi, double* objective,
                           PlannerScratch& scratch) {
  // Strict scale-fixed: whole rounds gang on distinct GPUs with a common
  // start. Rounds are visited in the order their first member appears in π.
  HARE_SPAN("planner", "planner.gang_schedule");
  static obs::Counter& placed_counter = obs::counter("planner.tasks_placed");
  OfflineBuffers buffers(input, scratch);
  BuildState state{input,          config,         buffers.schedule,
                   buffers.phi,    buffers.rounds, scratch};
  const auto& jobs = input.jobs;

  struct RoundKey {
    JobId job;
    RoundIndex round;
  };
  std::vector<RoundKey> round_order;
  std::vector<char> seen(jobs.task_count(), 0);
  for (TaskId id : pi) {
    const workload::Task& task = jobs.task(id);
    const std::size_t first =
        static_cast<std::size_t>(jobs.round_tasks(task.job, task.round)
                                     .front()
                                     .value());
    if (!seen[first]) {
      seen[first] = 1;
      round_order.push_back(RoundKey{task.job, task.round});
    }
  }

  // Deferral queue at round granularity.
  std::vector<std::vector<std::vector<RoundKey>>> blocked(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    blocked[static_cast<std::size_t>(job.id.value())].resize(job.rounds());
  }

  std::deque<RoundKey> queue;
  std::size_t cursor = 0;

  auto gang_place = [&](const RoundKey& key) -> std::vector<RoundKey> {
    const workload::Job& job = jobs.job(key.job);
    Time available = job.spec.arrival;
    if (key.round > 0) {
      available =
          std::max(available, state.progress(key.job, key.round - 1).barrier);
    }
    // |D_r| distinct earliest-available GPUs (memory-feasible only); the
    // gang starts together.
    const std::size_t k = job.tasks_per_round();
    const auto& job_fits =
        state.fits()[static_cast<std::size_t>(key.job.value())];
    std::vector<std::size_t> order;
    order.reserve(state.phi.size());
    for (std::size_t g = 0; g < state.phi.size(); ++g) {
      if (job_fits[g]) order.push_back(g);
    }
    HARE_CHECK_MSG(order.size() >= k,
                   "strict sync: job " << key.job << " fits only "
                                       << order.size() << " GPUs but needs "
                                       << k);
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(k),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        if (state.phi[a] != state.phi[b]) {
                          return state.phi[a] < state.phi[b];
                        }
                        return a < b;
                      });
    Time start = available;
    for (std::size_t i = 0; i < k; ++i) {
      start = std::max(start, state.phi[order[i]]);
    }
    const auto members = jobs.round_tasks(key.job, key.round);
    RoundProgress& round = state.progress(key.job, key.round);
    for (std::size_t i = 0; i < k; ++i) {
      const GpuId gpu(static_cast<int>(order[i]));
      const TaskId task_id = members[i];
      const Time tc = input.times.tc(key.job, gpu);
      const Time ts = input.times.ts(key.job, gpu);
      state.schedule.sequences[order[i]].push_back(task_id);
      state.schedule
          .predicted_start[static_cast<std::size_t>(task_id.value())] = start;
      state.phi[order[i]] = start + tc;
      round.barrier = std::max(round.barrier, start + tc + ts);
      ++round.scheduled;
      ++state.placed;
    }
    if (static_cast<std::uint32_t>(key.round) + 1 == job.rounds()) {
      state.objective += job.spec.weight * round.barrier;
    }
    return std::move(
        blocked[static_cast<std::size_t>(key.job.value())]
               [static_cast<std::size_t>(key.round)]);
  };

  while (cursor < round_order.size() || !queue.empty()) {
    RoundKey key{};
    if (!queue.empty()) {
      key = queue.front();
      queue.pop_front();
    } else {
      key = round_order[cursor++];
    }
    if (key.round > 0) {
      const workload::Job& job = jobs.job(key.job);
      RoundProgress& prev = state.progress(key.job, key.round - 1);
      if (prev.scheduled < static_cast<int>(job.tasks_per_round())) {
        blocked[static_cast<std::size_t>(key.job.value())]
               [static_cast<std::size_t>(key.round - 1)]
                   .push_back(key);
        continue;
      }
    }
    for (const RoundKey& unblocked : gang_place(key)) {
      queue.push_back(unblocked);
    }
  }
  placed_counter.add(state.placed);
  *objective = state.objective;
  return std::move(buffers.schedule);
}

}  // namespace

sim::Schedule HareScheduler::schedule(const sched::SchedulerInput& input) {
  HARE_SPAN("planner", "planner.schedule");
  HARE_CHECK_MSG(input.cluster.gpu_count() > 0, "cluster has no GPUs");
  for (const auto& job : input.jobs.jobs()) {
    HARE_CHECK_MSG(job.tasks_per_round() <= input.cluster.gpu_count(),
                   "job " << job.id << " sync scale exceeds cluster size");
  }

  PlannerScratch scratch;
  const HareRelaxation relaxation(config_.relaxation);
  last_relaxation_ =
      relaxation.solve(input.cluster, input.jobs, input.times, {}, &scratch);

  std::vector<TaskId> pi;
  pi.reserve(input.jobs.task_count());
  for (const auto& task : input.jobs.tasks()) pi.push_back(task.id);
  sort_by_middle_completion(pi, last_relaxation_.h);

  double objective = 0.0;
  sim::Schedule result =
      config_.sync == SyncScheme::Relaxed
          ? build_relaxed(input, config_, pi, &objective, scratch)
          : build_strict(input, config_, pi, &objective, scratch);
  result.predicted_objective = objective;
  return result;
}

namespace {

/// Size the incremental state and the cumulative plan for a grown
/// instance: φ and the sequences on first use, then append-only growth of
/// the per-task starts and the per-job round rows. Amortized O(1) per job
/// and task admitted since the last call, plus the O(1) checks.
void follow_instance(const sched::SchedulerInput& input,
                     HareScheduler::IncrementalState& state,
                     sim::Schedule& schedule) {
  const std::size_t gpu_count = input.cluster.gpu_count();
  if (state.phi.empty()) state.phi.assign(gpu_count, 0.0);
  HARE_CHECK_MSG(state.phi.size() == gpu_count, "phi size mismatch");
  if (schedule.sequences.empty()) schedule.sequences.resize(gpu_count);
  HARE_CHECK_MSG(schedule.sequences.size() == gpu_count,
                 "schedule does not span the cluster");
  if (schedule.predicted_start.size() < input.jobs.task_count()) {
    schedule.predicted_start.resize(input.jobs.task_count(), 0.0);
  }
  for (std::size_t j = state.rounds.size(); j < input.jobs.job_count(); ++j) {
    state.rounds.emplace_back(input.jobs.job(JobId(static_cast<int>(j))).rounds());
  }
}

}  // namespace

double HareScheduler::schedule_jobs(const sched::SchedulerInput& input,
                                    std::span<const JobId> batch,
                                    IncrementalState& state,
                                    sim::Schedule& schedule) {
  HARE_SPAN("planner", "planner.schedule_incremental");
  HARE_CHECK_MSG(config_.relaxation.mode == RelaxMode::Fluid,
                 "incremental planning requires the Fluid relaxation");
  HARE_CHECK_MSG(config_.sync == SyncScheme::Relaxed,
                 "incremental planning requires relaxed sync");
  check_batch(input.jobs, batch);
  follow_instance(input, state, schedule);
  if (batch.empty()) return 0.0;  // an empty sub-problem means every job

  // The scratch rides in the caller's IncrementalState: batch k pays only
  // for the jobs appended since batch k-1 instead of rebuilding the
  // fitting matrix and masked index rows over the whole instance.
  const HareRelaxation relaxation(config_.relaxation);
  relaxation.solve_batch(input.cluster, input.jobs, input.times,
                         SubProblem{batch, state.phi}, state.scratch,
                         state.relaxation);
  return schedule_jobs_with_h(input, batch, state.relaxation.h, state,
                              schedule);
}

double HareScheduler::schedule_jobs_with_h(const sched::SchedulerInput& input,
                                           std::span<const JobId> batch,
                                           const std::vector<Time>& h,
                                           IncrementalState& state,
                                           sim::Schedule& schedule) {
  HARE_SPAN("planner", "planner.schedule_with_h");
  HARE_CHECK_MSG(config_.sync == SyncScheme::Relaxed,
                 "incremental planning requires relaxed sync");
  check_batch(input.jobs, batch);
  HARE_CHECK_MSG(h.size() >= input.jobs.task_count(),
                 "middle completion times must span the task array");
  follow_instance(input, state, schedule);
  if (batch.empty()) return 0.0;

  // π: the batch jobs' contiguous task ranges, then the H sort. Their
  // round rows start over, so nothing earlier batches left can leak in.
  std::vector<TaskId> pi;
  for (const JobId id : batch) {
    const workload::Job& job = input.jobs.job(id);
    for (const TaskId task : job.task_ids()) pi.push_back(task);
    for (RoundProgress& round : state.rounds[static_cast<std::size_t>(
             id.value())]) {
      round = RoundProgress{};
    }
  }
  sort_by_middle_completion(pi, h);

  // Placements land directly on the cumulative plan: φ is monotone, so
  // batch tasks always start at or after every prior commitment on their
  // GPU, and appending keeps each sequence in start order.
  BuildState build{input,     config_,      schedule,
                   state.phi, state.rounds, state.scratch};
  build.build_index();
  run_relaxed_pass(build, pi);
  schedule.predicted_objective += build.objective;
  return build.objective;
}

}  // namespace hare::core
