#include "shard/hierarchical_planner.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "exp/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/feasibility.hpp"

namespace hare::shard {

namespace {

/// One distinct GPU type inside a shard: a representative global GPU (for
/// memory-fit and time lookups) plus how many GPUs of the type the shard
/// holds, and how many of those are alive. Assignment estimates are
/// type-granular — exact for memory fit (footprint depends on the type
/// alone) and a faithful estimate for times.
struct ShardTypeSummary {
  GpuId representative;
  cluster::GpuType type{};
  std::size_t count = 0;
  std::size_t alive = 0;
};

/// The fluid view of the shards that level 1 and the migration pass both
/// judge shards with. A GPU is alive unless its φ sits at the dead horizon
/// (offline plans pass no φ: every GPU is alive).
class ShardFit {
 public:
  ShardFit(const sched::SchedulerInput& input, const ShardPartition& partition,
           const std::vector<Time>* phi)
      : cluster_(input.cluster),
        times_(input.times),
        types_(partition.size()) {
    for (std::size_t s = 0; s < partition.size(); ++s) {
      for (const GpuId g : partition.shards[s].gpus) {
        const cluster::GpuType type = cluster_.gpu(g).type;
        auto it = std::find_if(
            types_[s].begin(), types_[s].end(),
            [&](const ShardTypeSummary& t) { return t.type == type; });
        if (it == types_[s].end()) {
          it = types_[s].insert(types_[s].end(), ShardTypeSummary{g, type});
        }
        ++it->count;
        if (phi == nullptr ||
            (*phi)[static_cast<std::size_t>(g.value())] < core::kDeadHorizon) {
          ++it->alive;
        }
      }
    }
  }

  /// Fluid completion estimate of `job` on shard `s` queued behind `load`:
  /// the job's work at the cheapest fitting type's round time, spread over
  /// every GPU it fits on, after max(arrival, load). +∞ when the shard has
  /// fewer fitting GPUs than the job's sync scale. Only alive GPUs count
  /// unless `with_dead`.
  [[nodiscard]] double estimate(const workload::Job& job, std::size_t s,
                                double load, bool with_dead) const {
    std::size_t fitting = 0;
    Time best_round = kTimeInfinity;
    for (const ShardTypeSummary& t : types_[s]) {
      const std::size_t usable = with_dead ? t.count : t.alive;
      if (usable == 0 ||
          !workload::task_fits(job, cluster_.gpu(t.representative))) {
        continue;
      }
      fitting += usable;
      best_round = std::min(best_round, times_.total(job.id, t.representative));
    }
    if (fitting < job.tasks_per_round()) return kTimeInfinity;
    const double work = static_cast<double>(job.rounds()) *
                        static_cast<double>(job.tasks_per_round()) *
                        best_round;
    return std::max(job.spec.arrival, load) +
           work / static_cast<double>(fitting);
  }

  /// The shard other than `skip` with the earliest estimate on top of
  /// `load[s]` (strict <: ties stay with the lower shard), with its
  /// estimate; {shard count, +∞} when no shard fits.
  [[nodiscard]] std::pair<std::size_t, double> best(
      const workload::Job& job, const std::vector<double>& load,
      std::size_t skip, bool with_dead) const {
    std::size_t best = load.size();
    double best_est = kTimeInfinity;
    for (std::size_t s = 0; s < load.size(); ++s) {
      if (s == skip) continue;
      const double est = estimate(job, s, load[s], with_dead);
      if (est < best_est) {
        best_est = est;
        best = s;
      }
    }
    return {best, best_est};
  }

 private:
  const cluster::Cluster& cluster_;
  const profiler::TimeTable& times_;
  std::vector<std::vector<ShardTypeSummary>> types_;
};

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// Level 1: walk the `batch` jobs (every job when empty) in the fluid
/// relaxation's arrival-adjusted WSPT order — the sequence level 2 will
/// favour — and give each to the shard with the earliest fluid estimate on
/// top of `load`, which advances in place. A job no shard has enough alive
/// fitting GPUs for counts the dead ones too, and so queues behind their
/// parked horizons as it would on the flat path. Each shard's job list ends
/// in ascending id order.
std::vector<std::vector<JobId>> assign_jobs(const sched::SchedulerInput& input,
                                            const ShardFit& fit,
                                            std::span<const JobId> batch,
                                            std::vector<double>& load) {
  HARE_SPAN("shard", "shard.assign");
  const workload::JobSet& jobs = input.jobs;
  std::vector<std::vector<JobId>> shard_jobs(load.size());
  for (const JobId job_id : core::wspt_order(jobs, input.times, batch)) {
    const workload::Job& job = jobs.job(job_id);
    std::pair<std::size_t, double> pick = fit.best(job, load, kNoShard, false);
    if (pick.first == load.size()) {
      pick = fit.best(job, load, kNoShard, true);
    }
    HARE_CHECK_MSG(pick.first < load.size(),
                   "job " << job_id << " fits no shard (sync scale "
                          << job.tasks_per_round()
                          << " too large — use fewer shards)");
    load[pick.first] = pick.second;
    shard_jobs[pick.first].push_back(job_id);
  }
  for (auto& list : shard_jobs) std::sort(list.begin(), list.end());
  return shard_jobs;
}

}  // namespace

/// Cache-line aligned: outcome slots are written concurrently by different
/// pool workers during the fan-out, and sharing a line across slots would
/// bounce it between cores on every append.
struct alignas(64) HierarchicalPlanner::ShardOutcome {
  /// [local gpu] → ordered global TaskIds.
  std::vector<std::vector<TaskId>> sequences;
  /// (global task id value, predicted start) for every planned task.
  std::vector<std::pair<std::size_t, Time>> starts;
  /// Online: [local gpu] → advanced horizon (empty when nothing planned).
  std::vector<Time> phi;
  double objective = 0.0;
  ShardStats stats;
};

HierarchicalPlanner::WorkerScratch& HierarchicalPlanner::scratch_slot() {
  // Slot 0 belongs to the non-worker caller (serial plans, the order-hook
  // test path); pool workers use 1 + their index within the pool. The
  // vector is pre-sized before every fan-out, so no slot is ever created
  // concurrently.
  const std::size_t slot =
      static_cast<std::size_t>(common::ThreadPool::current_worker_index() + 1);
  HARE_CHECK_MSG(slot < worker_scratch_.size(),
                 "worker scratch not pre-sized for slot " << slot);
  return worker_scratch_[slot];
}

std::unique_ptr<exp::Engine> HierarchicalPlanner::make_engine() {
  // Nested fan-out guard: already on a pool worker (e.g. inside an exp
  // sweep cell) → plan inline rather than oversubscribing with a second
  // pool. Slot 0 is the non-worker caller.
  const common::ThreadPool* outer = common::ThreadPool::current();
  auto engine = std::make_unique<exp::Engine>(
      exp::Engine::Options{config_.workers, config_.serial || outer != nullptr});
  const std::size_t slots =
      1 + (outer != nullptr ? outer->size() : engine->workers());
  if (worker_scratch_.size() < slots) worker_scratch_.resize(slots);
  return engine;
}

sim::Schedule HierarchicalPlanner::schedule(
    const sched::SchedulerInput& input) {
  return plan(input, nullptr);
}

sim::Schedule HierarchicalPlanner::schedule_with_order(
    const sched::SchedulerInput& input,
    const std::vector<std::size_t>& plan_order) {
  return plan(input, &plan_order);
}

HierarchicalPlanner::ShardOutcome HierarchicalPlanner::plan_shard(
    const sched::SchedulerInput& input, const ShardSpec& spec,
    const std::vector<JobId>& shard_jobs, const std::vector<Time>* phi) {
  HARE_SPAN_ARG("shard", "shard.plan_one", "shard",
                static_cast<double>(spec.index));
  const workload::JobSet& jobs = input.jobs;
  const std::size_t local_gpus = spec.gpus.size();
  ShardOutcome outcome;
  outcome.stats.jobs = shard_jobs.size();
  outcome.stats.gpus = local_gpus;
  outcome.sequences.resize(local_gpus);
  if (shard_jobs.empty()) return outcome;

  // Re-index the shard's jobs and times: local JobId = position in the
  // ascending global-id list, local tasks map positionally (task ids are
  // round-major on both sides). The sub-jobset and sub-table live in the
  // planning thread's scratch slot, so their storage is reused across
  // every shard that thread plans, across plan calls, migration re-plans
  // and serve batches.
  WorkerScratch& scratch = scratch_slot();
  workload::JobSet& local_jobs = scratch.jobs;
  local_jobs.clear();
  for (const JobId global : shard_jobs) {
    local_jobs.add_job(jobs.job(global).spec);
  }
  profiler::TimeTable& local_times = scratch.times;
  profiler::gather_sub_table(input.times, shard_jobs, spec.gpus,
                             scratch.gather, local_times);

  core::HareConfig hare = config_.hare;
  if (phi != nullptr) {
    hare.relaxation.mode = core::RelaxMode::Fluid;
    hare.sync = core::SyncScheme::Relaxed;
  } else if (config_.lp_max_jobs > 0) {
    hare.relaxation.mode = local_jobs.job_count() <= config_.lp_max_jobs
                               ? core::RelaxMode::LpCuts
                               : core::RelaxMode::Fluid;
  }
  core::HareScheduler planner(hare);
  const sched::SchedulerInput local_input{spec.sub, local_jobs, local_times};
  sim::Schedule local;
  if (phi == nullptr) {
    local = planner.schedule(local_input);
    outcome.objective = local.predicted_objective;
  } else {
    core::HareScheduler::IncrementalState state;
    state.phi.resize(local_gpus);
    for (std::size_t lg = 0; lg < local_gpus; ++lg) {
      state.phi[lg] = (*phi)[static_cast<std::size_t>(spec.gpus[lg].value())];
    }
    std::vector<JobId> all(local_jobs.job_count());
    for (std::size_t j = 0; j < all.size(); ++j) {
      all[j] = JobId(static_cast<int>(j));
    }
    outcome.objective = planner.schedule_jobs(local_input, all, state, local);
    outcome.phi = std::move(state.phi);
  }
  outcome.stats.objective = outcome.objective;
  outcome.stats.cut_count = planner.last_relaxation().cut_count;
  outcome.stats.sep_tasks_total = planner.last_relaxation().sep_tasks_total;
  outcome.stats.sep_tasks_resorted =
      planner.last_relaxation().sep_tasks_resorted;

  // Translate to global ids while the local JobSet is still alive.
  auto global_task = [&](TaskId local_task) {
    const workload::Task& t = local_jobs.task(local_task);
    const workload::Job& g =
        jobs.job(shard_jobs[static_cast<std::size_t>(t.job.value())]);
    return g.task_at(static_cast<std::uint32_t>(t.round), t.slot);
  };
  for (std::size_t lg = 0; lg < local_gpus; ++lg) {
    outcome.sequences[lg].reserve(local.sequences[lg].size());
    for (const TaskId lt : local.sequences[lg]) {
      outcome.sequences[lg].push_back(global_task(lt));
    }
  }
  outcome.starts.reserve(local_jobs.task_count());
  for (const auto& task : local_jobs.tasks()) {
    outcome.starts.emplace_back(
        static_cast<std::size_t>(global_task(task.id).value()),
        local.predicted_start[static_cast<std::size_t>(task.id.value())]);
  }
  return outcome;
}

double HierarchicalPlanner::merge(const ShardPartition& partition,
                                  std::vector<ShardOutcome>& outcomes,
                                  sim::Schedule& schedule,
                                  std::vector<Time>* phi) {
  HARE_SPAN("shard", "shard.merge");
  double total = 0.0;
  for (std::size_t s = 0; s < partition.size(); ++s) {
    ShardOutcome& outcome = outcomes[s];
    const ShardSpec& spec = partition.shards[s];
    for (std::size_t lg = 0; lg < spec.gpus.size(); ++lg) {
      // Each global GPU lives in exactly one shard.
      const auto g = static_cast<std::size_t>(spec.gpus[lg].value());
      auto& target = schedule.sequences[g];
      auto& source = outcome.sequences[lg];
      if (target.empty()) {
        target = std::move(source);
      } else {
        target.insert(target.end(), source.begin(), source.end());
      }
      if (phi != nullptr && !outcome.phi.empty()) {
        (*phi)[g] = outcome.phi[lg];
      }
    }
    for (const auto& [task_value, start] : outcome.starts) {
      schedule.predicted_start[task_value] = start;
    }
    total += outcome.objective;
  }
  schedule.predicted_objective += total;
  return total;
}

double HierarchicalPlanner::schedule_online(const sched::SchedulerInput& input,
                                            std::span<const JobId> batch,
                                            std::vector<Time>& phi,
                                            sim::Schedule& schedule) {
  HARE_SPAN("shard", "shard.replan_online");
  static obs::Counter& replans_counter = obs::counter("shard.online_replans");
  static obs::Counter& planned_counter =
      obs::counter("shard.online_shards_planned");

  const std::size_t gpu_count = input.cluster.gpu_count();
  HARE_CHECK_MSG(gpu_count > 0, "cluster has no GPUs");
  core::check_batch(input.jobs, batch);
  if (batch.empty()) return 0.0;  // an empty list would mean every job
  HARE_CHECK_MSG(phi.size() == gpu_count, "phi size mismatch");
  HARE_CHECK_MSG(schedule.sequences.size() == gpu_count,
                 "schedule does not span the cluster");
  HARE_CHECK_MSG(schedule.predicted_start.size() >= input.jobs.task_count(),
                 "predicted_start does not span the instance");
  input.times.precompute();

  const ShardPartition partition =
      partition_cluster(input.cluster, config_.shards);
  const std::size_t shard_count = partition.size();
  const std::unique_ptr<exp::Engine> engine = make_engine();

  // The horizon a new arrival queues behind: the shard's worst standing
  // commitment on an alive GPU (a dead GPU's parked horizon would strand
  // the whole shard until it recovers).
  std::vector<double> load(shard_count, 0.0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    for (const GpuId g : partition.shards[s].gpus) {
      const Time horizon = phi[static_cast<std::size_t>(g.value())];
      if (horizon < core::kDeadHorizon) load[s] = std::max(load[s], horizon);
    }
  }
  const ShardFit fit(input, partition, &phi);
  const std::vector<std::vector<JobId>> shard_jobs =
      assign_jobs(input, fit, batch, load);

  std::vector<ShardOutcome> outcomes;
  {
    HARE_SPAN("shard", "shard.plan_shards");
    outcomes = engine->map(shard_count, [&](std::size_t s) {
      return plan_shard(input, partition.shards[s], shard_jobs[s], &phi);
    });
  }
  const double total = merge(partition, outcomes, schedule, &phi);

  replans_counter.add();
  planned_counter.add(static_cast<double>(
      std::count_if(shard_jobs.begin(), shard_jobs.end(),
                    [](const auto& list) { return !list.empty(); })));
  return total;
}

sim::Schedule HierarchicalPlanner::plan(
    const sched::SchedulerInput& input,
    const std::vector<std::size_t>* order) {
  HARE_SPAN("shard", "shard.plan");
  static obs::Gauge& count_gauge = obs::gauge("shard.count");
  static obs::Gauge& imbalance_gauge = obs::gauge("shard.imbalance");
  static obs::Gauge& savings_gauge = obs::gauge("shard.sep_resort_savings");
  static obs::Counter& plans_counter = obs::counter("shard.plans");
  static obs::Counter& migrations_counter = obs::counter("shard.migrations");

  const cluster::Cluster& cluster = input.cluster;
  const workload::JobSet& jobs = input.jobs;
  const profiler::TimeTable& times = input.times;
  HARE_CHECK_MSG(cluster.gpu_count() > 0, "cluster has no GPUs");
  HARE_CHECK_MSG(times.job_count() == jobs.job_count() &&
                     times.gpu_count() == cluster.gpu_count(),
                 "time table does not match instance");
  times.precompute();

  ShardPartition partition;
  {
    HARE_SPAN("shard", "shard.partition");
    partition = partition_cluster(cluster, config_.shards);
  }
  const std::size_t shard_count = partition.size();
  const std::unique_ptr<exp::Engine> engine = make_engine();

  last_plan_ = HierarchicalPlanInfo{};
  last_plan_.shard_count = shard_count;
  last_plan_.shards.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    last_plan_.shards[s].gpus = partition.shards[s].gpus.size();
  }

  // ---- Level 1: fluid inter-shard assignment -----------------------------
  // The fit outlives level 1: the migration pass re-evaluates fluid
  // estimates with the same arithmetic after the per-shard plans land.
  const ShardFit fit(input, partition, nullptr);
  std::vector<double> load(shard_count, 0.0);
  std::vector<std::vector<JobId>> shard_jobs =
      assign_jobs(input, fit, {}, load);
  {
    double max_load = 0.0;
    double load_sum = 0.0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      last_plan_.shards[s].jobs = shard_jobs[s].size();
      last_plan_.shards[s].est_load = load[s];
      max_load = std::max(max_load, load[s]);
      load_sum += load[s];
    }
    const double mean_load = load_sum / static_cast<double>(shard_count);
    last_plan_.imbalance = mean_load > 0.0 ? max_load / mean_load : 1.0;
  }

  // ---- Level 2: plan every shard independently ---------------------------
  auto plan_one = [&](std::size_t s) {
    return plan_shard(input, partition.shards[s], shard_jobs[s], nullptr);
  };
  std::vector<ShardOutcome> outcomes(shard_count);
  {
    HARE_SPAN("shard", "shard.plan_shards");
    if (order != nullptr) {
      // Test hook: serial planning in an arbitrary completion order; slots
      // are indexed by shard, so the merge below cannot see the order.
      HARE_CHECK_MSG(order->size() == shard_count,
                     "plan order must permute the shards");
      for (const std::size_t s : *order) outcomes[s] = plan_one(s);
    } else {
      outcomes = engine->map(shard_count, plan_one);
    }
  }

  // ---- Bounded cross-shard migration -------------------------------------
  // Jobs that straddled a shard boundary at assignment time (the donor
  // looked marginally better by the fluid estimate) can end up queued
  // behind the donor's real plan. Move a bounded number of them from the
  // max-horizon donor into receivers with fluid headroom, re-plan only the
  // affected shards, and keep the result only when the summed planned
  // objective strictly improves. All decisions derive from the barriered
  // outcomes in ascending-shard order, so serial, pooled, and
  // order-shuffled runs migrate identically.
  if (config_.migration_max_moves > 0 && shard_count > 1 &&
      jobs.job_count() > 0) {
    HARE_SPAN("shard", "shard.migrate");
    std::vector<Time> start_of(jobs.task_count(), 0.0);
    for (std::size_t s = 0; s < shard_count; ++s) {
      for (const auto& [task_value, start] : outcomes[s].starts) {
        start_of[task_value] = start;
      }
    }
    // Realized horizon per shard and realized completion per job: the
    // latest compute finish of any planned task (sync overlaps the
    // successor, matching the φ commitment rule).
    std::vector<double> horizon(shard_count, 0.0);
    std::vector<double> completion(jobs.job_count(), 0.0);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const ShardSpec& spec = partition.shards[s];
      for (std::size_t lg = 0; lg < spec.gpus.size(); ++lg) {
        const GpuId gg = spec.gpus[lg];
        for (const TaskId t : outcomes[s].sequences[lg]) {
          const JobId owner = jobs.task(t).job;
          const double finish =
              start_of[static_cast<std::size_t>(t.value())] +
              times.tc(owner, gg);
          horizon[s] = std::max(horizon[s], finish);
          completion[static_cast<std::size_t>(owner.value())] = std::max(
              completion[static_cast<std::size_t>(owner.value())], finish);
        }
      }
    }
    std::size_t donor = 0;
    for (std::size_t s = 1; s < shard_count; ++s) {
      if (horizon[s] > horizon[donor]) donor = s;  // ties stay low
    }

    // Candidate ranking: queueing delay — how far the realized plan pushed
    // the job past its own fluid best case on the donor (the estimate on
    // an empty donor). Jobs with no delay are not queued and never
    // candidates; the most-delayed jobs are exactly the straddlers the
    // level-1 mirage stranded, so they go first.
    struct Candidate {
      JobId job;
      double delay = 0.0;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(shard_jobs[donor].size());
    for (const JobId job_id : shard_jobs[donor]) {
      const double fluid_best =
          fit.estimate(jobs.job(job_id), donor, 0.0, false);
      const double delay =
          completion[static_cast<std::size_t>(job_id.value())] - fluid_best;
      if (delay <= 0.0) continue;
      candidates.push_back(Candidate{job_id, delay});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.delay != b.delay) return a.delay > b.delay;
                return a.job < b.job;
              });

    // Receiver test: the job must complete — by the fluid estimate,
    // appended on the receiver's assignment-time fluid load — strictly
    // before its *own realized completion* on the donor. Seeding `head`
    // from the level-1 fluid loads (not the realized horizons) is what
    // lets migration engage on arrival-dominated streamed instances, where
    // every realized horizon sits at the last arrival and the old
    // horizon-based test never fired. `head` advances with each tentative
    // move so one receiver cannot absorb unbounded work.
    struct Move {
      JobId job;
      std::size_t to = 0;
    };
    std::vector<Move> moves;
    std::vector<double> head = load;
    for (const Candidate& c : candidates) {
      if (moves.size() >= config_.migration_max_moves) break;
      const auto [best, best_est] = fit.best(jobs.job(c.job), head, donor, false);
      if (best == shard_count ||
          best_est >= completion[static_cast<std::size_t>(c.job.value())]) {
        continue;
      }
      head[best] = best_est;
      moves.push_back(Move{c.job, best});
    }
    common::log_debug("shard.migrate: donor ", donor, " horizon ",
                      horizon[donor], ", ", candidates.size(),
                      " delayed candidates, ", moves.size(),
                      " moves proposed");

    // An all-or-nothing bundle can overshoot: the fluid receiver estimate
    // underprices realized queueing, so moving every accepted candidate at
    // once may cost more than it frees and the objective gate rejects the
    // lot. Halving backoff keeps the highest-delay prefix — the jobs with
    // the most to gain — and retries until a bundle pays for itself (or
    // the single best move doesn't, and migration stays a no-op). The
    // extra re-plans are bounded by log2(migration_max_moves) and touch
    // only the affected shards; every attempt is deterministic, so the
    // fan-out/order bit-identity contract is untouched.
    std::size_t bundle = moves.size();
    while (bundle > 0) {
      std::vector<std::size_t> replan{donor};
      for (std::size_t m = 0; m < bundle; ++m) {
        if (std::find(replan.begin(), replan.end(), moves[m].to) ==
            replan.end()) {
          replan.push_back(moves[m].to);
        }
      }
      std::sort(replan.begin(), replan.end());

      std::vector<std::vector<JobId>> saved_jobs(replan.size());
      std::vector<ShardOutcome> saved_outcomes(replan.size());
      for (std::size_t i = 0; i < replan.size(); ++i) {
        saved_jobs[i] = shard_jobs[replan[i]];
        saved_outcomes[i] = std::move(outcomes[replan[i]]);
      }
      for (std::size_t m = 0; m < bundle; ++m) {
        auto& from = shard_jobs[donor];
        from.erase(std::find(from.begin(), from.end(), moves[m].job));
        shard_jobs[moves[m].to].push_back(moves[m].job);
      }
      for (const std::size_t s : replan) {
        std::sort(shard_jobs[s].begin(), shard_jobs[s].end());
      }

      {
        HARE_SPAN("shard", "shard.replan_pairs");
        if (order != nullptr) {
          for (const std::size_t s : replan) outcomes[s] = plan_one(s);
        } else {
          std::vector<ShardOutcome> fresh = engine->map(
              replan.size(), [&](std::size_t i) { return plan_one(replan[i]); });
          for (std::size_t i = 0; i < replan.size(); ++i) {
            outcomes[replan[i]] = std::move(fresh[i]);
          }
        }
      }

      double before = 0.0;
      double after = 0.0;
      for (const ShardOutcome& o : saved_outcomes) before += o.objective;
      for (const std::size_t s : replan) after += outcomes[s].objective;
      common::log_debug("shard.migrate: bundle of ", bundle, " across ",
                        replan.size(), " shards, objective ", before,
                        " -> ", after,
                        after < before ? " (accepted)" : " (rejected)");
      if (after < before) {
        last_plan_.migrated_jobs = bundle;
        for (const std::size_t s : replan) {
          last_plan_.shards[s].jobs = shard_jobs[s].size();
        }
        migrations_counter.add(static_cast<double>(bundle));
        break;
      }
      // The re-plan did not pay for this bundle: restore the original
      // assignment and outcomes untouched, then try the smaller prefix.
      for (std::size_t i = 0; i < replan.size(); ++i) {
        shard_jobs[replan[i]] = std::move(saved_jobs[i]);
        outcomes[replan[i]] = std::move(saved_outcomes[i]);
      }
      bundle /= 2;
    }
  }

  // ---- Merge in canonical ascending-shard order --------------------------
  sim::Schedule merged;
  merged.sequences.resize(cluster.gpu_count());
  merged.predicted_start.assign(jobs.task_count(), 0.0);
  merge(partition, outcomes, merged, nullptr);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const ShardStats& stats = outcomes[s].stats;
    last_plan_.shards[s].objective = stats.objective;
    last_plan_.shards[s].cut_count = stats.cut_count;
    last_plan_.shards[s].sep_tasks_total = stats.sep_tasks_total;
    last_plan_.shards[s].sep_tasks_resorted = stats.sep_tasks_resorted;
    last_plan_.sep_tasks_total += stats.sep_tasks_total;
    last_plan_.sep_tasks_resorted += stats.sep_tasks_resorted;
  }

  plans_counter.add();
  count_gauge.set(static_cast<double>(shard_count));
  imbalance_gauge.set(last_plan_.imbalance);
  if (last_plan_.sep_tasks_total > 0) {
    savings_gauge.set(1.0 -
                      static_cast<double>(last_plan_.sep_tasks_resorted) /
                          static_cast<double>(last_plan_.sep_tasks_total));
  }
  common::log_debug("shard: planned ", jobs.job_count(), " jobs over ",
                    shard_count, " shards, imbalance ", last_plan_.imbalance);
  return merged;
}

}  // namespace hare::shard
