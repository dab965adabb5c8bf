#include "serve/serve_service.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/simplex.hpp"

namespace hare::serve {

void relax_batch(const workload::JobSet& jobs, const profiler::TimeTable& times,
                 const std::vector<JobId>& batch, Time phi_floor,
                 std::size_t gpus_alive, std::vector<Time>& h) {
  HARE_CHECK_MSG(h.size() >= jobs.task_count(),
                 "h must span the task array before relax_batch");
  std::size_t block_vars = 0;
  for (JobId id : batch) block_vars += jobs.job(id).rounds() + 1;

  // Release vertex: the cut's load there, its right-hand side, and the job
  // whose whole-chain shift buys cut load cheapest (least c/g, with the
  // perturbation in c settling equal w/g ratios as it does in the LP).
  double load = 0.0;
  double sum_p = 0.0;
  double sum_p2 = 0.0;
  std::size_t pos = 0;
  std::size_t shifted = 0;
  double shifted_cost = 0.0;
  double shifted_gain = 0.0;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const workload::Job& job = jobs.job(batch[b]);
    const Time t_min = times.min_total(batch[b]);
    const double tpr = static_cast<double>(job.tasks_per_round());
    const double rounds = static_cast<double>(job.rounds());
    const Time release = std::max(job.spec.arrival, phi_floor);
    double cost = job.spec.weight;
    for (std::uint32_t k = 0; k <= job.rounds(); ++k) {
      cost += opt::perturbation_cost(++pos, block_vars);
    }
    const double gain = rounds * tpr * t_min;
    load += gain * (release + 0.5 * (rounds - 1.0) * t_min);
    sum_p += gain;
    sum_p2 += gain * t_min;
    if (b == 0 || cost * shifted_gain < shifted_cost * gain) {
      shifted = b;
      shifted_cost = cost;
      shifted_gain = gain;
    }
  }
  const double capacity =
      static_cast<double>(std::max<std::size_t>(gpus_alive, 1));
  const double rhs = 0.5 * (sum_p * sum_p - sum_p2) / capacity;
  // A cut violated at the release vertex is met by that one job's chain.
  const Time shift = load < rhs ? (rhs - load) / shifted_gain : 0.0;

  // Hand off: h_i = x_{j,r} + max_m T^c_{j,m} / 2 for every task of the
  // block, snapped to the perturbation's 1e-6 grid.
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const workload::Job& job = jobs.job(batch[b]);
    const Time t_min = times.min_total(batch[b]);
    const Time release = std::max(job.spec.arrival, phi_floor);
    const Time offset = b == shifted ? shift : 0.0;
    const Time half_tc = times.max_tc(batch[b]) / 2.0;
    const std::uint32_t tpr = job.tasks_per_round();
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      const Time mid =
          opt::snap_lp_value(release + static_cast<double>(r) * t_min +
                             offset) +
          half_tc;
      for (std::uint32_t k = 0; k < tpr; ++k) {
        h[static_cast<std::size_t>(job.task_at(r, k).value())] = mid;
      }
    }
  }
}

ServeService::ServeService(const cluster::Cluster& cluster,
                           workload::PerfModel perf, ServeConfig config)
    : cluster_(cluster),
      perf_(perf),
      config_(config),
      classes_(cluster),
      times_(0, classes_.class_map()),
      flat_([&] {
        core::HareConfig hare = config.hare;
        hare.relaxation.mode = core::RelaxMode::Fluid;
        hare.sync = core::SyncScheme::Relaxed;
        return hare;
      }()) {
  HARE_CHECK_MSG(cluster.gpu_count() > 0, "serving needs a non-empty cluster");
  schedule_.sequences.resize(cluster.gpu_count());
  state_.phi.assign(cluster.gpu_count(), 0.0);
  saved_phi_.assign(cluster.gpu_count(), 0.0);
  alive_.assign(cluster.gpu_count(), 1);
  alive_count_ = cluster.gpu_count();
  if (config_.shard_min_batch_jobs > 0) {
    sharded_.emplace(config_.shard);
  }
}

JobId ServeService::admit(workload::JobSpec spec, AdmissionBatcher& batcher) {
  const Time arrival = spec.arrival;
  const JobId id = jobs_.add_job(std::move(spec));
  const std::size_t j = static_cast<std::size_t>(id.value());
  times_.append_job();
  const workload::Job& job = jobs_.job(id);
  const auto [shape, first] = row_of_shape_.try_emplace(
      {static_cast<int>(job.spec.model), job.effective_batch_size(),
       job.spec.batches_per_task});
  if (first) {
    std::vector<Time> tc(classes_.size()), ts(classes_.size());
    profiler::exact_row(perf_, classes_, job.spec.model,
                        job.effective_batch_size(), job.spec.batches_per_task,
                        tc.data(), ts.data());
    shape->second = times_.intern_row(tc.data(), ts.data());
  }
  times_.bind_row(id, shape->second);
  canceled_.resize(j + 1, 0);
  planned_.resize(j + 1, 0);
  continued_.resize(j + 1, 0);
  if (j < precanceled_.size() && precanceled_[j]) {
    canceled_[j] = 1;
    ++report_.canceled;
    return id;  // never joins a batch
  }
  batcher.admit(id, arrival);
  return id;
}

void ServeService::plan_batch(const std::vector<JobId>& plannable) {
  static auto& latency_hist =
      obs::histogram("serve.replan_latency", obs::latency_bounds_us());
  static auto& batch_hist = obs::histogram(
      "serve.batch_size",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});
  static auto& replans = obs::counter("serve.replans");
  static auto& lp_batches = obs::counter("serve.lp_batches");
  static auto& greedy_fallbacks = obs::counter("serve.greedy_fallbacks");
  const auto started = std::chrono::steady_clock::now();

  const sched::SchedulerInput input{cluster_, jobs_, times_};

  if (config_.replan_budget > 0 && replans_spent_ >= config_.replan_budget) {
    // Budget exhausted: list-schedule the batch in arrival order through
    // the same placement machinery (greedy earliest-finish).
    for (JobId id : plannable) {
      const workload::Job& job = jobs_.job(id);
      for (TaskId task : job.task_ids()) {
        h_[static_cast<std::size_t>(task.value())] = job.spec.arrival;
      }
    }
    flat_.schedule_jobs_with_h(input, plannable, h_, state_, schedule_);
    ++report_.greedy_batches;
    greedy_fallbacks.add();
  } else {
    if (config_.lp_max_batch_jobs > 0 &&
        plannable.size() <= config_.lp_max_batch_jobs) {
      Time phi_floor = kTimeInfinity;
      for (std::size_t g = 0; g < alive_.size(); ++g) {
        if (alive_[g]) phi_floor = std::min(phi_floor, state_.phi[g]);
      }
      relax_batch(jobs_, times_, plannable, phi_floor, alive_count_, h_);
      ++report_.lp.batches;
      ++report_.lp.cold_solves;
      flat_.schedule_jobs_with_h(input, plannable, h_, state_, schedule_);
      ++report_.lp_batches;
      lp_batches.add();
    } else if (sharded_ && plannable.size() >= config_.shard_min_batch_jobs) {
      sharded_->schedule_online(input, plannable, state_.phi, schedule_);
      ++report_.sharded_batches;
    } else {
      flat_.schedule_jobs(input, plannable, state_, schedule_);
      ++report_.flat_batches;
    }
    ++replans_spent_;
  }

  for (JobId id : plannable) {
    planned_[static_cast<std::size_t>(id.value())] = 1;
  }
  report_.planned_jobs += plannable.size();
  ++report_.batches;
  report_.max_batch_jobs = std::max(report_.max_batch_jobs, plannable.size());
  replans.add();
  batch_hist.record(static_cast<double>(plannable.size()));
  latency_hist.record(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - started)
          .count());
}

void ServeService::flush_batch(AdmissionBatcher& batcher) {
  // With no GPU alive the open batch is held until the first recovery.
  if (batcher.empty() || alive_count_ == 0) return;
  const std::vector<JobId> batch = batcher.take();
  std::vector<JobId> plannable;
  plannable.reserve(batch.size());
  for (JobId id : batch) {
    if (!canceled_[static_cast<std::size_t>(id.value())]) {
      plannable.push_back(id);
    }
  }
  if (plannable.empty()) return;
  schedule_.predicted_start.resize(jobs_.task_count(), 0.0);
  h_.resize(jobs_.task_count(), 0.0);
  plan_batch(plannable);
}

void ServeService::apply_event(const fault::FaultEvent& event, GpuId gpu,
                               AdmissionBatcher& batcher) {
  switch (event.kind) {
    case fault::FaultKind::MachineFail:
    case fault::FaultKind::GpuFail: {
      ++report_.fault_events;
      const auto g = static_cast<std::size_t>(gpu.value());
      if (!alive_[g]) break;
      alive_[g] = 0;
      --alive_count_;
      saved_phi_[g] = state_.phi[g];
      state_.phi[g] = core::kDeadHorizon;
      // Commitments on the dead GPU from the failure instant onward are
      // displaced; each affected job's remaining rounds re-enter as a
      // continuation job arriving now. std::map keeps the continuation
      // admission order deterministic (ascending original JobId).
      std::map<JobId, RoundIndex> first_displaced_round;
      for (TaskId tid : schedule_.sequences[g]) {
        const auto t = static_cast<std::size_t>(tid.value());
        if (schedule_.predicted_start[t] < event.time) continue;
        ++report_.displaced_tasks;
        const workload::Task& task = jobs_.task(tid);
        auto [it, inserted] =
            first_displaced_round.emplace(task.job, task.round);
        if (!inserted) it->second = std::min(it->second, task.round);
      }
      for (const auto& [job_id, first_round] : first_displaced_round) {
        const auto j = static_cast<std::size_t>(job_id.value());
        if (canceled_[j] || continued_[j]) continue;
        continued_[j] = 1;
        const workload::Job& job = jobs_.job(job_id);
        workload::JobSpec spec = job.spec;
        spec.arrival = event.time;
        spec.rounds = job.rounds() - static_cast<std::uint32_t>(first_round);
        spec.name += "+r" + std::to_string(first_round);
        ++report_.continuations;
        admit(std::move(spec), batcher);
      }
      break;
    }
    case fault::FaultKind::MachineRecover:
    case fault::FaultKind::GpuRecover: {
      ++report_.fault_events;
      const auto g = static_cast<std::size_t>(gpu.value());
      if (alive_[g]) break;
      alive_[g] = 1;
      ++alive_count_;
      state_.phi[g] = std::max(event.time, saved_phi_[g]);
      break;
    }
    case fault::FaultKind::JobCancel: {
      const auto j = static_cast<std::size_t>(event.job.value());
      if (j >= jobs_.job_count()) {
        // Cancel outruns the arrival: drop the job at admission time.
        if (j >= precanceled_.size()) precanceled_.resize(j + 1, 0);
        precanceled_[j] = 1;
      } else if (!planned_[j] && !canceled_[j]) {
        canceled_[j] = 1;
        ++report_.canceled;
      } else {
        ++report_.late_cancels;
      }
      break;
    }
    case fault::FaultKind::JobComplete: {
      ++report_.completions;
      const auto j = static_cast<std::size_t>(event.job.value());
      if (j >= jobs_.job_count()) break;  // completion outran the arrival
      // Early finish: committed tasks of the job that have not started by
      // the completion instant will never run, so the horizon they pinned
      // is released. Only contiguous tails can be freed — commitments are
      // never reordered, so a buried task cannot shrink phi without
      // revising every commitment after it. phi rolls back to the finish
      // (start + tc; sync overlaps) of the surviving tail task.
      for (std::size_t g = 0; g < schedule_.sequences.size(); ++g) {
        if (!alive_[g]) continue;
        auto& seq = schedule_.sequences[g];
        bool popped = false;
        while (!seq.empty()) {
          const TaskId tid = seq.back();
          const workload::Task& task = jobs_.task(tid);
          if (task.job != event.job) break;
          if (schedule_.predicted_start[static_cast<std::size_t>(
                  tid.value())] < event.time) {
            break;  // already running at completion time; leave committed
          }
          seq.pop_back();
          popped = true;
          ++report_.released_tasks;
        }
        if (!popped) continue;
        if (seq.empty()) {
          state_.phi[g] = 0.0;
        } else {
          const TaskId tail = seq.back();
          state_.phi[g] =
              schedule_.predicted_start[static_cast<std::size_t>(
                  tail.value())] +
              times_.tc(jobs_.task(tail).job, GpuId(static_cast<int>(g)));
        }
      }
      break;
    }
    case fault::FaultKind::StragglerStart:
    case fault::FaultKind::StragglerEnd:
      break;  // skipped by serve(): no slowdown notion at planning level
  }
}

template <typename NextSpec>
ServeReport ServeService::serve(NextSpec&& next_spec,
                                const fault::FaultPlan& faults) {
  HARE_CHECK_MSG(!ran_, "a ServeService instance serves one stream");
  ran_ = true;
  HARE_SPAN("serve", "serve.run");
  static auto& events_counter = obs::counter("serve.events");
  static auto& arrivals_counter = obs::counter("serve.arrivals");

  const std::vector<fault::FaultEvent>& scripted = faults.events;
  const auto straggler = [](const fault::FaultEvent& event) {
    return event.kind == fault::FaultKind::StragglerStart ||
           event.kind == fault::FaultKind::StragglerEnd;
  };
  AdmissionBatcher batcher(config_.tick);
  std::size_t next_event = 0;
  std::optional<workload::JobSpec> pending = next_spec();
  while (true) {
    while (next_event < scripted.size() && straggler(scripted[next_event])) {
      ++next_event;
    }
    if (next_event == scripted.size() && !pending.has_value()) break;
    // Scripted events win ties against an arrival with the same timestamp.
    const bool take_scripted =
        next_event < scripted.size() &&
        (!pending.has_value() || scripted[next_event].time <= pending->arrival);
    if (take_scripted) {
      // Machine events apply one GPU at a time, in the machine's GPU order.
      // Each GPU failure or job event first closes the open batch (a
      // failure must displace against a fully flushed plan); a recovery
      // closes it once, before its first GPU.
      const fault::FaultEvent& event = scripted[next_event++];
      const bool machine = event.kind == fault::FaultKind::MachineFail ||
                           event.kind == fault::FaultKind::MachineRecover;
      const bool recovery = event.kind == fault::FaultKind::MachineRecover ||
                            event.kind == fault::FaultKind::GpuRecover;
      const std::span<const GpuId> gpus =
          machine ? std::span<const GpuId>(cluster_.machine(event.machine).gpus)
                  : std::span<const GpuId>(&event.gpu, 1);
      const std::size_t alive_before = alive_count_;
      for (std::size_t k = 0; k < gpus.size(); ++k) {
        events_counter.add();
        if (k == 0 || !recovery) flush_batch(batcher);
        apply_event(event, gpus[k], batcher);
      }
      // A batch held while no GPU was alive is planned at the first
      // recovery, over every GPU it brought back.
      if (alive_before == 0) flush_batch(batcher);
    } else {
      events_counter.add();
      if (batcher.should_flush(pending->arrival)) flush_batch(batcher);
      ++report_.arrivals;
      arrivals_counter.add();
      admit(std::move(*pending), batcher);
      pending = next_spec();
    }
  }
  flush_batch(batcher);
  // Jobs still held when the stream ends never found a live GPU.
  for (JobId id : batcher.take()) {
    if (!canceled_[static_cast<std::size_t>(id.value())]) {
      ++report_.unplanned_jobs;
    }
  }

  report_.objective = schedule_.predicted_objective;
  report_.schedule = std::move(schedule_);
  return std::move(report_);
}

ServeReport ServeService::run(workload::TraceStream& stream,
                              const fault::FaultPlan& faults) {
  return serve(
      [&stream]() -> std::optional<workload::JobSpec> {
        if (stream.exhausted()) return std::nullopt;
        return stream.next();
      },
      faults);
}

ServeReport ServeService::run(const std::vector<workload::JobSpec>& arrivals,
                              const fault::FaultPlan& faults) {
  std::size_t i = 0;
  return serve(
      [&arrivals, &i]() -> std::optional<workload::JobSpec> {
        if (i >= arrivals.size()) return std::nullopt;
        return arrivals[i++];
      },
      faults);
}

}  // namespace hare::serve
