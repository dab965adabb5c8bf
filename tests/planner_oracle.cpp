#include "planner_oracle.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "opt/queyranne.hpp"
#include "opt/revised_simplex.hpp"
#include "workload/feasibility.hpp"

namespace hare::testing {

namespace {

struct Candidate {
  std::size_t gpu = 0;
  Time start = 0.0;
  Time finish = kTimeInfinity;
  bool valid = false;
};

/// argmin over fitting GPUs of max(release, φ_g) + T^c_g, first strict
/// minimum in ascending GPU order.
Candidate scan_earliest_finish(const profiler::TimeTable& times, JobId job,
                               Time release, const std::vector<char>& fits,
                               const std::vector<Time>& phi) {
  Candidate chosen;
  for (std::size_t g = 0; g < phi.size(); ++g) {
    if (!fits[g]) continue;
    const Time start = std::max(release, phi[g]);
    const Time finish = start + times.tc(job, GpuId(static_cast<int>(g)));
    if (finish < chosen.finish) chosen = Candidate{g, start, finish, true};
  }
  return chosen;
}

/// argmin over fitting GPUs of φ_g, first strict minimum in GPU order.
Candidate scan_earliest_available(Time release, const std::vector<char>& fits,
                                  const std::vector<Time>& phi) {
  Candidate chosen;
  for (std::size_t g = 0; g < phi.size(); ++g) {
    if (!fits[g]) continue;
    if (!chosen.valid || phi[g] < phi[chosen.gpu]) {
      chosen = Candidate{g, 0.0, phi[g], true};
    }
  }
  if (chosen.valid) chosen.start = std::max(release, phi[chosen.gpu]);
  return chosen;
}

/// Whether the sub-problem plans `job`: a linear search of its batch.
bool active(const core::SubProblem& sub, JobId job) {
  return sub.whole() ||
         std::find(sub.jobs.begin(), sub.jobs.end(), job) != sub.jobs.end();
}

struct FluidPass {
  std::vector<Time> x_hat;
  std::vector<GpuId> y_hat;
  double objective = 0.0;
};

/// Arrival-adjusted WSPT job order, each job's rounds list-scheduled in
/// turn with earliest-finish placement.
FluidPass fluid_pass(const cluster::Cluster& cluster,
                     const workload::JobSet& jobs,
                     const profiler::TimeTable& times,
                     const core::SubProblem& sub) {
  const std::size_t gpu_count = cluster.gpu_count();
  HARE_CHECK_MSG(gpu_count > 0, "cluster has no GPUs");
  FluidPass pass;
  pass.x_hat.assign(jobs.task_count(), 0.0);
  pass.y_hat.assign(jobs.task_count(), GpuId{});

  std::vector<JobId> order;
  std::vector<double> key(jobs.job_count(), 0.0);
  for (const auto& job : jobs.jobs()) {
    if (!active(sub, job.id)) continue;
    Time best_round = kTimeInfinity;
    for (std::size_t g = 0; g < gpu_count; ++g) {
      best_round =
          std::min(best_round, times.total(job.id, GpuId(static_cast<int>(g))));
    }
    key[static_cast<std::size_t>(job.id.value())] =
        job.spec.arrival + static_cast<double>(job.rounds()) *
                               static_cast<double>(job.tasks_per_round()) *
                               best_round / job.spec.weight;
    order.push_back(job.id);
  }
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    const double ka = key[static_cast<std::size_t>(a.value())];
    const double kb = key[static_cast<std::size_t>(b.value())];
    if (ka != kb) return ka < kb;
    return a < b;
  });

  const auto fits = workload::fitting_matrix(cluster, jobs);
  std::vector<Time> phi(gpu_count, 0.0);
  for (std::size_t g = 0; g < gpu_count; ++g) {
    phi[g] = sub.initial_phi.empty() ? 0.0 : sub.initial_phi[g];
  }

  for (const JobId job_id : order) {
    const workload::Job& job = jobs.job(job_id);
    const auto& job_fits = fits[static_cast<std::size_t>(job_id.value())];
    Time release = job.spec.arrival;
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      Time barrier = release;
      for (TaskId task_id :
           jobs.round_tasks(job_id, static_cast<RoundIndex>(r))) {
        const Candidate chosen =
            scan_earliest_finish(times, job_id, release, job_fits, phi);
        HARE_CHECK_MSG(chosen.valid, "no feasible GPU for task");
        const GpuId gpu(static_cast<int>(chosen.gpu));
        const std::size_t idx = static_cast<std::size_t>(task_id.value());
        pass.x_hat[idx] = chosen.start;
        pass.y_hat[idx] = gpu;
        phi[chosen.gpu] = chosen.start + times.tc(job_id, gpu);
        barrier = std::max(barrier, chosen.start + times.total(job_id, gpu));
      }
      release = barrier;
    }
    pass.objective += job.spec.weight * release;
  }
  return pass;
}

/// H_i = x̂_i + max_m T^c_{i,m} / 2, rescanning the GPU axis per task.
std::vector<Time> middle_completion_times(const workload::JobSet& jobs,
                                          const profiler::TimeTable& times,
                                          const std::vector<Time>& x_hat) {
  std::vector<Time> h(jobs.task_count(), 0.0);
  for (const auto& task : jobs.tasks()) {
    const std::size_t idx = static_cast<std::size_t>(task.id.value());
    Time max_tc = times.tc(task.job, GpuId(0));
    for (std::size_t g = 1; g < times.gpu_count(); ++g) {
      max_tc = std::max(max_tc, times.tc(task.job, GpuId(static_cast<int>(g))));
    }
    h[idx] = x_hat[idx] + 0.5 * max_tc;
  }
  return h;
}

/// LpCuts: ŷ from the fluid pass, then the cutting-plane LP over task
/// starts x, round ends E and completions C, one warm re-solve per round.
core::RelaxationResult lp_cuts(const cluster::Cluster& cluster,
                               const workload::JobSet& jobs,
                               const profiler::TimeTable& times,
                               const core::RelaxationConfig& config,
                               LinearProgram* program) {
  const FluidPass pass = fluid_pass(cluster, jobs, times, {});
  const std::size_t task_count = jobs.task_count();
  const std::size_t gpu_count = cluster.gpu_count();

  LinearProgram lp;
  std::vector<std::size_t> x_var(task_count);
  for (std::size_t i = 0; i < task_count; ++i) {
    x_var[i] = lp.add_variable(opt::perturbation_cost(i + 1, task_count));
  }
  std::vector<std::vector<std::size_t>> e_var(jobs.job_count());
  std::vector<std::size_t> c_var(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    auto& rounds = e_var[static_cast<std::size_t>(job.id.value())];
    rounds.resize(job.rounds());
    for (auto& v : rounds) v = lp.add_variable(0.0);
    c_var[static_cast<std::size_t>(job.id.value())] =
        lp.add_variable(job.spec.weight);
  }
  // The library's cold start: the critical-path basis of the base rows
  // (later-round x_i, every E and C, and each round's round-end logicals
  // but its longest task's, lowest task on ties). This oracle checks scans
  // and separation, not the LP start, so it starts where the library does;
  // test_lp_backend checks that start against a slack-start solve.
  const std::size_t cols = lp.variable_count();
  std::vector<std::size_t> start_basis;
  for (const auto& job : jobs.jobs()) {
    const std::size_t j = static_cast<std::size_t>(job.id.value());
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      std::size_t longest_slot = 0;
      Time longest = -std::numeric_limits<Time>::infinity();
      for (TaskId id : jobs.round_tasks(job.id, static_cast<RoundIndex>(r))) {
        const std::size_t x = x_var[static_cast<std::size_t>(id.value())];
        if (r == 0) {
          lp.set_bounds(x, job.spec.arrival, LinearProgram::kInfinity);
        } else {
          lp.add_constraint({{x, 1.0}, {e_var[j][r - 1], -1.0}},
                            opt::Relation::GreaterEqual, 0.0);
          start_basis.push_back(x);
        }
        const Time total = times.total(
            job.id, pass.y_hat[static_cast<std::size_t>(id.value())]);
        if (total > longest) {
          longest = total;
          longest_slot = start_basis.size();
        }
        start_basis.push_back(cols + lp.constraint_count());
        lp.add_constraint({{e_var[j][r], 1.0}, {x, -1.0}},
                          opt::Relation::GreaterEqual, total);
      }
      start_basis[longest_slot] = e_var[j][r];
    }
    start_basis.push_back(c_var[j]);
    lp.add_constraint({{c_var[j], 1.0}, {e_var[j][job.rounds() - 1], -1.0}},
                      opt::Relation::GreaterEqual, 0.0);
  }

  std::vector<std::vector<TaskId>> machine_tasks(gpu_count);
  for (const auto& task : jobs.tasks()) {
    machine_tasks[static_cast<std::size_t>(
                      pass.y_hat[static_cast<std::size_t>(task.id.value())]
                          .value())]
        .push_back(task.id);
  }

  core::RelaxationResult result;
  result.y_hat = pass.y_hat;
  result.lp_cols = lp.variable_count();
  // The solver is fed from the row-form program, and every cut goes to
  // both, so `lp` stays the program as solved so far.
  opt::RevisedSimplex solver = lp.to_solver();
  solver.set_start_basis(std::move(start_basis));

  std::vector<double> x_snapped(task_count, 0.0);
  opt::LpSolution solution;
  auto solve = [&](std::size_t cuts_added) {
    solution = solver.solve();
    HARE_CHECK_MSG(solution.optimal(), "oracle LP is infeasible/unbounded");
    ++result.lp_solves;
    result.simplex_pivots += solver.last_stats().total();
    result.phase1_pivots += solver.last_stats().phase1;
    result.lp_rounds.push_back(core::LpRoundStats{
        cuts_added, solver.last_stats().total(), solver.last_solve_was_warm()});
    for (std::size_t i = 0; i < task_count; ++i) {
      x_snapped[i] = opt::snap_lp_value(solution.values[x_var[i]]);
    }
  };
  solve(0);

  for (std::size_t round = 0; round < config.max_cut_rounds; ++round) {
    std::size_t added = 0;
    for (std::size_t g = 0; g < gpu_count; ++g) {
      const auto& members = machine_tasks[g];
      if (members.size() < 2) continue;
      std::vector<double> t(members.size());
      std::vector<double> point(members.size());
      for (std::size_t k = 0; k < members.size(); ++k) {
        t[k] = times.tc(jobs.task(members[k]).job, GpuId(static_cast<int>(g)));
        point[k] = x_snapped[static_cast<std::size_t>(members[k].value())];
      }
      result.sep_tasks_total += members.size();
      result.sep_tasks_resorted += members.size();
      const opt::QueyranneCut cut =
          opt::separate_queyranne_cut(t, point, config.cut_tolerance);
      if (cut.subset.empty()) continue;

      // sum_{i in S} T_i x_i >= 1/2 [ (sum T)^2 - sum T^2 ].
      std::vector<std::pair<std::size_t, double>> terms;
      double t_sum = 0.0;
      double t_sq = 0.0;
      for (std::size_t k : cut.subset) {
        terms.emplace_back(
            x_var[static_cast<std::size_t>(members[k].value())], t[k]);
        t_sum += t[k];
        t_sq += t[k] * t[k];
      }
      const double rhs = 0.5 * (t_sum * t_sum - t_sq);
      lp.add_constraint(terms, opt::Relation::GreaterEqual, rhs);
      solver.add_row(terms, opt::Relation::GreaterEqual, rhs);
      ++result.cut_count;
      ++added;
    }
    if (added == 0) break;
    solve(added);
  }

  result.x_hat = std::move(x_snapped);
  for (const auto& job : jobs.jobs()) {
    result.objective +=
        job.spec.weight *
        solution.values[c_var[static_cast<std::size_t>(job.id.value())]];
  }
  result.h = middle_completion_times(jobs, times, result.x_hat);
  result.lp_rows = lp.constraint_count();
  result.lp_nonzeros = lp.nonzero_count();
  if (program) *program = std::move(lp);
  return result;
}

struct RoundProgress {
  int scheduled = 0;
  Time barrier = 0.0;
  std::vector<TaskId> waiting;
};

/// Algorithm 1 lines 5-16 over π with relaxed sync: a task whose previous
/// round is not fully placed waits on it and re-enters through a FIFO.
/// Places onto `schedule` (sized to the instance) and advances `phi`;
/// returns the planned Σ w_n C_n of the jobs π completes.
double list_schedule(const sched::SchedulerInput& input,
                     const core::HareConfig& config,
                     const std::vector<TaskId>& pi, std::vector<Time>& phi,
                     sim::Schedule& schedule) {
  const auto& jobs = input.jobs;
  const auto fits = workload::fitting_matrix(input.cluster, jobs);
  std::vector<std::vector<RoundProgress>> rounds(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    rounds[static_cast<std::size_t>(job.id.value())].resize(job.rounds());
  }
  auto progress = [&](JobId job, RoundIndex round) -> RoundProgress& {
    return rounds[static_cast<std::size_t>(job.value())]
                 [static_cast<std::size_t>(round)];
  };

  double objective = 0.0;
  std::deque<TaskId> queue;
  std::size_t cursor = 0;
  while (cursor < pi.size() || !queue.empty()) {
    TaskId task_id;
    if (!queue.empty()) {
      task_id = queue.front();
      queue.pop_front();
    } else {
      task_id = pi[cursor++];
    }
    const workload::Task& task = jobs.task(task_id);
    const workload::Job& job = jobs.job(task.job);
    const int width = static_cast<int>(job.tasks_per_round());

    Time available = job.spec.arrival;
    if (task.round > 0) {
      RoundProgress& prev = progress(task.job, task.round - 1);
      if (prev.scheduled < width) {
        prev.waiting.push_back(task_id);
        continue;
      }
      available = std::max(available, prev.barrier);
    }

    const auto& job_fits = fits[static_cast<std::size_t>(task.job.value())];
    const Candidate chosen =
        config.placement == core::Placement::EarliestAvailable
            ? scan_earliest_available(available, job_fits, phi)
            : scan_earliest_finish(input.times, task.job, available, job_fits,
                                   phi);
    HARE_CHECK_MSG(chosen.valid, "no feasible GPU for task " << task_id);
    const GpuId gpu(static_cast<int>(chosen.gpu));
    const Time tc = input.times.tc(task.job, gpu);
    schedule.sequences[chosen.gpu].push_back(task_id);
    schedule.predicted_start[static_cast<std::size_t>(task_id.value())] =
        chosen.start;
    phi[chosen.gpu] = chosen.start + tc;

    RoundProgress& round = progress(task.job, task.round);
    round.barrier = std::max(
        round.barrier, chosen.start + tc + input.times.ts(task.job, gpu));
    if (++round.scheduled == width) {
      if (static_cast<std::uint32_t>(task.round) + 1 == job.rounds()) {
        objective += job.spec.weight * round.barrier;
      }
      for (TaskId unblocked : round.waiting) queue.push_back(unblocked);
      round.waiting.clear();
    }
  }
  return objective;
}

/// Line 4: π by non-descending H, ids breaking ties.
void sort_by_h(std::vector<TaskId>& pi, const std::vector<Time>& h) {
  std::sort(pi.begin(), pi.end(), [&](TaskId a, TaskId b) {
    const Time ha = h[static_cast<std::size_t>(a.value())];
    const Time hb = h[static_cast<std::size_t>(b.value())];
    if (ha != hb) return ha < hb;
    return a < b;
  });
}

}  // namespace

core::RelaxationResult oracle_relax(const cluster::Cluster& cluster,
                                    const workload::JobSet& jobs,
                                    const profiler::TimeTable& times,
                                    const core::RelaxationConfig& config,
                                    const core::SubProblem& sub,
                                    LinearProgram* program) {
  if (config.mode == core::RelaxMode::LpCuts) {
    HARE_CHECK_MSG(sub.whole() && sub.initial_phi.empty(),
                   "LpCuts oracle plans whole instances only");
    return lp_cuts(cluster, jobs, times, config, program);
  }
  const FluidPass pass = fluid_pass(cluster, jobs, times, sub);
  core::RelaxationResult result;
  result.x_hat = pass.x_hat;
  result.y_hat = pass.y_hat;
  result.objective = pass.objective;
  result.h = middle_completion_times(jobs, times, result.x_hat);
  return result;
}

sim::Schedule oracle_schedule(const sched::SchedulerInput& input,
                              const core::HareConfig& config) {
  HARE_CHECK_MSG(config.sync == core::SyncScheme::Relaxed,
                 "the planner oracle covers relaxed sync only");
  const core::RelaxationResult relaxed = oracle_relax(
      input.cluster, input.jobs, input.times, config.relaxation);
  std::vector<TaskId> pi;
  for (const auto& task : input.jobs.tasks()) pi.push_back(task.id);
  sort_by_h(pi, relaxed.h);
  std::vector<Time> phi(input.cluster.gpu_count(), 0.0);
  sim::Schedule schedule;
  schedule.sequences.resize(input.cluster.gpu_count());
  schedule.predicted_start.assign(input.jobs.task_count(), 0.0);
  schedule.predicted_objective =
      list_schedule(input, config, pi, phi, schedule);
  return schedule;
}

double oracle_schedule_jobs(const sched::SchedulerInput& input,
                            const core::HareConfig& config,
                            const std::vector<JobId>& batch,
                            std::vector<Time>& phi, sim::Schedule& schedule) {
  HARE_CHECK_MSG(config.relaxation.mode == core::RelaxMode::Fluid &&
                     config.sync == core::SyncScheme::Relaxed,
                 "incremental oracle needs Fluid relaxation, relaxed sync");
  const std::size_t gpu_count = input.cluster.gpu_count();
  if (phi.empty()) phi.assign(gpu_count, 0.0);
  if (schedule.sequences.empty()) schedule.sequences.resize(gpu_count);
  schedule.predicted_start.resize(input.jobs.task_count(), 0.0);
  if (batch.empty()) return 0.0;
  core::SubProblem sub;
  sub.jobs = batch;
  sub.initial_phi = phi;
  const core::RelaxationResult relaxed = oracle_relax(
      input.cluster, input.jobs, input.times, config.relaxation, sub);

  std::vector<TaskId> pi;
  for (const auto& task : input.jobs.tasks()) {
    if (active(sub, task.job)) pi.push_back(task.id);
  }
  sort_by_h(pi, relaxed.h);
  const double objective = list_schedule(input, config, pi, phi, schedule);
  schedule.predicted_objective += objective;
  return objective;
}

}  // namespace hare::testing
