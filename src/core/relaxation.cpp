#include "core/relaxation.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/placement_index.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/queyranne.hpp"
#include "opt/revised_simplex.hpp"

namespace hare::core {

namespace {

/// Fluid relaxation pass: arrival-adjusted WSPT job sequencing with
/// earliest-finish-time task placement.
//
// Minimizing Σ w_n C_n wants short/heavy jobs *sequenced* ahead of long
// ones, not fair-shared — the LP relaxation produces exactly that shape in
// its x̂, so the fluid surrogate orders jobs by a_n + (minimum total
// work)/w_n and list-schedules each job's rounds in turn. Task placement
// is earliest-finish over max(release, φ_m) + T^c_{i,m}, which (a) keeps
// slow GPUs off a round's critical path when waiting for a fast one wins,
// and (b) *serializes same-round tasks onto one fast GPU* whenever
// 2·T^c_fast < T^c_slow — the relaxed scale-fixed behaviour of Fig 4(b)
// falls out of the greedy rather than being special-cased.
//
// Placement runs on the PlacementIndex the caller's scratch shares with
// the list-scheduling pass (tests/planner_oracle.cpp keeps the O(G) scan
// it must match bit for bit).
/// Runs the pass over `sub`'s jobs (every job for a whole sub-problem),
/// writing x̂, ŷ and h of exactly those jobs' tasks into `out`, whose arrays
/// must already span the task array, and returns the relaxed Σ w_n C_n of
/// those jobs. Jobs own contiguous task ranges, so nothing outside the
/// batch is visited.
double run_fluid_pass(const cluster::Cluster& cluster,
                      const workload::JobSet& jobs,
                      const profiler::TimeTable& times, const SubProblem& sub,
                      PlannerScratch& scratch, RelaxationResult& out) {
  HARE_SPAN("planner", "planner.fluid_pass");
  HARE_CHECK_MSG(cluster.gpu_count() > 0, "cluster has no GPUs");

  // The fitting matrix and the index's masked T^c rows are φ-independent:
  // build them once in the scratch and share them with the list-scheduling
  // pass.
  PlacementIndex& index =
      scratch.index_for(cluster, jobs, times, sub.initial_phi);

  double objective = 0.0;
  for (const JobId job_id : wspt_order(jobs, times, sub.jobs)) {
    const workload::Job& job = jobs.job(job_id);
    const Time half_tc = 0.5 * times.max_tc(job_id);
    Time release = job.spec.arrival;
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      Time barrier = release;
      for (TaskId task_id :
           jobs.round_tasks(job_id, static_cast<RoundIndex>(r))) {
        const PlacementIndex::Candidate chosen =
            index.earliest_finish(job_id, release);
        HARE_CHECK_MSG(chosen.valid(), "no feasible GPU for task");
        const GpuId gpu(static_cast<int>(chosen.gpu));
        const std::size_t idx = static_cast<std::size_t>(task_id.value());
        out.x_hat[idx] = chosen.start;
        out.y_hat[idx] = gpu;
        out.h[idx] = chosen.start + half_tc;
        // Sync overlaps the GPU's next task.
        index.set_phi(chosen.gpu, chosen.start + times.tc(job_id, gpu));
        barrier = std::max(barrier, chosen.start + times.total(job_id, gpu));
      }
      release = barrier;
    }
    objective += job.spec.weight * release;
  }
  return objective;
}

/// The table must match the instance; then fill its aggregate cache once,
/// so every later min/max accessor is an O(1) read.
void check_instance(const cluster::Cluster& cluster,
                    const workload::JobSet& jobs,
                    const profiler::TimeTable& times) {
  HARE_CHECK_MSG(times.job_count() == jobs.job_count() &&
                     times.gpu_count() == cluster.gpu_count(),
                 "time table does not match instance");
  times.precompute();
}

/// Grow `result`'s task-indexed arrays to span the task array; entries
/// already there are kept.
void span_tasks(const workload::JobSet& jobs, RelaxationResult& result) {
  const std::size_t task_count = jobs.task_count();
  result.x_hat.resize(task_count, 0.0);
  result.y_hat.resize(task_count, GpuId{});
  result.h.resize(task_count, 0.0);
}

}  // namespace

std::vector<JobId> wspt_order(const workload::JobSet& jobs,
                              const profiler::TimeTable& times,
                              std::span<const JobId> batch) {
  const std::size_t n = batch.empty() ? jobs.job_count() : batch.size();
  const auto id_at = [&](std::size_t i) {
    return batch.empty() ? JobId(static_cast<int>(i)) : batch[i];
  };
  std::vector<double> key(n);
  for (std::size_t i = 0; i < n; ++i) {
    const workload::Job& job = jobs.job(id_at(i));
    key[i] = job.spec.arrival + static_cast<double>(job.rounds()) *
                                    static_cast<double>(job.tasks_per_round()) *
                                    times.min_total(job.id) / job.spec.weight;
  }
  // Positions ascend with ids (the batch is strictly ascending), so the
  // position breaks key ties exactly as the id does.
  std::vector<std::uint32_t> position(n);
  std::iota(position.begin(), position.end(), 0u);
  std::sort(position.begin(), position.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (key[a] != key[b]) return key[a] < key[b];
              return a < b;
            });
  std::vector<JobId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = id_at(position[i]);
  return order;
}

void check_batch(const workload::JobSet& jobs, std::span<const JobId> batch) {
  for (std::size_t b = 0; b < batch.size(); ++b) {
    HARE_CHECK_MSG(batch[b].value() >= 0 &&
                       static_cast<std::size_t>(batch[b].value()) <
                           jobs.job_count(),
                   "batch names unknown job " << batch[b]);
    HARE_CHECK_MSG(b == 0 || batch[b - 1] < batch[b],
                   "batch job ids must be strictly ascending (job "
                       << batch[b] << " after " << batch[b - 1] << ")");
  }
}

RelaxationResult HareRelaxation::solve(const cluster::Cluster& cluster,
                                       const workload::JobSet& jobs,
                                       const profiler::TimeTable& times,
                                       const SubProblem& sub,
                                       PlannerScratch* scratch) const {
  PlannerScratch local;
  PlannerScratch& shared = scratch ? *scratch : local;
  if (config_.mode == RelaxMode::LpCuts) {
    HARE_SPAN("planner", "planner.relaxation");
    check_instance(cluster, jobs, times);
    return solve_lp_cuts(cluster, jobs, times, sub, shared);
  }
  RelaxationResult result;
  solve_batch(cluster, jobs, times, sub, shared, result);
  return result;
}

void HareRelaxation::solve_batch(const cluster::Cluster& cluster,
                                 const workload::JobSet& jobs,
                                 const profiler::TimeTable& times,
                                 const SubProblem& sub,
                                 PlannerScratch& scratch,
                                 RelaxationResult& result) const {
  HARE_SPAN("planner", "planner.relaxation");
  HARE_CHECK_MSG(config_.mode == RelaxMode::Fluid,
                 "batch relaxation requires the Fluid mode");
  check_instance(cluster, jobs, times);
  check_batch(jobs, sub.jobs);
  span_tasks(jobs, result);
  result.objective =
      run_fluid_pass(cluster, jobs, times, sub, scratch, result);
}

RelaxationResult HareRelaxation::solve_lp_cuts(
    const cluster::Cluster& cluster, const workload::JobSet& jobs,
    const profiler::TimeTable& times, const SubProblem& sub,
    PlannerScratch& scratch) const {
  HARE_SPAN("planner", "planner.lp_cuts");
  static obs::Counter& lp_solve_counter = obs::counter("planner.lp_solves");
  static obs::Counter& pivot_counter = obs::counter("planner.lp_pivots");
  static obs::Counter& factorization_counter =
      obs::counter("planner.lp_factorizations");
  static obs::Counter& cut_counter = obs::counter("planner.cuts_added");
  static obs::Counter& sep_total_counter =
      obs::counter("planner.sep_tasks_total");
  static obs::Counter& sep_resorted_counter =
      obs::counter("planner.sep_tasks_resorted");
  static obs::Gauge& rows_gauge = obs::gauge("planner.lp_rows");
  static obs::Gauge& cols_gauge = obs::gauge("planner.lp_cols");
  static obs::Gauge& nonzeros_gauge = obs::gauge("planner.lp_nonzeros");
  static obs::Gauge& density_gauge = obs::gauge("planner.lp_density");
  HARE_CHECK_MSG(sub.whole() && sub.initial_phi.empty(),
                 "LpCuts mode does not support incremental sub-problems; "
                 "use Fluid for online planning");
  // Fix ŷ with the fluid pass, then cut-plane the LP over x, round-end
  // variables E, and job completions C.
  RelaxationResult result;
  span_tasks(jobs, result);
  (void)run_fluid_pass(cluster, jobs, times, sub, scratch, result);
  const std::vector<GpuId>& y_hat = result.y_hat;
  const std::size_t task_count = jobs.task_count();
  const std::size_t gpu_count = cluster.gpu_count();

  obs::Span lp_build_span("planner", "planner.lp_build");
  opt::RevisedSimplex solver;
  // Variables: x_i per task, then E_{n,r} per round, then C_n per job. The
  // x_i carry the unique-vertex perturbation, ranked by task index.
  std::vector<std::size_t> x_var(task_count);
  for (std::size_t i = 0; i < task_count; ++i) {
    x_var[i] = solver.add_variable(opt::perturbation_cost(i + 1, task_count));
  }

  std::vector<std::vector<std::size_t>> e_var(jobs.job_count());
  std::vector<std::size_t> c_var(jobs.job_count());
  for (const auto& job : jobs.jobs()) {
    auto& rounds = e_var[static_cast<std::size_t>(job.id.value())];
    rounds.resize(job.rounds());
    for (auto& v : rounds) v = solver.add_variable(0.0);
    c_var[static_cast<std::size_t>(job.id.value())] =
        solver.add_variable(job.spec.weight);
  }

  auto assigned_total = [&](TaskId id) {
    const workload::Task& task = jobs.task(id);
    return times.total(task.job,
                       y_hat[static_cast<std::size_t>(id.value())]);
  };

  // Every base row is `a - b >= rhs` over two variables.
  const auto add_difference_row = [&](std::size_t a, std::size_t b,
                                      double rhs) {
    const opt::RevisedSimplex::Term terms[] = {{a, 1.0}, {b, -1.0}};
    solver.add_row(terms, opt::Relation::GreaterEqual, rhs);
  };

  // The cold solve starts from the critical-path basis of these base rows:
  // every task starts as early as its round allows (round-0 x_i nonbasic at
  // their arrival bound, later x_i basic) and every round ends at its
  // longest task (E_r basic in place of that task's round-end logical,
  // ties to the lowest task; the other round-end logicals basic), with C_n
  // basic. It is block triangular by round and primal feasible, so no
  // phase 1 runs, and the perturbed optimum is this vertex.
  const std::size_t cols = static_cast<std::size_t>(solver.structural_count());
  std::vector<std::size_t> start_basis;
  for (const auto& job : jobs.jobs()) {
    const std::size_t j = static_cast<std::size_t>(job.id.value());
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      const std::size_t e = e_var[j][r];
      std::size_t longest_slot = 0;
      Time longest = -std::numeric_limits<Time>::infinity();
      for (TaskId id : jobs.round_tasks(job.id, static_cast<RoundIndex>(r))) {
        const std::size_t x = x_var[static_cast<std::size_t>(id.value())];
        // (4): release — round 0 at arrival, later rounds behind E_{r-1}.
        // The round-0 release is a single-variable constraint: stated as a
        // bound it never enters the LP's row space.
        if (r == 0) {
          solver.set_bounds(x, job.spec.arrival,
                            opt::RevisedSimplex::kInfinity);
        } else {
          add_difference_row(x, e_var[j][r - 1], 0.0);
          start_basis.push_back(x);
        }
        // Round end dominates every member's completion: E >= x + T.
        const Time total = assigned_total(id);
        if (total > longest) {
          longest = total;
          longest_slot = start_basis.size();
        }
        start_basis.push_back(cols +
                              static_cast<std::size_t>(solver.row_count()));
        add_difference_row(e, x, total);
      }
      start_basis[longest_slot] = e;
    }
    // (6): C_n >= E_{n,last}.
    start_basis.push_back(c_var[j]);
    add_difference_row(c_var[j], e_var[j][job.rounds() - 1], 0.0);
  }
  solver.set_start_basis(std::move(start_basis));

  // Group tasks per machine under ŷ for separation.
  std::vector<std::vector<TaskId>> machine_tasks(gpu_count);
  for (const auto& task : jobs.tasks()) {
    machine_tasks[static_cast<std::size_t>(
                      y_hat[static_cast<std::size_t>(task.id.value())]
                          .value())]
        .push_back(task.id);
  }
  lp_build_span.end();

  // x̂ is the perturbed program's unique optimal vertex, snapped to the
  // 1e-6 grid so last-ulp differences between pivot paths vanish.
  std::vector<double> x_snapped(task_count, 0.0);
  const auto snap = [&](const opt::LpSolution& solution) {
    for (std::size_t i = 0; i < task_count; ++i) {
      x_snapped[i] = opt::snap_lp_value(solution.values[x_var[i]]);
    }
  };

  opt::LpSolution solution;
  {
    HARE_SPAN_ARG("planner", "planner.lp_solve", "round", 0);
    solution = solver.solve();
  }
  HARE_CHECK_MSG(solution.optimal(), "relaxation LP is infeasible/unbounded");
  ++result.lp_solves;
  result.simplex_pivots += solver.last_stats().total();
  result.phase1_pivots += solver.last_stats().phase1;
  result.lp_factorizations += solver.last_stats().factorizations;
  lp_solve_counter.add();
  pivot_counter.add(solver.last_stats().total());
  factorization_counter.add(solver.last_stats().factorizations);
  result.lp_rounds.push_back(LpRoundStats{0, solver.last_stats().total(),
                                          solver.last_solve_was_warm()});
  snap(solution);

  // One separation over all machines per round; cuts are appended in
  // ascending machine order. Each machine keeps its sorted order and last
  // point across rounds (the T^c vector is fixed given ŷ, so it is built
  // once) and re-sorts only the coordinates the snapped vertex moved — the
  // same cuts as a full per-round sort (tests/planner_oracle.cpp), at a
  // fraction of the sort work.
  std::vector<opt::IncrementalSeparator> separators(gpu_count);
  std::vector<std::vector<double>> machine_point(gpu_count);
  for (std::size_t g = 0; g < gpu_count; ++g) {
    const auto& members = machine_tasks[g];
    if (members.size() < 2) continue;
    std::vector<double> t(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      t[k] = times.tc(jobs.task(members[k]).job, GpuId(static_cast<int>(g)));
    }
    separators[g] = opt::IncrementalSeparator(std::move(t));
    machine_point[g].resize(members.size());
  }

  std::vector<opt::QueyranneCut> machine_cuts(gpu_count);
  std::vector<opt::RevisedSimplex::Term> terms;
  for (std::size_t round = 0; round < config_.max_cut_rounds; ++round) {
    {
      HARE_SPAN_ARG("planner", "planner.separation", "round", round);
      for (std::size_t g = 0; g < gpu_count; ++g) {
        machine_cuts[g] = opt::QueyranneCut{};
        const auto& members = machine_tasks[g];
        if (members.size() < 2) continue;
        auto& point = machine_point[g];
        for (std::size_t k = 0; k < members.size(); ++k) {
          point[k] = x_snapped[static_cast<std::size_t>(members[k].value())];
        }
        machine_cuts[g] = separators[g].separate(point, config_.cut_tolerance);
      }
    }
    // Separation-work accounting: what a full per-round re-sort would touch
    // vs. what this round actually re-sorted.
    for (std::size_t g = 0; g < gpu_count; ++g) {
      const std::size_t members = machine_tasks[g].size();
      if (members < 2) continue;
      result.sep_tasks_total += members;
      result.sep_tasks_resorted += separators[g].last_resorted();
    }

    std::size_t added = 0;
    for (std::size_t g = 0; g < gpu_count; ++g) {
      const opt::QueyranneCut& cut = machine_cuts[g];
      if (cut.subset.empty()) continue;
      const auto& members = machine_tasks[g];

      // sum_{i in S} T_i x_i >= 1/2 [ (sum T)^2 - sum T^2 ].
      terms.clear();
      double t_sum = 0.0;
      double t_sq = 0.0;
      for (std::size_t k : cut.subset) {
        const double tk = times.tc(jobs.task(members[k]).job,
                                   GpuId(static_cast<int>(g)));
        terms.emplace_back(
            x_var[static_cast<std::size_t>(members[k].value())], tk);
        t_sum += tk;
        t_sq += tk * tk;
      }
      const double cut_rhs = 0.5 * (t_sum * t_sum - t_sq);
      solver.add_row(terms, opt::Relation::GreaterEqual, cut_rhs);
      ++result.cut_count;
      ++added;
    }
    if (added == 0) break;
    cut_counter.add(added);
    {
      HARE_SPAN_ARG("planner", "planner.lp_solve", "round", round + 1);
      solution = solver.solve();
    }
    HARE_CHECK_MSG(solution.optimal(), "cut LP became infeasible");
    ++result.lp_solves;
    result.simplex_pivots += solver.last_stats().total();
    result.phase1_pivots += solver.last_stats().phase1;
    result.lp_factorizations += solver.last_stats().factorizations;
    lp_solve_counter.add();
    pivot_counter.add(solver.last_stats().total());
    factorization_counter.add(solver.last_stats().factorizations);
    result.lp_rounds.push_back(LpRoundStats{added, solver.last_stats().total(),
                                            solver.last_solve_was_warm()});
    snap(solution);
  }

  result.x_hat = std::move(x_snapped);
  for (const auto& job : jobs.jobs()) {
    result.objective +=
        job.spec.weight *
        solution.values[c_var[static_cast<std::size_t>(job.id.value())]];
  }
  for (const auto& task : jobs.tasks()) {
    const std::size_t idx = static_cast<std::size_t>(task.id.value());
    result.h[idx] = result.x_hat[idx] + 0.5 * times.max_tc(task.job);
  }

  result.lp_rows = static_cast<std::size_t>(solver.row_count());
  result.lp_cols = cols;
  result.lp_nonzeros = solver.nonzeros() - result.lp_rows;
  rows_gauge.set(static_cast<double>(result.lp_rows));
  cols_gauge.set(static_cast<double>(result.lp_cols));
  nonzeros_gauge.set(static_cast<double>(result.lp_nonzeros));
  density_gauge.set(
      result.lp_rows * result.lp_cols == 0
          ? 0.0
          : static_cast<double>(result.lp_nonzeros) /
                (static_cast<double>(result.lp_rows) *
                 static_cast<double>(result.lp_cols)));
  sep_total_counter.add(result.sep_tasks_total);
  sep_resorted_counter.add(result.sep_tasks_resorted);

  common::log_debug("planner: lp_cuts converged, ", result.lp_solves,
                    " solves, ", result.cut_count, " cuts, ",
                    result.simplex_pivots, " pivots");
  return result;
}

}  // namespace hare::core
