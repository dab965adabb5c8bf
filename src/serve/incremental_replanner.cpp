#include "serve/incremental_replanner.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hare::serve {

void append_batch_block(opt::LinearProgram& lp, const workload::JobSet& jobs,
                        const profiler::TimeTable& times,
                        const std::vector<JobId>& batch, Time phi_floor,
                        std::size_t gpus_alive,
                        std::vector<std::vector<std::size_t>>& round_vars) {
  // Count the block so every variable's perturbation rank is known up
  // front (rounds + completion per job).
  std::size_t block_vars = 0;
  for (JobId id : batch) block_vars += jobs.job(id).rounds() + 1;

  std::size_t pos = 0;
  const auto add_var = [&](double cost, double lower) {
    const std::size_t var =
        lp.add_variable(cost + opt::perturbation_cost(++pos, block_vars));
    lp.set_bounds(var, lower, opt::LinearProgram::kInfinity);
    return var;
  };

  std::vector<std::pair<std::size_t, double>> cut;
  round_vars.assign(batch.size(), {});
  double sum_p = 0.0;
  double sum_p2 = 0.0;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const workload::Job& job = jobs.job(batch[b]);
    const Time t_min = times.min_total(batch[b]);
    const double tpr = static_cast<double>(job.tasks_per_round());
    const Time release = std::max(job.spec.arrival, phi_floor);
    std::size_t prev = 0;
    auto& rounds = round_vars[b];
    rounds.reserve(job.rounds());
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      const std::size_t x =
          add_var(0.0, release + static_cast<double>(r) * t_min);
      if (r > 0) {
        lp.add_constraint({{x, 1.0}, {prev, -1.0}},
                          opt::Relation::GreaterEqual, t_min);
      }
      cut.emplace_back(x, tpr * t_min);
      rounds.push_back(x);
      prev = x;
    }
    const std::size_t completion =
        add_var(job.spec.weight,
                release + static_cast<double>(job.rounds()) * t_min);
    lp.add_constraint({{completion, 1.0}, {prev, -1.0}},
                      opt::Relation::GreaterEqual, t_min);
    sum_p += static_cast<double>(job.rounds()) * tpr * t_min;
    sum_p2 += static_cast<double>(job.rounds()) * tpr * t_min * t_min;
  }
  const double capacity = static_cast<double>(std::max<std::size_t>(
      gpus_alive, 1));
  lp.add_constraint(cut, opt::Relation::GreaterEqual,
                    0.5 * (sum_p * sum_p - sum_p2) / capacity);
}

bool IncrementalReplanner::relax_batch(const workload::JobSet& jobs,
                                       const profiler::TimeTable& times,
                                       const std::vector<JobId>& batch,
                                       Time phi_floor, std::size_t gpus_alive,
                                       std::vector<Time>& h) {
  if (batch.empty()) return true;
  HARE_CHECK_MSG(h.size() >= jobs.task_count(),
                 "h must span the task array before relax_batch");

  opt::LinearProgram lp;
  std::vector<std::vector<std::size_t>> round_vars;
  append_batch_block(lp, jobs, times, batch, phi_floor, gpus_alive,
                     round_vars);
  opt::LpIterationStats pivots;
  const opt::LpSolution solution = lp.solve(100000, &pivots);
  ++stats_.batches;
  ++stats_.cold_solves;
  stats_.cold_pivots += pivots.total();
  if (!solution.optimal()) return false;

  // Hand off: h_i = x_{j,r} + max_m T^c_{j,m} / 2 for every task of the
  // block, snapped to the perturbation's 1e-6 grid.
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const workload::Job& job = jobs.job(batch[b]);
    const Time half_tc = times.max_tc(batch[b]) / 2.0;
    const std::uint32_t tpr = job.tasks_per_round();
    for (std::uint32_t r = 0; r < job.rounds(); ++r) {
      const Time mid =
          opt::snap_lp_value(solution.values[round_vars[b][r]]) + half_tc;
      for (std::uint32_t k = 0; k < tpr; ++k) {
        const TaskId task = job.task_at(r, k);
        h[static_cast<std::size_t>(task.value())] = mid;
      }
    }
  }
  return true;
}

}  // namespace hare::serve
