// The LP engine against an independent oracle, and the unique-vertex
// contract of the LpCuts relaxation.
//
// opt::RevisedSimplex (behind LinearProgram::solve) is checked against
// testing::oracle_solve, a cold two-phase dense tableau that shares no code
// with it:
//  (a) on randomized LPs (feasible, infeasible, unbounded, degenerate)
//      both report the same status and, when optimal, objectives within
//      1e-6;
//  (b) bounded variables (shifted lower bounds, finite uppers, fixed
//      variables) round-trip identically through both;
//  (c) the Beale cycling LP terminates at the optimum on both — the
//      stall-triggered Bland's-rule regression test;
//  (d) a warm-started cutting-plane loop (IncrementalLpSolver) agrees with
//      cold solves and the oracle round by round;
//  (e) the LpCuts relaxation's warm cut loop reports the same snapped
//      vertex as a cold solve of its final perturbed program (and as the
//      oracle), and its objective is the unperturbed optimum;
//  (f) every planner engine configuration yields the same LP shape and
//      the same schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "core/hare.hpp"
#include "lp_oracle.hpp"
#include "opt/simplex.hpp"
#include "planner_oracle.hpp"
#include "test_util.hpp"

namespace hare {
namespace {

using opt::LinearProgram;
using opt::LpSolution;
using opt::LpStatus;
using opt::Relation;

// --------------------------------------------------- status + objective ----

void expect_matches_oracle(const LinearProgram& lp,
                           double value_tolerance = 0.0) {
  const LpSolution oracle = testing::oracle_solve(lp);
  const LpSolution solved = lp.solve();

  ASSERT_EQ(oracle.status, solved.status)
      << "oracle=" << static_cast<int>(oracle.status)
      << " solver=" << static_cast<int>(solved.status);
  if (oracle.status != LpStatus::Optimal) return;

  EXPECT_NEAR(oracle.objective, solved.objective,
              1e-6 * std::max(1.0, std::abs(oracle.objective)));
  if (value_tolerance > 0.0) {
    ASSERT_EQ(oracle.values.size(), solved.values.size());
    for (std::size_t j = 0; j < oracle.values.size(); ++j) {
      EXPECT_NEAR(oracle.values[j], solved.values[j], value_tolerance)
          << "variable " << j;
    }
  }
}

// Random LP with a planted feasible point: rhs values are derived from a
// random x* >= 0 so the program is never infeasible by construction (it may
// still be unbounded, which solver and oracle must then report).
LinearProgram make_planted_lp(std::uint64_t seed, std::size_t vars,
                              std::size_t rows) {
  common::Rng rng(seed);
  LinearProgram lp;
  std::vector<double> x_star(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    x_star[j] = rng.uniform(0.0, 5.0);
    lp.add_variable(rng.uniform(-2.0, 2.0));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    double activity = 0.0;
    for (std::size_t j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.6)) continue;
      const double coeff = rng.uniform(-3.0, 3.0);
      terms.push_back({j, coeff});
      activity += coeff * x_star[j];
    }
    if (terms.empty()) terms.push_back({rng.uniform_int(vars), 1.0});
    const std::uint64_t kind = rng.uniform_int(std::uint64_t{3});
    if (kind == 0) {
      lp.add_constraint(terms, Relation::LessEqual,
                        activity + rng.uniform(0.0, 4.0));
    } else if (kind == 1) {
      lp.add_constraint(terms, Relation::GreaterEqual,
                        activity - rng.uniform(0.0, 4.0));
    } else {
      lp.add_constraint(terms, Relation::Equal, activity);
    }
  }
  return lp;
}

class LpBackendRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpBackendRandomTest, PlantedFeasibleAgree) {
  // Boxed objectives keep most of these bounded; either way solver and
  // oracle must agree on status and objective.
  for (const auto& [vars, rows] : {std::pair<std::size_t, std::size_t>{4, 3},
                                  {6, 8},
                                  {10, 14},
                                  {16, 20}}) {
    SCOPED_TRACE(::testing::Message() << "vars=" << vars << " rows=" << rows);
    LinearProgram lp = make_planted_lp(GetParam() * 1000 + vars, vars, rows);
    // Cap every variable so the planted programs are always bounded; this
    // also exercises finite upper bounds on both solvers.
    for (std::size_t j = 0; j < lp.variable_count(); ++j) {
      lp.set_bounds(j, 0.0, 50.0);
    }
    expect_matches_oracle(lp);
  }
}

TEST_P(LpBackendRandomTest, UncappedStatusesAgree) {
  // Without the caps some instances are unbounded: statuses must match.
  LinearProgram lp = make_planted_lp(GetParam() * 7919, 8, 6);
  const LpSolution oracle = testing::oracle_solve(lp);
  const LpSolution solved = lp.solve();
  ASSERT_EQ(oracle.status, solved.status);
  if (oracle.status == LpStatus::Optimal) {
    EXPECT_NEAR(oracle.objective, solved.objective,
                1e-6 * std::max(1.0, std::abs(oracle.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpBackendRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(LpBackend, InfeasibleAgree) {
  LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEqual, 2.0);
  EXPECT_EQ(testing::oracle_solve(lp).status, LpStatus::Infeasible);
  EXPECT_EQ(lp.solve().status, LpStatus::Infeasible);
}

TEST(LpBackend, InfeasibleBoundsVsRowAgree) {
  // The row demands x >= 3 but the bound caps x at 2.
  LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  lp.set_bounds(x, 0.0, 2.0);
  lp.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 3.0);
  EXPECT_EQ(testing::oracle_solve(lp).status, LpStatus::Infeasible);
  EXPECT_EQ(lp.solve().status, LpStatus::Infeasible);
}

TEST(LpBackend, UnboundedAgree) {
  // min -x - y with only a coupling floor: both can grow without limit.
  LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-1.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::LessEqual, 1.0);
  EXPECT_EQ(testing::oracle_solve(lp).status, LpStatus::Unbounded);
  EXPECT_EQ(lp.solve().status, LpStatus::Unbounded);
}

// ------------------------------------------------------ bounded variables --

TEST(LpBackend, ShiftedLowerBounds) {
  // min x + y with x >= 3, y >= 1.5: optimum sits on the lower bounds.
  LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.set_bounds(x, 3.0, LinearProgram::kInfinity);
  lp.set_bounds(y, 1.5, LinearProgram::kInfinity);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 10.0);
  expect_matches_oracle(lp, 1e-7);
  const LpSolution sol = lp.solve();
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[x], 3.0, 1e-9);
  EXPECT_NEAR(sol.values[y], 1.5, 1e-9);
  EXPECT_NEAR(sol.objective, 4.5, 1e-9);
}

TEST(LpBackend, FiniteUpperBoundsBindAtOptimum) {
  // min -x - 2y, x <= 2, y <= 3, x + y <= 4: optimum x=1, y=3, obj=-7.
  LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-2.0);
  lp.set_bounds(x, 0.0, 2.0);
  lp.set_bounds(y, 0.0, 3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 4.0);
  expect_matches_oracle(lp, 1e-7);
  const LpSolution sol = lp.solve();
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -7.0, 1e-9);
  EXPECT_NEAR(sol.values[x], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[y], 3.0, 1e-9);
}

TEST(LpBackend, FixedVariables) {
  // x fixed at 2 participates in the rows but never pivots.
  LinearProgram lp;
  const auto x = lp.add_variable(5.0);
  const auto y = lp.add_variable(1.0);
  lp.set_bounds(x, 2.0, 2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEqual, 6.0);
  expect_matches_oracle(lp, 1e-7);
  const LpSolution sol = lp.solve();
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[x], 2.0, 1e-12);
  EXPECT_NEAR(sol.values[y], 4.0, 1e-9);
  EXPECT_NEAR(sol.objective, 14.0, 1e-9);
}

TEST(LpBackend, ReleaseStyleBoundsMatchExplicitRows) {
  // The relaxation states x_i >= release_i as bounds; an equivalent program
  // with explicit >= rows must reach the same objective on both solvers.
  common::Rng rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t vars = 5;
    std::vector<double> release(vars);
    for (auto& r : release) r = rng.uniform(0.0, 3.0);

    LinearProgram bounded;
    LinearProgram rowed;
    for (std::size_t j = 0; j < vars; ++j) {
      const double c = rng.uniform(0.5, 2.0);
      bounded.add_variable(c);
      rowed.add_variable(c);
      bounded.set_bounds(j, release[j], LinearProgram::kInfinity);
      rowed.add_constraint({{j, 1.0}}, Relation::GreaterEqual, release[j]);
    }
    // A few coupling rows keep the optimum off the trivial corner.
    for (int i = 0; i < 3; ++i) {
      std::vector<std::pair<std::size_t, double>> terms;
      double rhs = 0.0;
      for (std::size_t j = 0; j < vars; ++j) {
        const double coeff = rng.uniform(0.2, 1.0);
        terms.push_back({j, coeff});
        rhs += coeff * (release[j] + rng.uniform(0.0, 1.0));
      }
      bounded.add_constraint(terms, Relation::GreaterEqual, rhs);
      rowed.add_constraint(terms, Relation::GreaterEqual, rhs);
    }

    for (const bool oracle : {true, false}) {
      const LpSolution b =
          oracle ? testing::oracle_solve(bounded) : bounded.solve();
      const LpSolution r =
          oracle ? testing::oracle_solve(rowed) : rowed.solve();
      ASSERT_TRUE(b.optimal());
      ASSERT_TRUE(r.optimal());
      EXPECT_NEAR(b.objective, r.objective,
                  1e-6 * std::max(1.0, std::abs(r.objective)));
    }
  }
}

// --------------------------------------------------- degeneracy / cycling --

TEST(LpBackend, BealeCyclingLpTerminates) {
  // Beale's classic cycling example: textbook Dantzig pricing cycles
  // forever. The stall-triggered switch to Bland's rule (which replaced the
  // old big-M drive) must terminate solver and oracle at the optimum -0.05.
  LinearProgram lp;
  const auto x1 = lp.add_variable(-0.75);
  const auto x2 = lp.add_variable(150.0);
  const auto x3 = lp.add_variable(-0.02);
  const auto x4 = lp.add_variable(6.0);
  lp.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                    Relation::LessEqual, 0.0);
  lp.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                    Relation::LessEqual, 0.0);
  lp.add_constraint({{x3, 1.0}}, Relation::LessEqual, 1.0);
  for (const bool oracle : {true, false}) {
    SCOPED_TRACE(oracle ? "oracle" : "revised simplex");
    const LpSolution sol = oracle ? testing::oracle_solve(lp) : lp.solve();
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, -0.05, 1e-9);
  }
}

TEST(LpBackend, DegenerateVertexAgree) {
  // Many redundant constraints through one vertex: heavy primal degeneracy.
  LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 2.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::LessEqual, 4.0);
  lp.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::LessEqual, 3.0);
  lp.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::LessEqual, 3.0);
  lp.add_constraint({{x, 1.0}}, Relation::LessEqual, 1.0);
  lp.add_constraint({{y, 1.0}}, Relation::LessEqual, 1.0);
  expect_matches_oracle(lp, 1e-7);
  const LpSolution sol = lp.solve();
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

// --------------------------------------------------------- warm cut loops --

TEST(LpBackend, WarmCutLoopMatchesColdAndAcrossBackends) {
  // Mimics the LpCuts inner loop: solve, append >=-cuts, re-solve. After
  // every round the warm re-solve must track a cold solve of the same
  // program and the oracle's solve of it.
  for (const std::uint64_t seed : {5ull, 23ull, 71ull}) {
    SCOPED_TRACE(seed);
    LinearProgram lp = make_planted_lp(seed, 8, 6);
    for (std::size_t j = 0; j < lp.variable_count(); ++j) {
      lp.set_bounds(j, 0.0, 50.0);
    }
    opt::IncrementalLpSolver warm(lp);

    common::Rng rng(seed ^ 0xabcdefull);
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE(round);
      const LpSolution a = warm.solve();
      const LpSolution c = warm.program().solve();
      const LpSolution o = testing::oracle_solve(warm.program());
      // A random cut may clash with the planted equality rows and make the
      // program infeasible; all three must then agree on that too.
      ASSERT_EQ(a.status, c.status);
      ASSERT_EQ(o.status, c.status);
      if (c.status != LpStatus::Optimal) break;
      const double tol = 1e-6 * std::max(1.0, std::abs(c.objective));
      EXPECT_NEAR(a.objective, c.objective, tol);
      EXPECT_NEAR(o.objective, c.objective, tol);
      EXPECT_EQ(warm.last_solve_was_warm(), round > 0);
      if (round > 0) {
        // Warm re-solves price the cut in with dual pivots, not a fresh
        // phase 1.
        EXPECT_EQ(warm.last_stats().phase1, 0u);
      }

      // Cut off the current optimum: sum of a few variables must rise.
      std::vector<std::pair<std::size_t, double>> terms;
      double activity = 0.0;
      for (std::size_t j = 0; j < lp.variable_count(); ++j) {
        if (!rng.bernoulli(0.5)) continue;
        terms.push_back({j, 1.0});
        activity += c.values[j];
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      // Keep the cut satisfiable under the x <= 50 caps (a subset already
      // pinned at its upper bound would otherwise make the program
      // infeasible — correctly, but that is not what this test probes).
      const double rhs =
          std::min(activity + rng.uniform(0.1, 1.0),
                   50.0 * static_cast<double>(terms.size()) - 1.0);
      warm.add_ge_constraint(terms, rhs);
    }
  }
}

// ------------------------------------------------ LpCuts unique vertex ----

TEST(LpCutsVertex, WarmCutLoopMatchesColdSolveOfFinalProgram) {
  // Every LpCuts round is one warm re-solve of the perturbed program. The
  // perturbed optimum is a unique vertex, so the x̂ the warm loop reports
  // must equal, bit for bit after the snap, a cold solve of the final
  // program — and the oracle's solve of it. The perturbation only breaks
  // ties: the reported objective is the unperturbed optimum.
  std::size_t cuts = 0;
  for (const std::uint64_t seed : {3ull, 17ull, 40ull}) {
    for (const auto& [jobs, gpus] : {std::pair<std::size_t, std::size_t>{6, 4},
                                    {10, 6}}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " jobs=" << jobs << " gpus=" << gpus);
      const testing::Instance instance =
          testing::make_random_instance(seed, jobs, gpus);
      core::RelaxationConfig config;
      config.mode = core::RelaxMode::LpCuts;
      LinearProgram program;
      const core::RelaxationResult relaxed =
          core::HareRelaxation(config).solve(instance.cluster, instance.jobs,
                                             instance.times, {}, nullptr,
                                             &program);
      const std::size_t tasks = instance.jobs.task_count();
      ASSERT_EQ(relaxed.x_hat.size(), tasks);
      cuts += relaxed.cut_count;
      EXPECT_EQ(relaxed.canonical_pivots, 0u);
      EXPECT_EQ(relaxed.lp_rows, program.constraint_count());
      EXPECT_EQ(relaxed.lp_cols, program.variable_count());
      EXPECT_EQ(relaxed.lp_nonzeros, program.nonzero_count());
      ASSERT_EQ(relaxed.lp_rounds.size(), relaxed.lp_solves);
      for (std::size_t r = 0; r < relaxed.lp_rounds.size(); ++r) {
        EXPECT_EQ(relaxed.lp_rounds[r].warm, r > 0) << "round " << r;
      }

      const LpSolution cold = program.solve();
      const LpSolution oracle = testing::oracle_solve(program);
      ASSERT_TRUE(cold.optimal());
      ASSERT_TRUE(oracle.optimal());
      for (std::size_t i = 0; i < tasks; ++i) {
        EXPECT_EQ(relaxed.x_hat[i], opt::snap_lp_value(cold.values[i]))
            << "task " << i;
        EXPECT_EQ(relaxed.x_hat[i], opt::snap_lp_value(oracle.values[i]))
            << "task " << i;
      }

      LinearProgram unperturbed = program;
      for (std::size_t i = 0; i < tasks; ++i) unperturbed.set_objective(i, 0.0);
      const LpSolution plain = unperturbed.solve();
      ASSERT_TRUE(plain.optimal());
      EXPECT_NEAR(relaxed.objective, plain.objective,
                  1e-6 * std::abs(plain.objective));
    }
  }
  EXPECT_GT(cuts, 0u) << "the grid must exercise warm re-solves";
}

// ------------------------------------------------- planner schedule parity --

void expect_same_schedule(const sim::Schedule& a, const sim::Schedule& b) {
  ASSERT_EQ(a.sequences.size(), b.sequences.size());
  for (std::size_t g = 0; g < a.sequences.size(); ++g) {
    EXPECT_EQ(a.sequences[g], b.sequences[g]) << "gpu " << g;
  }
  EXPECT_EQ(a.predicted_start, b.predicted_start);
  EXPECT_EQ(a.predicted_objective, b.predicted_objective);
}

TEST(LpBackendSchedule, BackendsProduceIdenticalSchedules) {
  // There is one LP backend, the revised simplex. Driven by the library's
  // planner (indexed scans, incremental separation) or by the reference
  // planner (O(G) scans, full separation sorts), it yields a bit-identical
  // downstream schedule, because every cut round reports the snapped
  // unique perturbed vertex.
  core::HareConfig config;
  config.relaxation.mode = core::RelaxMode::LpCuts;
  for (const std::uint64_t seed : {3ull, 17ull, 40ull}) {
    for (const auto& [jobs, gpus] : {std::pair<std::size_t, std::size_t>{6, 4},
                                    {10, 6}}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " jobs=" << jobs << " gpus=" << gpus);
      const testing::Instance instance =
          testing::make_random_instance(seed, jobs, gpus);
      const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                        instance.times};

      core::HareScheduler planner(config);
      expect_same_schedule(testing::oracle_schedule(input, config),
                           planner.schedule(input));
    }
  }
}

TEST(LpBackendSchedule, RelaxationReportsResolvedBackendAndShape) {
  const testing::Instance instance = testing::make_random_instance(9, 8, 4);

  core::RelaxationConfig config;
  config.mode = core::RelaxMode::LpCuts;
  const core::HareRelaxation production_relax(config);
  const core::RelaxationResult production =
      production_relax.solve(instance.cluster, instance.jobs, instance.times);
  EXPECT_GT(production.lp_rows, 0u);
  EXPECT_GT(production.lp_cols, 0u);
  EXPECT_GE(production.lp_nonzeros, production.lp_rows);
  EXPECT_GT(production.lp_solves, 0u);
  EXPECT_EQ(production.lp_rounds.size(), production.lp_solves);
  // One solve per round: no second canonicalizing solve.
  EXPECT_EQ(production.canonical_pivots, 0u);

  // The reference planner builds the same program on the same backend, so
  // identical vertices give identical cut trajectories and final LP shapes.
  const core::RelaxationResult oracle = testing::oracle_relax(
      instance.cluster, instance.jobs, instance.times, config);
  EXPECT_EQ(oracle.lp_rows, production.lp_rows);
  EXPECT_EQ(oracle.lp_cols, production.lp_cols);
  EXPECT_EQ(oracle.lp_nonzeros, production.lp_nonzeros);
  EXPECT_EQ(oracle.lp_solves, production.lp_solves);
  EXPECT_EQ(oracle.cut_count, production.cut_count);
  EXPECT_EQ(oracle.x_hat, production.x_hat);
  EXPECT_NEAR(oracle.objective, production.objective,
              1e-6 * std::max(1.0, std::abs(production.objective)));
}

}  // namespace
}  // namespace hare
