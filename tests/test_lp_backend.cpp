// The LP engine against an independent oracle, and the unique-vertex
// contract of the LpCuts relaxation.
//
// opt::RevisedSimplex (fed by testing::LinearProgram) is checked against
// testing::oracle_solve, a cold two-phase dense tableau that shares no code
// with it:
//  (a) on randomized LPs (feasible, infeasible, unbounded, degenerate)
//      both report the same status and, when optimal, objectives within
//      1e-6;
//  (b) bounded variables (shifted lower bounds, finite uppers, fixed
//      variables) round-trip identically through both;
//  (c) the Beale cycling LP terminates at the optimum on both — the
//      stall-triggered Bland's-rule regression test;
//  (d) a warm-started cutting-plane loop (one RevisedSimplex, rows
//      appended between solves) agrees with cold solves and the oracle
//      round by round, and a capped warm re-solve falls back to a cold
//      solve of the same store;
//  (e) the LpCuts relaxation's warm cut loop reports the same snapped
//      vertex as a cold solve of its final perturbed program (and as the
//      oracle), and its objective is the unperturbed optimum; the final
//      program is the planner oracle's own row-form build of it;
//  (f) every planner engine configuration yields the same LP shape and
//      the same schedule;
//  (g) opt::BasisLU (sparse factorization) matches testing::DenseBasisLU
//      (the dense sweep) bit for bit: factorize's verdict, and FTRAN/BTRAN
//      before and after product-form updates, on random, cancelling,
//      singular and LpCuts bases;
//  (h) golden pins on LpCuts plans of seeded testbed batches: any change
//      that moves the vertex, the pivot path or the refactorization
//      cadence fails here;
//  (i) the relaxation's cold solve starts from the critical-path basis of
//      its base rows and runs no phase 1, snapping to the vertex a
//      slack-start solve reaches; an unusable start basis falls back to
//      the slack start, and an infeasible one runs phase 1 to the same
//      vertex;
//  (j) the planner scaling grid (Fluid and LpCuts, up to 800 jobs) plans
//      valid schedules, and its LpCuts points pin their LP counts and
//      shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "core/hare.hpp"
#include "lp_oracle.hpp"
#include "obs/metrics.hpp"
#include "opt/basis_lu.hpp"
#include "opt/revised_simplex.hpp"
#include "opt/sparse_matrix.hpp"
#include "planner_oracle.hpp"
#include "test_util.hpp"

namespace hare {
namespace {

using testing::LinearProgram;
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
    opt::RevisedSimplex warm = lp.to_solver();

    common::Rng rng(seed ^ 0xabcdefull);
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE(round);
      const LpSolution a = warm.solve();
      const LpSolution c = lp.solve();
      const LpSolution o = testing::oracle_solve(lp);
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
      lp.add_constraint(terms, Relation::GreaterEqual, rhs);
      warm.add_row(terms, Relation::GreaterEqual, rhs);
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
      const core::RelaxationResult relaxed = core::HareRelaxation(config).solve(
          instance.cluster, instance.jobs, instance.times);
      LinearProgram program;
      (void)testing::oracle_relax(instance.cluster, instance.jobs,
                                  instance.times, config, {}, &program);
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

// ------------------------------------------------------- basis LU oracle --

using opt::BasisLU;
using opt::SparseMatrix;

struct LuTally {
  std::size_t nonsingular = 0;
  std::size_t singular = 0;
  std::size_t updates = 0;
  std::size_t cancellations = 0;  ///< exact 0.0 pivot-row values skipped
};

/// Bit-for-bit equality: tells -0.0 from 0.0 and compares NaN payloads.
void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what,
                      int index) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      ADD_FAILURE() << what << " of vector " << index << ", entry " << i
                    << ": " << a[i] << " (library) vs " << b[i] << " (dense)";
      return;
    }
  }
}

/// FTRAN and BTRAN of every unit vector and of a few random ones.
void expect_same_solves(const BasisLU& lu, const testing::DenseBasisLU& dense,
                        int m, common::Rng& rng) {
  const auto size = static_cast<std::size_t>(m);
  std::vector<double> v;
  std::vector<double> got;
  std::vector<double> want;
  for (int i = 0; i < m + 4; ++i) {
    v.assign(size, 0.0);
    if (i < m) {
      v[static_cast<std::size_t>(i)] = 1.0;
    } else {
      for (double& x : v) x = rng.bernoulli(0.5) ? rng.uniform(-3.0, 3.0) : 0.0;
    }
    lu.ftran(v, got);
    dense.ftran(v, want);
    expect_same_bits(got, want, "ftran", i);
    lu.btran(v, got);
    dense.btran(v, want);
    expect_same_bits(got, want, "btran", i);
  }
}

/// Factorize `basis` on both sides (the library's `lu` is reused across
/// calls, so stale scratch would show), compare, then exchange up to
/// `updates` random entering columns at their largest spike entry and
/// compare after each.
void expect_same_lu(BasisLU& lu, const SparseMatrix& A,
                    const std::vector<int>& basis, common::Rng& rng,
                    std::size_t updates, LuTally& tally) {
  testing::DenseBasisLU dense;
  const bool ok = lu.factorize(A, basis);
  ASSERT_EQ(ok, dense.factorize(A, basis)) << "factorize verdicts differ";
  tally.cancellations += dense.exact_cancellations();
  if (!ok) {
    ++tally.singular;
    return;
  }
  ++tally.nonsingular;
  const int m = A.rows();
  expect_same_solves(lu, dense, m, rng);
  std::vector<double> column;
  std::vector<double> spike;
  std::vector<double> dense_spike;
  for (std::size_t u = 0; u < updates; ++u) {
    const int q = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(A.cols())));
    column.assign(static_cast<std::size_t>(m), 0.0);
    A.scatter_column(q, 1.0, column);
    lu.ftran(column, spike);
    dense.ftran(column, dense_spike);
    expect_same_bits(spike, dense_spike, "entering spike", q);
    int p = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(spike[static_cast<std::size_t>(i)]) >
          std::abs(spike[static_cast<std::size_t>(p)])) {
        p = i;
      }
    }
    const bool stable = lu.update(p, spike);
    ASSERT_EQ(stable, dense.update(p, spike));
    if (!stable) return;
    ++tally.updates;
    expect_same_solves(lu, dense, m, rng);
  }
}

/// `structurals` random columns of 1-3 entries over `m` rows, then the m
/// logical (identity) columns, as the revised simplex lays them out.
/// Integer entries in {±1, ±2} make pivot ties and exact cancellation
/// common; real entries exercise rounding in the eliminations.
SparseMatrix random_columns(common::Rng& rng, int m, int structurals,
                            bool integer) {
  SparseMatrix A(m);
  for (int j = 0; j < structurals; ++j) {
    const int col = A.add_column();
    const auto nnz = 1 + rng.uniform_int(3);
    std::vector<int> rows;
    while (rows.size() < nnz) {
      const int r = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(m)));
      if (std::find(rows.begin(), rows.end(), r) == rows.end()) {
        rows.push_back(r);
      }
    }
    std::sort(rows.begin(), rows.end());
    for (const int r : rows) {
      const double magnitude = integer
                                   ? static_cast<double>(1 + rng.uniform_int(2))
                                   : rng.uniform(0.1, 5.0);
      A.push(col, r, rng.bernoulli(0.5) ? magnitude : -magnitude);
    }
  }
  for (int i = 0; i < m; ++i) A.push(A.add_column(), i, 1.0);
  return A;
}

/// The all-logical basis with each position i swapped, with probability
/// `share`, for a distinct random structural column with an entry in row
/// i. The swaps keep a full transversal, so most such bases are
/// nonsingular; cancellation still makes some singular.
std::vector<int> random_basis(common::Rng& rng, const SparseMatrix& A,
                              double share) {
  const int m = A.rows();
  const int structurals = A.cols() - m;
  std::vector<std::vector<int>> row_columns(static_cast<std::size_t>(m));
  for (int j = 0; j < structurals; ++j) {
    for (const opt::SparseEntry& e : A.column(j)) {
      row_columns[static_cast<std::size_t>(e.row)].push_back(j);
    }
  }
  std::vector<int> basis(static_cast<std::size_t>(m));
  std::vector<char> used(static_cast<std::size_t>(structurals), 0);
  for (int i = 0; i < m; ++i) {
    basis[static_cast<std::size_t>(i)] = structurals + i;
    const auto& candidates = row_columns[static_cast<std::size_t>(i)];
    if (candidates.empty() || !rng.bernoulli(share)) continue;
    const int j = candidates[rng.uniform_int(candidates.size())];
    if (used[static_cast<std::size_t>(j)]) continue;
    used[static_cast<std::size_t>(j)] = 1;
    basis[static_cast<std::size_t>(i)] = j;
  }
  return basis;
}

TEST(BasisLuOracle, RandomSparseBasesMatchDenseSweep) {
  LuTally tally;
  BasisLU lu;
  for (const bool integer : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " integer=" << integer);
      common::Rng rng(seed * 7919 + (integer ? 1 : 0));
      const int m = static_cast<int>(8 + rng.uniform_int(40));
      const SparseMatrix A = random_columns(rng, m, 2 * m, integer);
      for (int b = 0; b < 4; ++b) {
        const std::vector<int> basis =
            random_basis(rng, A, 0.25 * static_cast<double>(b + 1));
        expect_same_lu(lu, A, basis, rng, 6, tally);
      }
    }
  }
  EXPECT_GT(tally.nonsingular, 100u);
  EXPECT_GT(tally.singular, 0u);
  EXPECT_GT(tally.updates, 100u);
  EXPECT_GT(tally.cancellations, 0u)
      << "integer bases must hit exact cancellation";
}

TEST(BasisLuOracle, ExactCancellationMidElimination) {
  // Column 2 = [2, 1, 1, 1]: step 0 (pivot row 0, L = {1: .5, 2: .5})
  // cancels row 2 — step 1's pivot row — to exactly 0.0, so step 1 is
  // reached but skipped; row 1 also cancels and row 3 takes the pivot.
  SparseMatrix A(4);
  const std::vector<std::vector<double>> dense = {
      {2, 1, 1, 0}, {0, 1, 3, 0}, {2, 1, 1, 1}, {0, 0, 1, 2}};
  for (const auto& values : dense) {
    const int col = A.add_column();
    for (int r = 0; r < 4; ++r) {
      A.push(col, r, values[static_cast<std::size_t>(r)]);
    }
  }
  BasisLU lu;
  common::Rng rng(5);
  LuTally tally;
  expect_same_lu(lu, A, {0, 1, 2, 3}, rng, 3, tally);
  EXPECT_EQ(tally.nonsingular, 1u);
  EXPECT_GT(tally.cancellations, 0u);
}

TEST(BasisLuOracle, SingularBasesFailOnBothSides) {
  // Columns over 4 rows: e0+e1, e1+e2, their exact sum, a duplicate of the
  // first, an all-but-zero column, an empty one, then the logicals 6..9.
  SparseMatrix A(4);
  const std::vector<std::vector<double>> dense = {
      {1, 1, 0, 0}, {0, 1, 1, 0}, {1, 2, 1, 0},
      {1, 1, 0, 0}, {0, 0, 1e-13, 0}, {0, 0, 0, 0}};
  for (const auto& values : dense) {
    const int col = A.add_column();
    for (int r = 0; r < 4; ++r) {
      A.push(col, r, values[static_cast<std::size_t>(r)]);
    }
  }
  for (int i = 0; i < 4; ++i) A.push(A.add_column(), i, 1.0);

  BasisLU lu;
  common::Rng rng(11);
  LuTally tally;
  for (const std::vector<int>& basis :
       std::vector<std::vector<int>>{{0, 1, 2, 9},  // linear combination
                                     {0, 3, 8, 9},  // duplicate column
                                     {6, 7, 4, 9},  // pivot below 1e-11
                                     {6, 5, 8, 9},  // empty column
                                     {0, 1, 8, 9},  // nonsingular again
                                     {0, 1, 2, 9}}) {
    expect_same_lu(lu, A, basis, rng, 2, tally);
  }
  EXPECT_EQ(tally.singular, 5u);
  EXPECT_EQ(tally.nonsingular, 1u);
}

TEST(BasisLuOracle, LpCutsProgramBasesMatchDenseSweep) {
  // Bases over a real relaxation program (base rows plus appended cuts),
  // laid out as the revised simplex stores it: structural columns from
  // the rows, then one logical per row.
  LuTally tally;
  BasisLU lu;
  for (const std::uint64_t seed : {3ull, 17ull, 40ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const testing::Instance instance =
        testing::make_random_instance(seed, 8, 4);
    core::RelaxationConfig config;
    config.mode = core::RelaxMode::LpCuts;
    LinearProgram program;
    (void)testing::oracle_relax(instance.cluster, instance.jobs,
                                instance.times, config, {}, &program);
    const int m = static_cast<int>(program.constraint_count());
    const int n = static_cast<int>(program.variable_count());
    SparseMatrix A(m);
    for (int j = 0; j < n; ++j) A.add_column();
    for (int i = 0; i < m; ++i) {
      const auto& row = program.rows()[static_cast<std::size_t>(i)];
      for (const auto& [var, coeff] : row.terms) {
        A.push(static_cast<int>(var), i, coeff);
      }
    }
    for (int i = 0; i < m; ++i) A.push(A.add_column(), i, 1.0);

    common::Rng rng(seed);
    for (int b = 0; b < 24; ++b) {
      expect_same_lu(lu, A, random_basis(rng, A, 0.1 + 0.03 * b), rng, 4,
                     tally);
    }
  }
  EXPECT_GT(tally.nonsingular, 10u);
  EXPECT_GT(tally.updates, 10u);
}

// ------------------------------------------------------ LpCuts golden pins --

/// One 8-job batch on the 15-GPU testbed, in the shape of perfbench's
/// testbed_lpcuts batches, planned on a noise-free table.
struct GoldenPlan {
  double predicted_objective = 0.0;
  double relaxation_objective = 0.0;
  std::size_t lp_solves = 0;
  std::size_t simplex_pivots = 0;
  std::size_t cut_count = 0;
  std::size_t lp_factorizations = 0;
};

testing::Instance make_testbed_batch(std::uint64_t seed) {
  workload::TraceConfig trace;
  trace.job_count = 8;
  trace.base_arrival_rate = 0.2;
  trace.sync_scales = {1, 2, 2, 4};
  trace.rounds_scale_min = 0.05;
  trace.rounds_scale_max = 0.15;
  trace.weight_odds = {1.0, 1.0, 1.0};
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const workload::JobSet jobs = workload::TraceGenerator(seed).generate(trace);
  profiler::ProfilerConfig profile;
  profile.serial = true;
  profiler::TimeTable times =
      profiler::Profiler(workload::PerfModel{}, profile, seed)
          .exact(jobs, cluster);
  times.precompute();
  return {cluster, jobs, std::move(times)};
}

GoldenPlan plan_testbed_batch(std::uint64_t seed) {
  const testing::Instance batch = make_testbed_batch(seed);
  core::HareConfig config;
  config.relaxation.mode = core::RelaxMode::LpCuts;
  core::HareScheduler scheduler(config);
  const sim::Schedule plan =
      scheduler.schedule({batch.cluster, batch.jobs, batch.times});
  const core::RelaxationResult& relaxed = scheduler.last_relaxation();
  return GoldenPlan{plan.predicted_objective, relaxed.objective,
                    relaxed.lp_solves,        relaxed.simplex_pivots,
                    relaxed.cut_count,        relaxed.lp_factorizations};
}

TEST(LpCutsGolden, TestbedBatchesArePinned) {
  // Objectives, solves and cuts must not move; pivots and factorizations
  // pin the critical-path cold start and the dual pivot path after it.
  // Seed 1 solves once, seeds 9, 24 and 36 add cuts, and 36 runs all 16
  // cut rounds.
  struct Pin {
    std::uint64_t seed;
    GoldenPlan want;
  };
  const std::vector<Pin> pins = {
      {1, {593.60571312943944, 516.79447138236435, 1, 0, 0, 1}},
      {9, {403.84589580079546, 373.68755293889558, 2, 6, 3, 2}},
      {24, {281.11035528356922, 250.89961422455471, 2, 9, 6, 2}},
      {36, {516.58816055706518, 509.96551811391754, 17, 17, 17, 17}},
  };
  // The planner counter adds each LP solve's factorizations.
  const obs::Counter& factorizations =
      obs::counter("planner.lp_factorizations");
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << "seed=" << pin.seed);
    const std::uint64_t counted_before = factorizations.value();
    const GoldenPlan got = plan_testbed_batch(pin.seed);
    EXPECT_EQ(factorizations.value() - counted_before, got.lp_factorizations);
    EXPECT_EQ(got.predicted_objective, pin.want.predicted_objective);
    EXPECT_EQ(got.relaxation_objective, pin.want.relaxation_objective);
    EXPECT_EQ(got.lp_solves, pin.want.lp_solves);
    EXPECT_EQ(got.simplex_pivots, pin.want.simplex_pivots);
    EXPECT_EQ(got.cut_count, pin.want.cut_count);
    EXPECT_EQ(got.lp_factorizations, pin.want.lp_factorizations);
  }
}

// ------------------------------------------- LpCuts critical-path start --

/// The four golden batches, then 64 more testbed-shaped ones.
std::vector<std::uint64_t> start_basis_seeds() {
  std::vector<std::uint64_t> seeds = {1, 9, 24, 36};
  for (std::uint64_t seed = 100; seed < 164; ++seed) seeds.push_back(seed);
  return seeds;
}

/// The relaxation's first solve of `batch` (no cuts), with its base
/// program from the planner oracle's build of the same rows.
core::RelaxationResult relax_base_program(const testing::Instance& batch,
                                          LinearProgram& program) {
  core::RelaxationConfig config;
  config.mode = core::RelaxMode::LpCuts;
  config.max_cut_rounds = 0;
  (void)testing::oracle_relax(batch.cluster, batch.jobs, batch.times, config,
                              {}, &program);
  return core::HareRelaxation(config).solve(batch.cluster, batch.jobs,
                                            batch.times);
}

/// A solver holding `program`, its cold solve started from `start`.
opt::RevisedSimplex started_solver(const LinearProgram& program,
                                   std::vector<std::size_t> start) {
  opt::RevisedSimplex solver = program.to_solver();
  solver.set_start_basis(std::move(start));
  return solver;
}

/// A start basis for an LpCuts base program, rebuilt from its rows alone:
/// release rows (x_i − E ≥ 0) make x_i basic, completion rows make C_n
/// basic, and each round's round-end rows (E_r − x_i ≥ T_i) keep their
/// logicals basic except one, whose place E_r takes. `longest` picks the
/// round's largest T_i (lowest row on ties), the relaxation's choice;
/// otherwise the smallest, which leaves the round's longer tasks past E_r.
std::vector<std::size_t> base_row_basis(const LinearProgram& program,
                                        std::size_t tasks, bool longest) {
  const std::size_t cols = program.variable_count();
  std::vector<std::size_t> basis;
  std::size_t round_var = cols;  // E of the round being read
  std::size_t chosen_slot = 0;
  double chosen = 0.0;
  for (std::size_t i = 0; i < program.constraint_count(); ++i) {
    const auto& terms = program.rows()[i].terms;
    const double t = program.rows()[i].rhs;
    const bool round_end = terms[1].first < tasks;
    // A round's rows end at the next round's first row: a round-end row of
    // another E, or a release or completion row behind this E.
    if (round_var != cols &&
        (round_end ? terms[0].first != round_var
                   : terms[1].first == round_var)) {
      basis[chosen_slot] = round_var;
      round_var = cols;
    }
    if (!round_end) {
      basis.push_back(terms[0].first);  // x_i of a release row, or C_n
      continue;
    }
    if (round_var == cols || (longest ? t > chosen : t < chosen)) {
      chosen = t;
      chosen_slot = basis.size();
    }
    round_var = terms[0].first;
    basis.push_back(cols + i);
  }
  if (round_var != cols) basis[chosen_slot] = round_var;
  return basis;
}

TEST(LpCutsStart, CriticalPathBasisRunsNoPhaseOne) {
  // The relaxation's first solve starts at the critical-path vertex of its
  // base rows: primal feasible, so no phase-1 pivot. The independent check
  // is a slack-start solve of the same base program, which walks there
  // through phase 1 and must snap to the same x̂.
  std::size_t slack_phase1 = 0;
  for (const std::uint64_t seed : start_basis_seeds()) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const testing::Instance batch = make_testbed_batch(seed);
    LinearProgram program;
    const core::RelaxationResult first = relax_base_program(batch, program);
    ASSERT_EQ(first.lp_solves, 1u);
    ASSERT_EQ(first.cut_count, 0u);
    EXPECT_EQ(first.phase1_pivots, 0u);

    opt::LpIterationStats slack_stats;
    const LpSolution slack = program.solve(100000, &slack_stats);
    ASSERT_TRUE(slack.optimal());
    slack_phase1 += slack_stats.phase1;
    const std::size_t tasks = batch.jobs.task_count();
    ASSERT_EQ(first.x_hat.size(), tasks);
    for (std::size_t i = 0; i < tasks; ++i) {
      EXPECT_EQ(first.x_hat[i], opt::snap_lp_value(slack.values[i]))
          << "task " << i;
    }

    // The basis rebuilt from the rows alone starts the same solve: no
    // phase 1, and the pivots and factorizations of the relaxation's.
    opt::RevisedSimplex solver = started_solver(
        program, base_row_basis(program, tasks, /*longest=*/true));
    const LpSolution started = solver.solve();
    ASSERT_TRUE(started.optimal());
    EXPECT_EQ(solver.last_stats().phase1, 0u);
    EXPECT_EQ(solver.last_stats().total(), first.simplex_pivots);
    EXPECT_EQ(solver.last_stats().factorizations, first.lp_factorizations);
    for (std::size_t i = 0; i < tasks; ++i) {
      EXPECT_EQ(first.x_hat[i], opt::snap_lp_value(started.values[i]))
          << "task " << i;
    }

    // With cuts, no cold solve of the whole relaxation runs phase 1.
    core::RelaxationConfig config;
    config.mode = core::RelaxMode::LpCuts;
    const core::RelaxationResult full = core::HareRelaxation(config).solve(
        batch.cluster, batch.jobs, batch.times);
    EXPECT_EQ(full.phase1_pivots, 0u);
  }
  EXPECT_GT(slack_phase1, 0u) << "the slack start must take another path";
}

TEST(LpCutsStart, UnusableStartBasisFallsBackToSlack) {
  // A start basis of the wrong size, with a repeated or unknown column, or
  // singular is dropped: the solve is the slack start's, pivot for pivot.
  for (const std::uint64_t seed : {1ull, 36ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const testing::Instance batch = make_testbed_batch(seed);
    LinearProgram program;
    (void)relax_base_program(batch, program);
    const std::size_t n = program.variable_count();
    const std::size_t m = program.constraint_count();

    opt::RevisedSimplex slack = program.to_solver();
    const LpSolution want = slack.solve();
    ASSERT_TRUE(want.optimal());
    const opt::LpIterationStats want_stats = slack.last_stats();
    ASSERT_GT(want_stats.phase1, 0u);

    std::vector<std::size_t> logicals(m);
    for (std::size_t i = 0; i < m; ++i) logicals[i] = n + i;
    std::vector<std::size_t> too_short(logicals.begin(), logicals.end() - 1);
    std::vector<std::size_t> too_long = logicals;
    too_long.push_back(0);
    std::vector<std::size_t> repeated = logicals;
    repeated[1] = repeated[0];
    std::vector<std::size_t> unknown = logicals;
    unknown[0] = n + m;
    // The last C_n appears only in the last row, whose logical stays basic:
    // placing it in row 0's position leaves row 0 empty.
    ASSERT_TRUE(std::none_of(program.rows()[0].terms.begin(),
                             program.rows()[0].terms.end(),
                             [&](const auto& t) { return t.first == n - 1; }));
    std::vector<std::size_t> singular = logicals;
    singular[0] = n - 1;

    for (const auto& [name, start] :
         std::vector<std::pair<const char*, std::vector<std::size_t>>>{
             {"too short", too_short},
             {"too long", too_long},
             {"repeated column", repeated},
             {"unknown column", unknown},
             {"singular", singular}}) {
      SCOPED_TRACE(name);
      opt::RevisedSimplex solver = started_solver(program, start);
      const LpSolution got = solver.solve();
      ASSERT_TRUE(got.optimal());
      expect_same_bits(got.values, want.values, "values", 0);
      EXPECT_EQ(got.objective, want.objective);
      EXPECT_EQ(solver.last_stats().phase1, want_stats.phase1);
      EXPECT_EQ(solver.last_stats().phase2, want_stats.phase2);
    }
  }
}

TEST(LpCutsStart, InfeasibleStartRunsPhaseOneToTheSameVertex) {
  // Ending each round at its shortest task instead of its longest gives a
  // nonsingular basis that is not primal feasible wherever a round's
  // tasks differ in length: phase 1 runs from there and reaches the
  // slack start's snapped vertex.
  std::size_t phase1 = 0;
  for (const std::uint64_t seed : {1ull, 9ull, 24ull, 36ull, 100ull, 101ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const testing::Instance batch = make_testbed_batch(seed);
    LinearProgram program;
    (void)relax_base_program(batch, program);
    const std::size_t tasks = batch.jobs.task_count();

    const LpSolution slack = program.solve();
    opt::RevisedSimplex solver = started_solver(
        program, base_row_basis(program, tasks, /*longest=*/false));
    const LpSolution got = solver.solve();
    ASSERT_TRUE(slack.optimal());
    ASSERT_TRUE(got.optimal());
    phase1 += solver.last_stats().phase1;
    for (std::size_t i = 0; i < tasks; ++i) {
      EXPECT_EQ(opt::snap_lp_value(got.values[i]),
                opt::snap_lp_value(slack.values[i]))
          << "task " << i;
    }
  }
  EXPECT_GT(phase1, 0u) << "some start must have been infeasible";
}

TEST(WarmStall, CappedCutRoundRestartsColdOnTheSameStore) {
  // A warm cut-round re-solve capped below its dual pivot count stalls and
  // re-solves cold from the start basis on its own, already-extended
  // store. The next uncapped solve lands bit for bit on the vertex of a
  // fresh cold solve of the same program.
  for (const std::uint64_t seed : {9ull, 24ull, 36ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const testing::Instance batch = make_testbed_batch(seed);
    LinearProgram base;
    (void)relax_base_program(batch, base);
    core::RelaxationConfig config;
    config.mode = core::RelaxMode::LpCuts;
    LinearProgram program;
    const core::RelaxationResult relaxed = testing::oracle_relax(
        batch.cluster, batch.jobs, batch.times, config, {}, &program);
    ASSERT_GE(relaxed.lp_rounds.size(), 2u);
    const std::size_t base_rows = base.constraint_count();
    const std::size_t rows = base_rows + relaxed.lp_rounds[1].cuts_added;
    const std::vector<std::size_t> start =
        base_row_basis(base, batch.jobs.task_count(), /*longest=*/true);
    const auto append_cuts = [&](opt::RevisedSimplex& solver) {
      for (std::size_t i = base_rows; i < rows; ++i) {
        const LinearProgram::Row& row = program.rows()[i];
        solver.add_row(row.terms, row.rel, row.rhs);
      }
    };

    opt::RevisedSimplex solver = started_solver(base, start);
    ASSERT_TRUE(solver.solve().optimal());
    append_cuts(solver);
    opt::RevisedSimplex uncapped = solver;
    ASSERT_TRUE(uncapped.solve().optimal());
    ASSERT_TRUE(uncapped.last_solve_was_warm());
    const std::size_t dual = uncapped.last_stats().dual;
    ASSERT_GT(dual, 0u);

    (void)solver.solve(dual - 1);
    EXPECT_FALSE(solver.last_solve_was_warm());
    EXPECT_EQ(static_cast<std::size_t>(solver.row_count()), rows);
    const LpSolution got = solver.solve();
    ASSERT_TRUE(got.optimal());

    opt::RevisedSimplex fresh = started_solver(base, start);
    append_cuts(fresh);
    const LpSolution want = fresh.solve();
    ASSERT_TRUE(want.optimal());
    EXPECT_FALSE(fresh.last_solve_was_warm());
    expect_same_bits(got.values, want.values, "values", 0);
    EXPECT_EQ(got.objective, want.objective);
  }
}

struct GridPin {
  std::size_t jobs;
  std::size_t gpus;
  core::RelaxMode mode;
  std::size_t lp_solves, cuts, pivots, factorizations;
  std::size_t lp_rows, lp_cols, lp_nonzeros;
};

TEST(PlannerGrid, ScaleGridPlansValidAndLpCutsShapesArePinned) {
  // The planner scaling grid: five Fluid points up to 800 jobs on 512 GPUs
  // and six LpCuts points up to 40 jobs on 16 GPUs, each on the simulation
  // cluster with a seeded trace (seed 9000 + jobs) and its exact profile.
  // Every plan must validate; each LpCuts point pins its solve, cut, pivot
  // and factorization counts and the final LP shape (nonzeros without the
  // logicals), and starts cold from the critical-path basis (no phase 1).
  constexpr std::size_t kNoLp = 0;
  const GridPin grid[] = {
      {50, 16, core::RelaxMode::Fluid, kNoLp, 0, 0, 0, 0, 0, 0},
      {100, 32, core::RelaxMode::Fluid, kNoLp, 0, 0, 0, 0, 0, 0},
      {200, 64, core::RelaxMode::Fluid, kNoLp, 0, 0, 0, 0, 0, 0},
      {400, 256, core::RelaxMode::Fluid, kNoLp, 0, 0, 0, 0, 0, 0},
      {800, 512, core::RelaxMode::Fluid, kNoLp, 0, 0, 0, 0, 0, 0},
      {6, 4, core::RelaxMode::LpCuts, 2, 4, 25, 2, 274, 201, 680},
      {10, 6, core::RelaxMode::LpCuts, 17, 24, 40, 17, 299, 215, 818},
      {16, 8, core::RelaxMode::LpCuts, 17, 71, 171, 19, 466, 322, 1866},
      {24, 10, core::RelaxMode::LpCuts, 17, 57, 135, 18, 762, 562, 2212},
      {32, 12, core::RelaxMode::LpCuts, 17, 23, 27, 17, 951, 724, 2219},
      {40, 16, core::RelaxMode::LpCuts, 17, 55, 156, 18, 909, 719, 2932},
  };
  for (const GridPin& pin : grid) {
    SCOPED_TRACE(::testing::Message() << pin.jobs << " jobs x " << pin.gpus
                                      << " GPUs");
    const std::uint64_t seed = 9000 + pin.jobs;
    const cluster::Cluster cluster =
        cluster::make_simulation_cluster(pin.gpus, 25.0, 4);
    workload::TraceConfig trace;
    trace.job_count = pin.jobs;
    trace.base_arrival_rate = 0.2;
    trace.sync_scales = {1, 2, 2, 4};
    trace.rounds_scale_min = 0.1;
    trace.rounds_scale_max = 0.3;
    const workload::JobSet jobs = workload::TraceGenerator(seed).generate(trace);
    const profiler::TimeTable times =
        profiler::Profiler(workload::PerfModel{}, profiler::ProfilerConfig{},
                           seed)
            .exact(jobs, cluster);

    core::HareConfig config;
    config.relaxation.mode = pin.mode;
    config.placement = core::Placement::EarliestFinish;
    core::HareScheduler scheduler(config);
    const sim::Schedule plan = scheduler.schedule({cluster, jobs, times});
    EXPECT_NO_THROW(sim::validate_schedule(plan, jobs));
    if (pin.mode != core::RelaxMode::LpCuts) continue;

    const core::RelaxationResult& relaxed = scheduler.last_relaxation();
    EXPECT_EQ(relaxed.lp_solves, pin.lp_solves);
    EXPECT_EQ(relaxed.cut_count, pin.cuts);
    EXPECT_EQ(relaxed.simplex_pivots, pin.pivots);
    EXPECT_EQ(relaxed.phase1_pivots, 0u);
    EXPECT_EQ(relaxed.lp_factorizations, pin.factorizations);
    EXPECT_EQ(relaxed.lp_rows, pin.lp_rows);
    EXPECT_EQ(relaxed.lp_cols, pin.lp_cols);
    EXPECT_EQ(relaxed.lp_nonzeros, pin.lp_nonzeros);
  }
}

}  // namespace
}  // namespace hare
