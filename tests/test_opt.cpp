// Unit tests for the optimization substrate: Hungarian assignment, the
// two-phase simplex LP solver, and Queyranne cut separation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linear_program.hpp"
#include "opt/hungarian.hpp"
#include "opt/queyranne.hpp"
#include "opt/revised_simplex.hpp"

namespace hare::opt {
namespace {

// -------------------------------------------------------------- hungarian --

TEST(Hungarian, IdentityMatrix) {
  // Diagonal zeros: optimal is the identity assignment with cost 0.
  const std::size_t n = 4;
  std::vector<double> cost(n * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) cost[i * n + i] = 0.0;
  const auto result = solve_assignment(cost, n, n);
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(result.assignment[i], static_cast<int>(i));
  }
}

TEST(Hungarian, KnownThreeByThree) {
  // Classic example: optimum is 5 (1+3+1... verify by brute force below).
  const std::vector<double> cost = {4, 1, 3,  //
                                    2, 0, 5,  //
                                    3, 2, 2};
  const auto result = solve_assignment(cost, 3, 3);
  EXPECT_DOUBLE_EQ(result.total_cost, 5.0);  // 1 + 2 + 2
}

TEST(Hungarian, RectangularLeavesColumnsUnused) {
  const std::vector<double> cost = {10, 1, 10, 10,  //
                                    10, 10, 2, 10};
  const auto result = solve_assignment(cost, 2, 4);
  EXPECT_DOUBLE_EQ(result.total_cost, 3.0);
  EXPECT_EQ(result.assignment[0], 1);
  EXPECT_EQ(result.assignment[1], 2);
}

TEST(Hungarian, AssignmentIsPermutation) {
  common::Rng rng(1);
  const std::size_t n = 12;
  std::vector<double> cost(n * n);
  for (auto& c : cost) c = rng.uniform(0.0, 100.0);
  const auto result = solve_assignment(cost, n, n);
  std::vector<int> seen(n, 0);
  for (int col : result.assignment) {
    ASSERT_GE(col, 0);
    ASSERT_LT(col, static_cast<int>(n));
    ++seen[static_cast<std::size_t>(col)];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

/// Brute-force optimum for small matrices.
double brute_force_assignment(const std::vector<double>& cost, std::size_t n) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += cost[i * n + perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

class HungarianRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HungarianRandomTest, MatchesBruteForce) {
  common::Rng rng(GetParam());
  const std::size_t n = 6;
  std::vector<double> cost(n * n);
  for (auto& c : cost) c = rng.uniform(0.0, 10.0);
  const auto result = solve_assignment(cost, n, n);
  EXPECT_NEAR(result.total_cost, brute_force_assignment(cost, n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Hungarian, RejectsBadShapes) {
  EXPECT_THROW(solve_assignment({1.0}, 2, 1), common::Error);
  EXPECT_THROW(solve_assignment({1.0, 2.0}, 1, 3), common::Error);
}

// ---------------------------------------------------------------- simplex --

using testing::LinearProgram;

TEST(Simplex, SimpleMinimization) {
  // min -x - 2y  s.t. x + y <= 4, x <= 2  =>  x=2, y=2, obj=-6.
  LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 4.0);
  lp.add_constraint({{x, 1.0}}, Relation::LessEqual, 2.0);
  const auto solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, -8.0, 1e-7);  // actually y=4, x=0: -8
  EXPECT_NEAR(solution.values[y], 4.0, 1e-7);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y  s.t. x + y = 3, x - y = 1  => x=2, y=1, obj=3.
  LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 3.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::Equal, 1.0);
  const auto solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.values[x], 2.0, 1e-7);
  EXPECT_NEAR(solution.values[y], 1.0, 1e-7);
  EXPECT_NEAR(solution.objective, 3.0, 1e-7);
}

TEST(Simplex, GreaterEqualWithMinimization) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2  =>  x=10? x cheaper: x=10, y=0.
  LinearProgram lp;
  const auto x = lp.add_variable(2.0);
  const auto y = lp.add_variable(3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEqual, 10.0);
  lp.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 2.0);
  const auto solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 20.0, 1e-7);
  EXPECT_NEAR(solution.values[x], 10.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, Relation::LessEqual, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 2.0);
  EXPECT_EQ(lp.solve().status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  const auto x = lp.add_variable(-1.0);  // minimize -x, x unbounded above
  lp.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 0.0);
  EXPECT_EQ(lp.solve().status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalized) {
  // min x s.t. -x <= -5  (i.e. x >= 5).
  LinearProgram lp;
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, -1.0}}, Relation::LessEqual, -5.0);
  const auto solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.values[x], 5.0, 1e-7);
}

TEST(Simplex, RepeatedTermsAccumulate) {
  // x + x <= 4  =>  x <= 2; min -x  => x = 2.
  LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  lp.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::LessEqual, 4.0);
  const auto solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.values[x], 2.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  LinearProgram lp;
  const auto x = lp.add_variable(-1.0);
  const auto y = lp.add_variable(-1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 2.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::LessEqual, 4.0);
  const auto solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, -2.0, 1e-7);
}

TEST(Simplex, SchedulingShapedLp) {
  // min C  s.t. C >= x + 3, x >= 2  =>  C = 5.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0);
  const auto c = lp.add_variable(1.0);
  lp.add_constraint({{c, 1.0}, {x, -1.0}}, Relation::GreaterEqual, 3.0);
  lp.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 2.0);
  const auto solution = lp.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 5.0, 1e-7);
}

TEST(Simplex, UnknownVariableRejected) {
  LinearProgram lp;
  (void)lp.add_variable(1.0);
  EXPECT_THROW(lp.add_constraint({{5, 1.0}}, Relation::LessEqual, 1.0),
               common::Error);
}

TEST(Simplex, BuilderKeepsVariablesBeforeRows) {
  // Row i's logical is column n + i, so no variable may follow a row; a
  // row over an unknown variable or an empty bound interval is rejected.
  RevisedSimplex solver;
  const std::size_t x = solver.add_variable(1.0);
  const std::size_t y = solver.add_variable(1.0);
  EXPECT_THROW(solver.set_bounds(x, 2.0, 1.0), common::Error);
  EXPECT_THROW(solver.set_bounds(2, 0.0, 1.0), common::Error);
  const RevisedSimplex::Term unknown[] = {{2, 1.0}};
  EXPECT_THROW(solver.add_row(unknown, Relation::LessEqual, 1.0),
               common::Error);
  const RevisedSimplex::Term terms[] = {{x, 1.0}, {y, 1.0}, {x, 1.0}};
  solver.add_row(terms, Relation::GreaterEqual, 3.0);
  EXPECT_THROW((void)solver.add_variable(0.0), common::Error);
  EXPECT_EQ(solver.structural_count(), 2);
  EXPECT_EQ(solver.row_count(), 1);
  // The repeated x accumulates into one entry, plus the row's logical.
  EXPECT_EQ(solver.nonzeros(), 3u);
  const LpSolution solution = solver.solve();
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 1.5, 1e-9);
  EXPECT_FALSE(solver.last_solve_was_warm());
}

class SimplexRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandomTest, FeasibleBoundedProblemsSolve) {
  // Random box-bounded LPs are always feasible (origin) and bounded; the
  // solver must return Optimal with all constraints satisfied.
  common::Rng rng(GetParam());
  LinearProgram lp;
  const std::size_t n = 6;
  std::vector<std::size_t> vars;
  for (std::size_t i = 0; i < n; ++i) {
    vars.push_back(lp.add_variable(rng.uniform(-1.0, 1.0)));
  }
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (std::size_t i = 0; i < n; ++i) {
    lp.add_constraint({{vars[i], 1.0}}, Relation::LessEqual,
                      rng.uniform(1.0, 10.0));
  }
  for (int c = 0; c < 4; ++c) {
    std::vector<std::pair<std::size_t, double>> terms;
    std::vector<double> coeffs(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      coeffs[i] = rng.uniform(0.0, 1.0);
      terms.emplace_back(vars[i], coeffs[i]);
    }
    const double bound = rng.uniform(5.0, 20.0);
    lp.add_constraint(terms, Relation::LessEqual, bound);
    rows.push_back(coeffs);
    rhs.push_back(bound);
  }
  const auto solution = lp.solve();
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double lhs = 0.0;
    for (std::size_t i = 0; i < n; ++i) lhs += rows[r][i] * solution.values[i];
    EXPECT_LE(lhs, rhs[r] + 1e-6);
  }
  for (double v : solution.values) EXPECT_GE(v, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// -------------------------------------------------------------- queyranne --

TEST(Queyranne, FeasiblePointHasNoCut) {
  // Sequential schedule x = (0, 2, 5) with t = (2, 3, 4) satisfies every
  // subset inequality (it is a real single-machine schedule).
  const std::vector<double> t = {2.0, 3.0, 4.0};
  const std::vector<double> x = {0.0, 2.0, 5.0};
  const auto cut = separate_queyranne_cut(t, x);
  EXPECT_TRUE(cut.subset.empty());
}

TEST(Queyranne, AllZeroStartsAreCut) {
  // Everything starting at 0 violates the pair/triple inequalities.
  const std::vector<double> t = {2.0, 3.0, 4.0};
  const std::vector<double> x = {0.0, 0.0, 0.0};
  const auto cut = separate_queyranne_cut(t, x);
  ASSERT_FALSE(cut.subset.empty());
  EXPECT_GT(cut.violation, 0.0);
  // The worst prefix is the full set here.
  EXPECT_EQ(cut.subset.size(), 3u);
}

TEST(Queyranne, PartialViolationFindsPrefix) {
  // Two tasks overlapping at the front, one legitimately late.
  const std::vector<double> t = {2.0, 2.0, 1.0};
  const std::vector<double> x = {0.0, 0.5, 100.0};
  const auto cut = separate_queyranne_cut(t, x);
  ASSERT_EQ(cut.subset.size(), 2u);
  EXPECT_TRUE((cut.subset[0] == 0 && cut.subset[1] == 1) ||
              (cut.subset[0] == 1 && cut.subset[1] == 0));
}

TEST(Queyranne, SingleTaskNeverCut) {
  const auto cut = separate_queyranne_cut({5.0}, {0.0});
  EXPECT_TRUE(cut.subset.empty());
}

TEST(Queyranne, FullSetBound) {
  // 1/2 [ (2+3)^2 + (4+9) ] = 1/2 [25 + 13] = 19.
  EXPECT_DOUBLE_EQ(queyranne_full_set_bound({2.0, 3.0}), 19.0);
  EXPECT_DOUBLE_EQ(queyranne_full_set_bound({}), 0.0);
}

TEST(Queyranne, SizeMismatchThrows) {
  EXPECT_THROW(separate_queyranne_cut({1.0, 2.0}, {0.0}), common::Error);
}

TEST(Queyranne, AnySingleMachineScheduleIsFeasible) {
  // Property: sequential schedules in any order satisfy all subsets.
  common::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5;
    std::vector<double> t(n);
    for (auto& v : t) v = rng.uniform(0.5, 5.0);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform_int(i + 1)]);
    }
    std::vector<double> x(n, 0.0);
    double clock = 0.0;
    for (std::size_t k : order) {
      x[k] = clock;
      clock += t[k];
    }
    EXPECT_TRUE(separate_queyranne_cut(t, x).subset.empty());
  }
}

}  // namespace
}  // namespace hare::opt
