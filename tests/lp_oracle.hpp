// Independent LP oracle: a cold two-phase dense tableau simplex.
//
// Shares nothing with opt::RevisedSimplex beyond the LinearProgram it
// reads. Lower bounds are shifted out (x = l + x'), finite upper bounds
// become explicit ≤ rows, every row gets a slack/surplus and — for ≥ and =
// rows — an artificial. Phase 1 drives the artificials to zero, phase 2
// minimizes the true objective with artificials banned from entering.
// Pricing is Dantzig (most positive reduced cost), and Bland's rule takes
// over after 64 non-improving pivots, so degenerate programs such as
// Beale's cycling example terminate. There is no warm start: every call
// solves from the all-slack basis.
#pragma once

#include <cstddef>

#include "opt/simplex.hpp"

namespace hare::testing {

/// Solve `lp` cold. `pivots`, when given, receives the pivot count.
[[nodiscard]] opt::LpSolution oracle_solve(const opt::LinearProgram& lp,
                                           std::size_t max_iterations = 100000,
                                           std::size_t* pivots = nullptr);

}  // namespace hare::testing
