#include "opt/simplex.hpp"

#include <cmath>

namespace hare::opt {

namespace {

/// Perturbation scale: neighbouring offsets differ by δ, ten times the
/// solver's reduced-cost tolerance (1e-7), so the perturbed optimum is a
/// unique vertex; and δ·(2n + 2) stays far below any job weight, so the
/// perturbation only breaks ties among the unperturbed optima.
constexpr double kDelta = 1e-6;

}  // namespace

double perturbation_cost(std::size_t k, std::size_t n) {
  return kDelta * static_cast<double>(n + 2 + k);
}

double snap_lp_value(double v) { return std::round(v * 1e6) / 1e6; }

}  // namespace hare::opt
