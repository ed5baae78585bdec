// dense_simplex.hpp — the dense two-phase tableau simplex, the reference
// lp::solve is differential-tested against. Not part of libstosched: the
// stosched_lp_dense target links it only into the tests and bench_micro_lp
// that compare with it. Every pivot updates the whole (m+1)×(n+1) tableau,
// so it suits small instances only. Like lp::solve, it follows
// lp/tolerances.hpp and bumps the process-wide LP counters.
#pragma once

#include <cstddef>

#include "lp/simplex.hpp"

namespace stosched::lp {

/// Solve with the dense two-phase primal simplex. Deterministic.
Solution solve_dense(const Problem& p, std::size_t max_iterations = 100000);

}  // namespace stosched::lp
