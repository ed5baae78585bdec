// simplex.hpp — the LP front door: Problem/Solution types and lp::solve,
// the library's one LP engine, a sparse revised primal simplex with a
// factorized basis and warm starts (revised_simplex.cpp).
//
// The survey's modern results lean on linear programming three times:
//   * Whittle's restless-bandit relaxation [48] and the primal-dual index
//     heuristic built on its optimal basis [7] (§2);
//   * achievable-region / conservation-law bounds for multiclass queues
//     [4,8,22] (§3);
//   * the Hall–Schulz–Shmoys–Wein interval-indexed lower bound for online
//     scheduling (online/lower_bound.hpp), whose instances are large and
//     very sparse.
// Constraints are stored sparsely — rows of (column, coefficient) pairs —
// so a 500-job interval-indexed LP costs megabytes, not the gigabytes dense
// rows would; subject_to() still accepts dense coefficient vectors and
// compacts them.
//
// The engine keeps the basis inverse as an eta file (lp/sparse.hpp) and
// lets each step's cost scale with nonzeros: pricing is one BTRAN plus Aᵀy
// accumulated row-wise over a CSR copy of A, only over rows whose dual is
// nonzero; the ratio test, the x_B update, the new eta and refactorization
// walk the nonzero pattern of an FTRAN'd column. Every floating-point
// operation happens in the order of a dense sweep, so the pivot sequence and
// every output bit are those of the dense loops (tests/test_lp_revised.cpp
// pins iteration counts). Bounded variables are native: kGe/kEq rows get
// slack bounds ((-∞,0] / [0,0]) instead of artificial columns, and phase 1
// minimizes the basics' total bound violation. That is what makes warm
// starts cheap: a basis from a neighbouring solve (same shape, perturbed
// rhs/costs — the CRN sweep pattern) is usually a handful of phase-1 pivots
// from feasible, instead of a full artificial-variable restart.
//
// Numerical policy (lp/tolerances.hpp): Dantzig pricing with a switch to
// Bland's rule after a run of degenerate pivots (guarantees termination),
// explicit feasibility phase (no Big-M constants to tune), pivot tolerance
// tol::kPivot. Solutions report primal values, constraint duals and reduced
// costs — the restless-bandit heuristic consumes the latter. The dense
// tableau reference (tests/support/dense_simplex.hpp) shares that policy;
// tests/test_lp_revised.cpp differential-tests the two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/tolerances.hpp"

namespace stosched::lp {

/// Inequality sense of one constraint row.
enum class Sense { kLe, kGe, kEq };

/// A single linear constraint in sparse form: Σ val[k]·x[idx[k]] (sense) rhs.
/// Duplicate indices are allowed and contribute additively.
struct Constraint {
  std::vector<std::size_t> idx;
  std::vector<double> val;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// max/min c·x subject to constraints and x >= 0.
struct Problem {
  enum class Objective { kMaximize, kMinimize };
  Objective objective = Objective::kMaximize;
  std::vector<double> costs;           ///< c, one entry per variable
  std::vector<Constraint> constraints;

  /// Convenience builders.
  static Problem maximize(std::vector<double> costs);
  static Problem minimize(std::vector<double> costs);
  /// Dense row: width must equal the variable count; zeros are compacted.
  Problem& subject_to(const std::vector<double>& coeffs, Sense sense,
                      double rhs);
  /// Sparse row: indices must be in range (duplicates add up).
  Problem& subject_to_sparse(std::vector<std::size_t> idx,
                             std::vector<double> val, Sense sense, double rhs);
};

/// Outcome of a solve.
struct Solution {
  enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };
  Status status = Status::kIterLimit;
  double objective = 0.0;              ///< in the problem's own sense
  std::vector<double> x;               ///< primal values
  std::vector<double> duals;           ///< one per constraint (shadow prices)
  std::vector<double> reduced_costs;   ///< one per structural variable
  std::size_t iterations = 0;

  [[nodiscard]] bool optimal() const { return status == Status::kOptimal; }
};

std::string to_string(Solution::Status s);

/// Where a variable sits relative to its bounds. Nonbasic variables rest
/// exactly on a finite bound; basic values are implied by the basis.
enum class VarStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// A simplex basis in exportable form: one status per variable (structural
/// variables first, then one slack per row) and the basic variable of each
/// row. solve() fills it on success; passing it back into a solve of a
/// same-shaped problem (identical variable/row counts — rhs and costs may
/// differ) re-pivots from there instead of restarting phase 1. Incompatible
/// or singular bases are detected and fall back to a cold start.
struct Basis {
  std::size_t vars = 0;  ///< structural variables
  std::size_t rows = 0;  ///< constraint rows
  std::vector<VarStatus> status;   ///< vars + rows entries
  std::vector<std::uint32_t> basic;  ///< per row: index of its basic variable

  [[nodiscard]] bool empty() const { return status.empty(); }
  /// Structurally usable for a problem with the given shape?
  [[nodiscard]] bool matches(std::size_t n_vars, std::size_t n_rows) const;
};

/// Cold solve with the revised simplex. Deterministic.
Solution solve(const Problem& p, std::size_t max_iterations = 100000);

/// Warm solve: start from `basis` when it matches the problem's shape and
/// factorizes cleanly (else cold-start). On any completed solve the final
/// basis is written back, so successive calls chain naturally.
Solution solve(const Problem& p, Basis& basis,
               std::size_t max_iterations = 100000);

/// Engine selector with one engine: kept only for perfbench's
/// solve(p, Solver) call; no other engine stands behind it.
enum class Solver { kRevised };

/// Same as solve(p, max_iterations); kept only for perfbench.
Solution solve(const Problem& p, Solver solver,
               std::size_t max_iterations = 100000);

/// Process-wide LP effort counters, mirroring des/event_queue.hpp's event
/// counters: every completed solve (any thread) adds its iteration count.
/// The totals are order-independent sums, so they are bit-identical across
/// OpenMP schedules — bench_compare.py gates on lp_iterations in --exact
/// mode while lp_solves_per_sec is the warn-only perf trajectory.
struct LpCounters {
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;
};
LpCounters process_lp_counters() noexcept;
void add_process_lp_solve(std::uint64_t iterations) noexcept;

}  // namespace stosched::lp
