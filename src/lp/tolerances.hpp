// tolerances.hpp — the numeric policy of the LP engine and its reference.
//
// The sparse revised simplex (revised_simplex.cpp) is differential-tested
// against the dense tableau reference (tests/support/dense_simplex.cpp), so
// they must agree on what "zero" means: a pivot below kPivot is treated as
// structural zero, a basic value within kFeas of its bound is feasible, and
// ratio-test ties within kRatioTie are broken by Bland-friendly smallest
// index. Keeping the constants here (instead of per-TU copies) is what makes
// "objective agreement within 1e-6" a statement about the algorithms rather
// than about two silently different arithmetic regimes.
#pragma once

namespace stosched::lp::tol {

/// Entries at or below this magnitude never serve as pivots and never count
/// as an improving reduced cost.
inline constexpr double kPivot = 1e-9;

/// A basic variable within this distance of its bound (or an infeasibility
/// sum below it) counts as feasible.
inline constexpr double kFeas = 1e-7;

/// Ratio-test ties within this width are broken by smallest basis index —
/// the lexicographic-ish rule both engines share for anti-cycling.
inline constexpr double kRatioTie = 1e-12;

/// A pivot step shorter than this counts as degenerate; a streak of them
/// flips pricing from Dantzig to Bland.
inline constexpr double kDegenerateStep = 1e-12;

/// Eta entries below this magnitude are dropped when the revised solver
/// appends an update or refactorizes (bounds fill without hurting the
/// refactorization residual below).
inline constexpr double kEtaDrop = 1e-12;

/// Contract bound on the refactorization residual max_i |B·B⁻¹eᵢ − eᵢ|
/// probed after every rebuild of the eta file (checked when
/// STOSCHED_CONTRACTS arms ghost code).
inline constexpr double kRefactorResidual = 1e-6;

}  // namespace stosched::lp::tol
