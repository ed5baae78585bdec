// lower_bound.hpp — exact offline lower bounds on Σ w_j C_j per realized
// instance, the denominator of the empirical competitive ratio.
//
// Every policy run produces a feasible nonpreemptive schedule of the
// realized instance (releases r_j, realized processing times
// p_ij = size_j / speed[i][type_j]), so its cost is >= OPT(ω) >= LB(ω)
// path by path — the reported per-replication ratio cost / LB is therefore
// always >= 1 and upper-bounds the true empirical competitive ratio.
// Three bounds, combined by max:
//
//   * release bound — Σ w_j (r_j + min_i p_ij): every job must be fully
//     processed somewhere after it arrives;
//   * WSEPT mean-busy-time bound — relax to m identical machines with
//     q_j = min_i p_ij (running every job at its best speed only shortens
//     schedules), then to a single speed-m machine shared preemptively
//     (time-sharing emulates any parallel schedule exactly). On that
//     relaxation Σ w_j M_j is minimized by preemptive WSPT (Goemans), and
//     C_j >= M_j + q_j / (2m) for any schedule, giving the classical
//     LP-equivalent bound Σ w_j (M_j^WSPT + q_j / (2m)) in O(n log n);
//   * interval-indexed LP — the Hall–Schulz–Shmoys–Wein relaxation on
//     geometric intervals: fractions x_ijt of job j on machine i in
//     interval t, machine capacity per interval, release-respecting
//     placement, and C_j >= max(Σ x τ_{t-1}, r_j + Σ x p_ij). The instance
//     is polynomially sized and very sparse (a handful of nonzeros per
//     row), so it is built with sparse rows and solved by the revised
//     simplex (lp::solve) — hundreds of jobs are
//     routine, and the job cap is only a guard against accidentally
//     gigantic instances. The combinatorial bounds still carry the big
//     sweeps (the LP costs a solve per replication); the LP tightens the
//     audited cells and checks the cheap bounds in tests.
#pragma once

#include <cstddef>

#include "lp/simplex.hpp"
#include "online/model.hpp"

namespace stosched::online {

struct OfflineBoundOptions {
  bool use_lp = false;          ///< also solve the interval-indexed LP
  std::size_t lp_job_cap = 512; ///< skip the LP above this many jobs
  /// Always lp::Solver::kRevised, the one engine; nothing here reads it.
  /// Kept only for perfbench, which passes it to lp::solve.
  lp::Solver lp_solver = lp::Solver::kRevised;
};

/// The combined bound and its ingredients (lp_bound is 0 when skipped).
struct OfflineBound {
  double value = 0.0;          ///< max of the bounds below
  double release_bound = 0.0;
  double busy_bound = 0.0;
  double lp_bound = 0.0;
};

/// Lower bound on Σ w_j C_j over all nonpreemptive offline schedules of the
/// realized instance. Deterministic; an empty instance yields all zeros.
OfflineBound offline_lower_bound(const OnlineInstance& inst,
                                 const Environment& env,
                                 const std::vector<JobType>& types,
                                 const OfflineBoundOptions& opt = {});

/// The HSSW interval-indexed LP itself (minimize Σ w_j C_j, variables
/// C_0..C_{n-1} then the placement fractions x_ijt, on a time grid that
/// doubles per interval), exposed so benches and tests can generate real
/// bound-shaped sparse instances without duplicating the construction.
/// Requires a non-degenerate instance: at least one job with positive
/// best-machine processing time or positive release date. `opt` is not
/// read; the parameter stays for perfbench's call.
lp::Problem interval_indexed_lp(const OnlineInstance& inst,
                                const Environment& env,
                                const OfflineBoundOptions& opt = {});

}  // namespace stosched::online
