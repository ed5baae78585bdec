// simulate.hpp — the online-scheduling simulator and its engine adapter.
//
// One replication = one realized sample path pushed through each policy
// under comparison: jobs arrive over time, are assigned to a machine the
// instant they arrive (using believed processing times only), and each
// machine serves its queue nonpreemptively in the policy's local priority
// order while the *realized* processing times drive the clock. Because
// assignment and sequencing condition only on believed state, the simulator
// keeps the believed and realized views strictly separate: policies receive
// `MachineState` (no realized quantities), the event loop owns the realized
// completion clocks.
//
// The replication metric vector is
//   [ratio, weighted_completion, lower_bound, jobs]
// with ratio = Σ w_j C_j / offline_lower_bound on the same path — the
// policy's schedule is a feasible offline schedule, so ratio >= 1 path by
// path and its replication mean is an empirical competitive-ratio estimate
// with a CI.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "online/lower_bound.hpp"
#include "online/model.hpp"
#include "online/policies.hpp"
#include "util/rng.hpp"

namespace stosched::online {

/// Realized outcome of one policy run over one instance.
struct OnlineResult {
  double weighted_completion = 0.0;  ///< Σ w_j C_j
  double weighted_flowtime = 0.0;    ///< Σ w_j (C_j − r_j)
  double makespan = 0.0;             ///< max C_j (0 for an empty instance)
  std::size_t jobs = 0;
};

/// Run `policy` over the realized `inst`. Deterministic in (inst, env,
/// types, policy, policy_rng state); only randomized policies draw from
/// `policy_rng`.
OnlineResult simulate_online(const OnlineInstance& inst,
                             const Environment& env,
                             const std::vector<JobType>& types,
                             const OnlinePolicy& policy, Rng& policy_rng);

/// Experiment-engine adapter: metric vector layout is
///   [ratio, weighted_completion, lower_bound, jobs].
std::size_t online_metric_count();

/// Uniform replication entry point for K >= 1 policies on one realized
/// instance: derive the five per-purpose substreams (arrival, type, size,
/// sample, policy) from one draw of `rng`, generate the instance and bound
/// it offline once, then run each policy on a fresh copy of the policy
/// substream. `out` holds K metric vectors back to back (policy k's at
/// `out[k * online_metric_count()]`). Each policy's vector is bit-identical
/// to a one-policy call replaying the same `rng` state, so CRN arms may be
/// scored together here (one instance, one LP solve per replication) or
/// one call per arm with the same result.
void run_online_replication(const ArrivalProcess& arrival,
                            const std::vector<JobType>& types,
                            const Environment& env, double horizon,
                            const OfflineBoundOptions& bound,
                            std::span<const OnlinePolicy* const> policies,
                            Rng& rng, std::span<double> out);

}  // namespace stosched::online
