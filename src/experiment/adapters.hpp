// adapters.hpp — glue between scenarios, simulators and the engine.
//
// Each simulator family exposes a `run_replication(model, Rng&, out)` entry
// point in its own module. This layer gives every scenario family one hook
// over it: a *policy arm* type, `metric_count(s)` and
// `run_replication(s, arm, rng, out)`. Two templates drive any family through
// the engine, so an experiment reads as
//
//     auto res = run_policy(queue_scenario("t9-three-class"),
//                           {"c-mu", Discipline::kPriorityNonPreemptive, cmu},
//                           opts);
//     auto cmp = compare_policies(scenario, {fcfs, cmu}, opts,
//                                 Pairing::kCommonRandomNumbers);
//
// The policy arm is deliberately separate from the scenario: a CRN
// comparison varies the arm while replaying the same workload randomness.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "batch/job.hpp"
#include "experiment/engine.hpp"
#include "experiment/scenario.hpp"
#include "online/policies.hpp"
#include "online/simulate.hpp"
#include "restless/restless_sim.hpp"

namespace stosched::experiment {

/// One M/G/1 scheduling policy under comparison.
struct QueuePolicy {
  std::string name;
  queueing::Discipline discipline = queueing::Discipline::kFcfs;
  std::vector<std::size_t> priority;  ///< empty for FCFS
};

/// One polling discipline under comparison.
struct PollingPolicy {
  std::string name;
  queueing::PollingDiscipline discipline =
      queueing::PollingDiscipline::kExhaustive;
  std::size_t limit = 1;
};

/// One per-station priority assignment for a network scenario. Empty lists
/// mean FCFS at every station; non-empty lists must cover each station's
/// classes exactly (NetworkConfig::validate enforces it).
struct NetworkPolicy {
  std::string name;
  std::vector<std::vector<std::size_t>> station_priority;
};

/// One static priority order for an M/M/m scenario.
struct MmmPolicy {
  std::string name;
  std::vector<std::size_t> priority;
};

/// The named policy arms of the Lu–Kumar stability experiment, in bench F6
/// order: the destabilizing pair (arm 0), FCFS, and the safe first-stage
/// pair — the canonical bad/stable contrast on the "lu-kumar" scenario.
std::vector<NetworkPolicy> lu_kumar_policies();

/// The policy arms of the Rybko–Stolyar experiment: the destabilizing
/// exit-class priority pair (arm 0), FCFS, and the safe entry-class pair —
/// for the "rybko-stolyar" scenario.
std::vector<NetworkPolicy> rybko_stolyar_policies();

/// Buffer-order policy arms for a re-entrant line (single route, class
/// index = buffer position): LBFS (last buffer first served, arm 0), FBFS
/// (first buffer first), and FCFS. Derived generically from the config's
/// station/class layout, so any reentrant_line_network instance works.
std::vector<NetworkPolicy> reentrant_policies(
    const queueing::NetworkConfig& config);

/// The canonical online-scheduling arms, in bench F11 order: greedy WSEPT
/// (arm 0, the baseline paired differences are taken against),
/// MinIncrease, single-sample SEPT, and random assignment.
std::vector<online::OnlinePolicyPtr> online_policy_arms();

/// Metric layout of each scenario family (delegates to the simulator).
std::size_t metric_count(const QueueScenario& s);
std::size_t metric_count(const PollingScenario& s);
/// Restless: the average per-epoch reward.
inline std::size_t metric_count(const RestlessScenario&) { return 1; }
/// Batch: the realized weighted flowtime.
inline std::size_t metric_count(const BatchScenario&) { return 1; }
std::size_t metric_count(const NetworkScenario& s);
std::size_t metric_count(const MmmScenario& s);
/// Fluid layout: [cost_integral, then per path fraction i, per class j:
/// scaled level q_j(t_i)/n].
std::size_t metric_count(const FluidScenario& s);
/// Tree: the realized makespan.
inline std::size_t metric_count(const TreeScenario&) { return 1; }
/// Online layout: [ratio, weighted_completion, lower_bound, jobs].
std::size_t metric_count(const OnlineScenario& s);

/// One replication of one policy arm on a scenario, into `out` (size
/// metric_count(s)). Each overload prepares its arm itself (merges it into
/// the simulator's options), so the templates below need nothing else.
void run_replication(const QueueScenario& s, const QueuePolicy& policy,
                     Rng& rng, std::span<double> out);
void run_replication(const PollingScenario& s, const PollingPolicy& policy,
                     Rng& rng, std::span<double> out);
void run_replication(const RestlessScenario& s,
                     const restless::PriorityTable& priority, Rng& rng,
                     std::span<double> out);
/// Batch: list policy on s.machines machines; the exact single-machine path
/// when machines == 1.
void run_replication(const BatchScenario& s, const batch::Order& order,
                     Rng& rng, std::span<double> out);
void run_replication(const NetworkScenario& s, const NetworkPolicy& policy,
                     Rng& rng, std::span<double> out);
void run_replication(const MmmScenario& s, const MmmPolicy& policy, Rng& rng,
                     std::span<double> out);
/// Fluid: the policy arm is a priority order over the fluid classes.
void run_replication(const FluidScenario& s,
                     const std::vector<std::size_t>& priority, Rng& rng,
                     std::span<double> out);
void run_replication(const TreeScenario& s, batch::TreePolicy policy,
                     Rng& rng, std::span<double> out);
void run_replication(const OnlineScenario& s,
                     const online::OnlinePolicy& policy, Rng& rng,
                     std::span<double> out);

/// The policy-arm type of each scenario family, so that a braced list of
/// arms (`compare_policies(s, {a, b}, ...)`) needs no spelled-out type.
template <class S>
struct PolicyArm;
template <> struct PolicyArm<QueueScenario> { using type = QueuePolicy; };
template <> struct PolicyArm<PollingScenario> { using type = PollingPolicy; };
template <> struct PolicyArm<RestlessScenario> {
  using type = restless::PriorityTable;
};
template <> struct PolicyArm<BatchScenario> { using type = batch::Order; };
template <> struct PolicyArm<NetworkScenario> { using type = NetworkPolicy; };
template <> struct PolicyArm<MmmScenario> { using type = MmmPolicy; };
template <> struct PolicyArm<FluidScenario> {
  using type = std::vector<std::size_t>;
};
template <> struct PolicyArm<TreeScenario> { using type = batch::TreePolicy; };
template <> struct PolicyArm<OnlineScenario> {
  using type = online::OnlinePolicyPtr;
};

/// Replications of one policy arm on one scenario.
template <class S, class Arm = typename PolicyArm<S>::type>
EngineResult run_policy(const S& s, const Arm& arm, const EngineOptions& opt) {
  return run(opt, metric_count(s),
             [&](std::size_t, Rng& rng, std::span<double> out) {
               run_replication(s, arm, rng, out);
             });
}

/// Paired comparison of K policy arms on one scenario (arm 0 is the
/// baseline the differences are taken against).
template <class S, class Arm = typename PolicyArm<S>::type>
PairedResult compare_policies(const S& s, const std::vector<Arm>& arms,
                              const EngineOptions& opt, Pairing pairing) {
  return run_paired(opt, arms.size(), metric_count(s), pairing,
                    [&](std::size_t, std::size_t k, Rng& rng,
                        std::span<double> out) {
                      run_replication(s, arms[k], rng, out);
                    });
}

/// Online arms: under CRN every arm shares one realized instance, so it is
/// generated and bounded once per replication; independent streams give
/// every arm its own instance.
PairedResult compare_policies(const OnlineScenario& s,
                              const std::vector<online::OnlinePolicyPtr>& arms,
                              const EngineOptions& opt, Pairing pairing);

// The three forwards below keep the names perfbench/ calls; it is their
// only caller.
inline PairedResult compare_queue_policies(const QueueScenario& s,
                                           const std::vector<QueuePolicy>& arms,
                                           const EngineOptions& opt,
                                           Pairing pairing) {
  return compare_policies(s, arms, opt, pairing);
}
inline PairedResult compare_network_policies(
    const NetworkScenario& s, const std::vector<NetworkPolicy>& arms,
    const EngineOptions& opt, Pairing pairing) {
  return compare_policies(s, arms, opt, pairing);
}
inline PairedResult compare_online_policies(
    const OnlineScenario& s, const std::vector<online::OnlinePolicyPtr>& arms,
    const EngineOptions& opt, Pairing pairing) {
  return compare_policies(s, arms, opt, pairing);
}

}  // namespace stosched::experiment
