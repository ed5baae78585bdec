// T10 — Klimov's problem: M/G/1 with Bernoulli feedback; the N-step index
// algorithm yields the optimal static priority [24, 38].
//
// The registered "klimov-t10" network: every static order's exact cost on
// the truncated chain, the dynamic optimum, and a simulated confirmation of
// the Klimov order — all simulated arms paired with common random numbers
// on the experiment engine. Also checks the indices ignore arrival rates.
#include <algorithm>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "queueing/klimov.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;
using stosched::queueing::KlimovNetwork;

int main() {
  Table table("T10: Klimov network — index order vs all static priorities [24]");
  table.columns({"priority", "Klimov order?", "exact cost (trunc MDP)",
                 "simulated cost"});

  QueueScenario scenario = queue_scenario("klimov-t10");
  scenario.horizon = bench::smoke_scale(2e4, 5e3);
  scenario.warmup = bench::smoke_scale(2e3, 5e2);
  KlimovNetwork net;
  net.classes = scenario.classes;
  net.feedback = scenario.feedback;

  const auto klimov = queueing::klimov_indices(net);
  const std::size_t cap = 10;

  // Arm 0 = the Klimov order, then the remaining permutations.
  std::vector<QueuePolicy> arms{
      {"klimov", queueing::Discipline::kPriorityNonPreemptive,
       klimov.priority}};
  std::vector<std::size_t> order{0, 1, 2};
  do {
    if (order != klimov.priority)
      arms.push_back({"", queueing::Discipline::kPriorityNonPreemptive, order});
  } while (std::next_permutation(order.begin(), order.end()));

  EngineOptions opt;
  opt.seed = 20250914;
  bench::note_seed(opt.seed);
  opt.min_replications = 16;
  opt.batch = 16;
  opt.max_replications = bench::smoke_scale<std::size_t>(256, 24);
  opt.rel_precision = bench::smoke_scale(0.015, 0.06);
  opt.tracked = {0};
  const auto cmp = compare_policies(scenario, arms, opt,
                                    Pairing::kCommonRandomNumbers);

  double best_cost = 1e18, klimov_cost = 0.0;
  std::vector<std::pair<std::string, std::size_t>> rows;  // name -> arm index
  for (std::size_t k = 0; k < arms.size(); ++k) {
    std::string name;
    for (const auto c : arms[k].priority) name += std::to_string(c);
    rows.emplace_back(name, k);
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [name, k] : rows) {
    const bool is_klimov = k == 0;
    const double exact =
        queueing::truncated_priority_cost(net, cap, arms[k].priority);
    if (is_klimov) klimov_cost = exact;
    best_cost = std::min(best_cost, exact);
    table.add_row({name, is_klimov ? "yes" : "", fmt(exact),
                   fmt_ci(cmp.arm[k][0].mean(),
                          cmp.arm[k][0].ci_halfwidth())});
  }

  const double dynamic_opt = queueing::truncated_optimal_cost(net, cap);

  // Arrival-rate invariance: double the arrivals, same indices.
  KlimovNetwork scaled = net;
  for (auto& c : scaled.classes) c.arrival_rate *= 1.7;
  const auto scaled_idx = queueing::klimov_indices(scaled);
  bool invariant = true;
  for (std::size_t j = 0; j < 3; ++j)
    invariant = invariant &&
                std::abs(scaled_idx.index[j] - klimov.index[j]) < 1e-9;

  table.note("truncated at " + std::to_string(cap) +
             " jobs/class; dynamic optimum = " + fmt(dynamic_opt));
  table.note("engine: " + std::to_string(cmp.replications) +
             " CRN replications/arm" +
             (cmp.converged ? "" : " (precision cap hit)"));
  table.verdict(klimov_cost <= best_cost * 1.001,
                "Klimov order best among all 3! static priorities");
  table.verdict(klimov_cost <= dynamic_opt * 1.01,
                "Klimov order matches the dynamic optimum (<=1%)");
  table.verdict(invariant, "indices independent of arrival rates");
  return stosched::bench::finish(table);
}
