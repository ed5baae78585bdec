// T9 — the cµ rule is optimal for the multiclass M/G/1 queue [15].
//
// One instance (the registered "t9-three-class" scenario), every static
// priority order: Cobham's closed-form cost, the simulated cost rate with a
// sequential-precision CI, and the Kleinrock conservation residual.
// Prediction: the cµ order minimizes the cost; all orders satisfy the
// conservation law.
//
// Runs on the experiment engine: one paired comparison with the cµ order as
// the baseline arm, all arms replaying common random numbers, replications
// added until the cost-rate CIs are tight (capped under STOSCHED_BENCH_SMOKE).
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "core/conservation.hpp"
#include "experiment/adapters.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;

int main() {
  Table table("T9: multiclass M/G/1 — the c-mu rule across all orders [15]");
  table.columns({"priority order", "c-mu index order?", "Cobham cost",
                 "simulated cost", "vs c-mu (CRN)", "conservation resid"});

  QueueScenario scenario = queue_scenario("t9-three-class");
  scenario.horizon = bench::smoke_scale(2e4, 5e3);
  scenario.warmup = bench::smoke_scale(2e3, 5e2);
  const auto cmu = queueing::cmu_order(scenario.classes);

  // Arm 0 = the cµ order (paired baseline), then every other permutation.
  std::vector<QueuePolicy> arms{
      {"c-mu", queueing::Discipline::kPriorityNonPreemptive, cmu}};
  std::vector<std::size_t> order{0, 1, 2};
  do {
    if (order != cmu)
      arms.push_back({"", queueing::Discipline::kPriorityNonPreemptive, order});
  } while (std::next_permutation(order.begin(), order.end()));

  EngineOptions opt;
  opt.seed = 20250913;
  bench::note_seed(opt.seed);
  opt.min_replications = 16;
  opt.batch = 16;
  opt.max_replications = bench::smoke_scale<std::size_t>(256, 24);
  opt.rel_precision = bench::smoke_scale(0.01, 0.05);
  opt.tracked = {0};  // stop on the cost-rate CIs
  const auto cmp = compare_policies(scenario, arms, opt,
                                    Pairing::kCommonRandomNumbers);

  double best_cost = 1e18;
  std::string best_order, cmu_str;
  bool conservation_ok = true;
  bool sim_matches = true;
  std::vector<double> means(metric_count(scenario));
  for (std::size_t k = 0; k < arms.size(); ++k) {
    std::string name;
    for (const auto c : arms[k].priority) name += std::to_string(c);
    const bool is_cmu = k == 0;
    if (is_cmu) cmu_str = name;

    const double analytic =
        queueing::cobham_cost_rate(scenario.classes, arms[k].priority);
    for (std::size_t d = 0; d < means.size(); ++d)
      means[d] = cmp.arm[k][d].mean();
    const auto res = queueing::mg1_result_from_metrics(scenario.classes,
                                                       means);
    const auto audit = core::audit_conservation(scenario.classes, res);

    conservation_ok = conservation_ok && audit.rel_error < 0.08;
    sim_matches =
        sim_matches && std::abs(res.cost_rate - analytic) < 0.10 * analytic;
    if (analytic < best_cost) {
      best_cost = analytic;
      best_order = name;
    }
    const std::string delta =
        is_cmu ? "baseline"
               : fmt_ci(cmp.diff[k - 1][0].mean(),
                        cmp.diff[k - 1][0].ci_halfwidth());
    table.add_row({name, is_cmu ? "yes" : "", fmt(analytic),
                   fmt_ci(res.cost_rate, cmp.arm[k][0].ci_halfwidth()), delta,
                   fmt_pct(audit.rel_error)});
  }

  table.note("engine: " + std::to_string(cmp.replications) +
             " CRN replications/arm, horizon " + fmt(scenario.horizon, 0) +
             " after warmup" + (cmp.converged ? "" : " (precision cap hit)"));
  table.verdict(best_order == cmu_str,
                "the c-mu order minimizes the cost over all 3! orders");
  table.verdict(sim_matches, "simulation within 10% of Cobham on every row");
  table.verdict(conservation_ok,
                "Kleinrock conservation law holds on every row (<8%)");
  return stosched::bench::finish(table);
}
