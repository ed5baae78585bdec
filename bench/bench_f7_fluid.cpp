// F7 — fluid approximations of multiclass queues [11, 3]: the scaled
// stochastic backlog under a priority rule tracks the fluid trajectory
// (functional LLN), and the fluid cost ranking of policies predicts the
// stochastic ranking — the premise of fluid-model scheduling heuristics.
//
// Runs on the experiment engine: the registered "f7-fluid" scenario, one
// CRN-paired comparison of the cµ priority against its reverse. Each
// replication reports the fluid-scaled cost integral plus the scaled backlog
// path, so the FLLN overlay and the policy ranking share one run.
#include <cmath>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "queueing/fluid.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;

int main() {
  Table table("F7: fluid limit of a 2-class priority queue [11,3]");

  FluidScenario scenario = fluid_scenario("f7-fluid");
  scenario.scale = bench::smoke_scale(400.0, 100.0);
  const int n_label = static_cast<int>(scenario.scale);
  table.columns({"t / T_drain", "fluid q1", "fluid q2",
                 "sim q1/n (n=" + std::to_string(n_label) + ")",
                 "sim q2/n (n=" + std::to_string(n_label) + ")", "max dev"});

  const auto priority = queueing::fluid_cmu_priority(scenario.classes);
  const std::vector<std::size_t> reverse(priority.rbegin(), priority.rend());
  const auto fluid =
      queueing::fluid_drain(scenario.classes, scenario.initial, priority);

  EngineOptions opt;
  opt.seed = 7;
  bench::note_seed(opt.seed);
  opt.min_replications = bench::smoke_scale<std::size_t>(48, 16);
  opt.batch = 16;
  opt.max_replications = bench::smoke_scale<std::size_t>(128, 16);
  opt.rel_precision = 0.02;
  opt.tracked = {0};  // stop on the cost-integral difference CI
  const auto cmp = compare_policies(scenario, {priority, reverse}, opt,
                                    Pairing::kCommonRandomNumbers);

  const std::size_t nc = scenario.classes.size();
  double worst_dev = 0.0;
  for (std::size_t i = 0; i < scenario.path_fractions.size(); ++i) {
    const auto f = fluid.at(scenario.path_fractions[i] * fluid.drain_time);
    double dev = 0.0;
    std::vector<double> sim(nc);
    for (std::size_t j = 0; j < nc; ++j) {
      sim[j] = cmp.arm[0][1 + i * nc + j].mean();
      dev = std::max(dev, std::abs(sim[j] - f[j]));
    }
    worst_dev = std::max(worst_dev, dev);
    table.add_row({fmt(scenario.path_fractions[i], 1), fmt(f[0], 3),
                   fmt(f[1], 3), fmt(sim[0], 3), fmt(sim[1], 3),
                   fmt(dev, 3)});
  }

  // Policy ranking: fluid cost integral vs the engine's stochastic cost
  // integral for the cµ order and its reverse.
  const double fluid_good = fluid.cost_integral;
  const double fluid_bad =
      queueing::fluid_drain(scenario.classes, scenario.initial, reverse)
          .cost_integral;
  const double sto_good = cmp.arm[0][0].mean();
  const double sto_bad = cmp.arm[1][0].mean();

  table.note("fluid ranking: cmu " + fmt(fluid_good, 2) + " < reverse " +
             fmt(fluid_bad, 2) + "; stochastic: " + fmt(sto_good, 2) +
             " vs " + fmt(sto_bad, 2));
  table.note("engine: " + std::to_string(cmp.replications) +
             " CRN replications/arm" +
             (cmp.converged ? "" : " (precision cap hit)"));
  table.verdict(worst_dev < 0.12,
                "scaled sample paths track the fluid trajectory (FLLN)");
  table.verdict(fluid_good < fluid_bad && sto_good < sto_bad,
                "fluid cost ranking predicts the stochastic ranking");
  return stosched::bench::finish(table);
}
