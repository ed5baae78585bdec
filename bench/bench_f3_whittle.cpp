// F3 — Whittle's index heuristic for restless bandits [48] and its
// asymptotic optimality as N -> infinity with m/N fixed (Weber–Weiss [44]).
//
// Symmetric instances: N copies of an indexable project, activate N/4 per
// epoch. Series: per-project reward of Whittle vs myopic vs the relaxation
// upper bound. Prediction: Whittle's gap to the bound shrinks with N;
// myopic's does not.
#include <cmath>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "restless/relaxation.hpp"
#include "restless/whittle.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::restless;

int main() {
  Table table("F3: restless bandits, m/N = 1/4 — Whittle index [48,44]");
  table.columns({"N", "Whittle/proj", "myopic/proj", "bound/proj",
                 "Whittle gap", "myopic gap"});

  // The registered "f3-decay" prototype: active work improves the state;
  // passivity lets it decay. The activation budget binds (the relaxation
  // bound is not trivially attainable), so the Weber-Weiss gap has room to
  // shrink with N.
  const experiment::RestlessScenario base =
      experiment::restless_scenario("f3-decay");
  const RestlessProject& proto = base.prototype;

  const auto w = whittle_index(proto);
  if (!w.indexable) {
    Table fail("F3: prototype unexpectedly non-indexable");
    fail.columns({"status"});
    fail.add_row({"non-indexable"});
    fail.verdict(false, "prototype must be indexable");
    return stosched::bench::finish(fail);
  }
  const auto myo = myopic_index(proto);

  // Per population size, Whittle vs myopic run as one CRN-paired engine
  // comparison: restless epochs consume randomness in a policy-independent
  // order, so the pairing is exact and the gap ranking is nearly noise-free.
  experiment::EngineOptions eopt;
  eopt.seed = 20250917;
  bench::note_seed(eopt.seed);
  eopt.min_replications = 8;
  eopt.batch = 8;
  eopt.max_replications = bench::smoke_scale<std::size_t>(64, 8);
  eopt.rel_precision = bench::smoke_scale(0.01, 0.04);

  double first_gap = 0.0, last_gap = 0.0, last_myopic_gap = 0.0;
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    experiment::RestlessScenario scenario = base.with_population(n);
    scenario.horizon = bench::smoke_scale<std::size_t>(8000, 1500);
    scenario.burnin = scenario.horizon / 10;
    const std::size_t m = scenario.activate;
    const double bound =
        solve_relaxation_symmetric(proto, n, m).bound / n;

    const PriorityTable wt(n, w.index), mt(n, myo);
    const auto cmp = experiment::compare_policies(
        scenario, {wt, mt}, eopt, experiment::Pairing::kCommonRandomNumbers);
    const double whittle = cmp.arm[0][0].mean() / n;
    const double myopic = cmp.arm[1][0].mean() / n;

    const double wgap = (bound - whittle) / bound;
    const double mgap = (bound - myopic) / bound;
    if (n == 4) first_gap = wgap;
    last_gap = wgap;
    last_myopic_gap = mgap;
    table.add_row({std::to_string(n), fmt(whittle, 4), fmt(myopic, 4),
                   fmt(bound, 4), fmt_pct(wgap), fmt_pct(mgap)});
  }
  table.note("bound = Whittle LP relaxation (valid upper bound per project)");
  table.note("engine: CRN-paired Whittle/myopic arms per N, max " +
             std::to_string(eopt.max_replications) + " replications");
  table.verdict(last_gap < first_gap,
                "Whittle gap to the relaxation shrinks with N (Weber-Weiss)");
  table.verdict(last_gap < 0.05, "Whittle within 5% of the bound at N=64");
  // On *symmetric monotone* instances myopic is known to be competitive;
  // the defensible claim here is non-inferiority (the strict separation is
  // exercised on heterogeneous instances in T7/T8).
  table.verdict(last_gap < last_myopic_gap + 0.01,
                "Whittle not beaten by myopic beyond noise at large N");
  return stosched::bench::finish(table);
}
