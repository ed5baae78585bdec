// T11 — queues with changeover (switchover) times [25, 32]: with setups,
// chasing the cµ argmax thrashes; visit-based disciplines (exhaustive,
// gated, limited) amortize the setups.
//
// Setup-duration sweep over the registered "t11-two-queue" system: cost
// rate and time lost to switching per discipline. At each setup value the
// four disciplines run as one CRN-paired engine comparison, so the ranking
// at a sweep point is a paired estimate, not four independent runs.
// Predictions: at negligible setups all disciplines tie (work
// conservation); as setups grow, greedy-cµ degrades fastest and exhaustive
// dominates gated dominates 1-limited.
#include <algorithm>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;
using stosched::queueing::PollingDiscipline;

int main() {
  Table table("T11: polling with changeovers — service disciplines [25]");
  table.columns({"setup", "exhaustive", "gated", "1-limited", "greedy c-mu",
                 "greedy switch%"});

  PollingScenario base = polling_scenario("t11-two-queue");
  base.horizon = bench::smoke_scale(2e4, 5e3);
  base.warmup = bench::smoke_scale(2e3, 5e2);

  const std::vector<PollingPolicy> arms{
      {"exhaustive", PollingDiscipline::kExhaustive},
      {"gated", PollingDiscipline::kGated},
      {"1-limited", PollingDiscipline::kLimited, 1},
      {"greedy c-mu", PollingDiscipline::kGreedyCmu},
  };

  EngineOptions opt;
  opt.seed = 20250915;
  bench::note_seed(opt.seed);
  opt.min_replications = 16;
  opt.batch = 16;
  opt.max_replications = bench::smoke_scale<std::size_t>(192, 24);
  opt.rel_precision = bench::smoke_scale(0.02, 0.08);
  opt.tracked = {0};

  bool exhaustive_wins_large = true;
  double tie_spread = 0.0;
  double greedy_penalty_growth = 0.0, prev_greedy_penalty = 0.0;
  bool penalty_monotone = true;
  for (const double setup : {1e-6, 0.1, 0.4, 1.0, 2.5}) {
    const PollingScenario scenario =
        with_switchover(base, deterministic_dist(setup));
    const auto cmp = compare_policies(scenario, arms, opt,
                                      Pairing::kCommonRandomNumbers);
    const double ex = cmp.arm[0][0].mean();
    const double ga = cmp.arm[1][0].mean();
    const double li = cmp.arm[2][0].mean();
    const double gr = cmp.arm[3][0].mean();
    const double sw = cmp.arm[3][1].mean();  // greedy switching fraction

    if (setup < 1e-3)
      tie_spread = std::max({ex, ga, li, gr}) / std::min({ex, ga, li, gr});
    if (setup >= 1.0)
      exhaustive_wins_large =
          exhaustive_wins_large && ex <= ga * 1.05 && ex <= li && ex <= gr;
    const double penalty = gr / ex;
    if (setup > 0.05) {
      if (penalty < prev_greedy_penalty - 0.15) penalty_monotone = false;
      greedy_penalty_growth = penalty;
      prev_greedy_penalty = penalty;
    }

    table.add_row({fmt(setup, 3), fmt(ex), fmt(ga), fmt(li), fmt(gr),
                   fmt_pct(sw)});
  }
  table.note("symmetric-load 2-queue system; deterministic setups");
  table.note("engine: CRN-paired disciplines per sweep point, max " +
             std::to_string(opt.max_replications) + " replications");
  table.verdict(tie_spread < 1.15,
                "disciplines within 15% of each other at negligible setups");
  table.verdict(exhaustive_wins_large,
                "exhaustive (weakly) dominates at large setups");
  table.verdict(penalty_monotone && greedy_penalty_growth > 1.1,
                "greedy c-mu pays a growing thrashing penalty");
  return stosched::bench::finish(table);
}
