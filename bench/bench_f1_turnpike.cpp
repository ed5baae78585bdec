// F1 — turnpike optimality of Smith's rule on parallel machines [46]:
// the WSEPT heuristic's absolute suboptimality gap stays bounded as the
// batch grows, so its *relative* gap vanishes.
//
// Two panels: (a) exact panel — small exponential instances where the DP
// optimum is computable: gap(WSEPT) vs n stays flat; (b) scaling panel —
// large batches where WSEPT is compared against the Eastman–Even–Isaacs
// style lower bound; relative gap -> 0.
#include <cmath>

#include "batch/job.hpp"
#include "batch/parallel_machines.hpp"
#include "batch/single_machine.hpp"
#include "batch/subset_dp.hpp"
#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::batch;

int main() {
  const unsigned m = 3;
  Rng master(4242);

  // Both panels share one table (and one bench_common::finish exit) so the
  // JSON mirror — and with it bench_history.jsonl — carries every row and
  // verdict of the experiment. The "baseline" column is the DP optimum in
  // the exact panel and the fast-machine lower bound in the scaling panel.
  Table table("F1: WSEPT turnpike optimality on parallel machines (m=3)");
  table.columns({"panel", "n", "WSEPT", "baseline", "rel gap"});

  // Panel (a): exact absolute gaps on exponential instances.
  double first_gap = 0.0, last_gap = 0.0;
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u}) {
    Rng rng = master.stream(n);
    std::vector<ExpJob> jobs(n);
    Batch batch;
    for (auto& j : jobs) {
      j.rate = rng.uniform(0.4, 2.5);
      j.weight = rng.uniform(0.5, 2.0);
      batch.push_back({j.weight, exponential_dist(j.rate)});
    }
    std::vector<std::size_t> priority = wsept_order(batch);
    const double wsept =
        exp_dp_priority(jobs, m, ExpObjective::kWeightedFlowtime, priority);
    const double opt = exp_dp_optimal(jobs, m, ExpObjective::kWeightedFlowtime);
    const double gap = wsept - opt;
    if (n == 4) first_gap = gap;
    last_gap = gap;
    table.add_row({"exact-vs-DP", std::to_string(n), fmt(wsept), fmt(opt),
                   fmt_pct(gap / opt)});
  }
  table.note("panel a: absolute gap does not grow with n (turnpike property)");
  table.verdict(last_gap < std::max(0.25, 4.0 * first_gap + 0.2),
                "absolute gap stays bounded as n grows");

  // Panel (b): large-n relative gap against the *fast-single-machine*
  // relaxation: a speed-m machine can processor-share the <= m jobs any
  // m-machine policy runs, reproducing its completion times exactly, so the
  // fast machine's preemptive optimum lower-bounds every m-machine policy;
  // with exponential jobs that optimum is the WSEPT index policy, whose
  // value is the exact single-machine WSEPT objective divided by m.
  double last_rel = 1.0;
  bool decreasing = true;
  double prev_rel = 1e9;
  for (const std::size_t n : {20u, 50u, 100u, 300u, 1000u}) {
    // The registered turnpike family; the engine adds replications until the
    // simulated WSEPT mean is tight enough for the 0.5%-slack monotonicity
    // check below.
    const experiment::BatchScenario s = experiment::turnpike_scenario(n);
    const Order order = wsept_order(s.jobs);
    experiment::EngineOptions opt;
    opt.seed = 9;
    bench::note_seed(opt.seed);
    opt.min_replications = 512;
    opt.batch = 1024;
    opt.max_replications = bench::smoke_scale<std::size_t>(65536, 1024);
    opt.rel_precision = bench::smoke_scale(0.003, 0.02);
    const auto res = experiment::run_policy(s, order, opt);
    const double mean = res.metrics[0].mean();
    const double lb = exact_weighted_flowtime(s.jobs, order) / m;
    const double rel = mean / lb - 1.0;
    decreasing = decreasing && rel < prev_rel + 0.005;
    prev_rel = rel;
    last_rel = rel;
    table.add_row({"sim-vs-LB", std::to_string(n), fmt(mean, 1), fmt(lb, 1),
                   fmt_pct(rel)});
  }
  table.note("panel b: vanishing relative gap == asymptotic optimality");
  table.note("engine: sequential precision on the simulated WSEPT mean");
  table.verdict(decreasing && last_rel < 0.02,
                "relative gap decreases toward 0 as n grows");
  return bench::finish(table);
}
