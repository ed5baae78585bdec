// F8 — in-tree precedence constraints on parallel machines [31]:
// Highest-Level-First is asymptotically optimal for expected makespan with
// i.i.d. exponential tasks. We track the HLF-to-lower-bound ratio as the
// tree grows (LB = max(total work / m, depth * mean)), plus the greedy
// FIFO-eligible baseline.
//
// Runs on the experiment engine: each tree size is an intree_scenario(n)
// instance, HLF vs FIFO-eligible compared under common random numbers with
// sequential precision on the makespan difference (capped under
// STOSCHED_BENCH_SMOKE).
#include <algorithm>

#include "batch/precedence.hpp"
#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;
using stosched::batch::TreePolicy;

int main() {
  Table table("F8: in-tree precedence, m=3 — HLF vs lower bound [31]");
  table.columns({"n", "depth", "HLF makespan", "FIFO makespan", "LB",
                 "HLF/LB"});

  double first_ratio = 0.0, last_ratio = 0.0;
  bool hlf_dominates = true;
  for (const std::size_t n : {20u, 50u, 100u, 250u, 600u}) {
    const TreeScenario s = intree_scenario(n);
    const double depth = static_cast<double>(batch::tree_depth(s.tree));

    EngineOptions opt;
    opt.seed = n;
    opt.min_replications = bench::smoke_scale<std::size_t>(256, 48);
    opt.batch = 128;
    opt.max_replications = bench::smoke_scale<std::size_t>(1024, 48);
    opt.rel_precision = 0.05;
    opt.tracked = {0};  // stop on the makespan-difference CI
    const auto cmp = compare_policies(
        s, {TreePolicy::kHighestLevelFirst, TreePolicy::kFifoEligible}, opt,
        Pairing::kCommonRandomNumbers);
    const auto& hlf = cmp.arm[0][0];
    const auto& fifo = cmp.arm[1][0];

    const double lb = std::max(
        static_cast<double>(n) / (s.machines * s.rate), depth / s.rate);
    const double ratio = hlf.mean() / lb;
    if (n == 20) first_ratio = ratio;
    last_ratio = ratio;
    hlf_dominates = hlf_dominates &&
                    hlf.mean() <= fifo.mean() + 2.0 * (hlf.sem() + fifo.sem());

    table.add_row({std::to_string(n), fmt(depth, 0),
                   fmt_ci(hlf.mean(), hlf.ci_halfwidth(), 2),
                   fmt_ci(fifo.mean(), fifo.ci_halfwidth(), 2), fmt(lb, 2),
                   fmt(ratio, 3)});
  }
  table.note("LB = max(work/m, depth*mean); ratio -> 1 is asymptotic optimality");
  table.note("engine: CRN-paired HLF vs FIFO per tree, sequential "
             "makespan-difference precision");
  table.verdict(last_ratio < first_ratio,
                "HLF/LB ratio shrinks as the tree grows");
  table.verdict(last_ratio < 1.35, "HLF within 35% of the crude LB at n=600");
  table.verdict(hlf_dominates, "HLF never loses to FIFO-eligible");
  return stosched::bench::finish(table);
}
