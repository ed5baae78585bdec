// F5 — parallel scheduling of multiclass M/M/m queues [22]: the cµ/Klimov
// priority is asymptotically optimal in heavy traffic; its gap to the
// pooled-server (achievable-region) lower bound vanishes as rho -> 1.
//
// Runs on the experiment engine: the registered "parallel-pooling" scenario
// swept across loads with mmm_scale_to_load, each load a CRN-paired
// comparison of the cµ order against its reverse (both arms replay the same
// per-class arrival and service substreams), replications added until the
// cost-difference CI is tight (capped under STOSCHED_BENCH_SMOKE).
#include <vector>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "queueing/mg1_analytic.hpp"
#include "queueing/parallel_servers.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;

int main() {
  Table table("F5: multiclass M/M/2 — c-mu priority vs pooled bound [22]");
  table.columns({"rho", "c-mu cost (sim)", "pooled LB", "rel gap",
                 "reverse order cost"});

  const MmmScenario base = mmm_scenario("parallel-pooling");
  double first_gap = 0.0, last_gap = 0.0;
  bool cmu_beats_reverse_heavy = true;
  for (const double rho : {0.5, 0.7, 0.85, 0.93, 0.97}) {
    MmmScenario s = mmm_scale_to_load(base, rho);
    s.horizon = bench::smoke_scale(rho > 0.9 ? 2e5 : 1e5,
                                   rho > 0.9 ? 2.5e4 : 6e3);
    s.warmup = s.horizon / 10.0;

    const auto order = queueing::cmu_order(s.classes);
    const std::vector<MmmPolicy> arms{
        {"c-mu", order},
        {"reverse", {order.rbegin(), order.rend()}}};

    EngineOptions opt;
    opt.seed = 10 + static_cast<std::uint64_t>(rho * 100);
    opt.min_replications = 16;
    opt.batch = 16;
    opt.max_replications = bench::smoke_scale<std::size_t>(32, 16);
    opt.rel_precision = 0.03;
    opt.tracked = {0};  // stop on the cost-rate difference CI
    const auto cmp =
        compare_policies(s, arms, opt, Pairing::kCommonRandomNumbers);

    const double good_cost = cmp.arm[0][0].mean();
    const double bad_cost = cmp.arm[1][0].mean();
    const double lb = queueing::pooled_lower_bound(s.classes, s.servers);
    const double gap = (good_cost - lb) / good_cost;
    if (rho == 0.5) first_gap = gap;
    last_gap = gap;
    if (rho > 0.9)
      cmu_beats_reverse_heavy = cmu_beats_reverse_heavy &&
                                good_cost < bad_cost;

    table.add_row({fmt(rho, 2), fmt(good_cost), fmt(lb), fmt_pct(gap),
                   fmt(bad_cost)});
  }
  table.note("LB: optimal cost of the pooled 2x-fast M/M/1 (resource pooling)");
  table.note("engine: CRN-paired c-mu vs reverse per load, sequential "
             "cost-difference precision");
  table.verdict(last_gap < first_gap,
                "relative gap to the bound shrinks toward heavy traffic");
  table.verdict(last_gap < 0.12, "gap below 12% at rho = 0.97");
  table.verdict(cmu_beats_reverse_heavy,
                "c-mu beats the reversed order in heavy traffic");
  return stosched::bench::finish(table);
}
