// F10 — scheduling under bursty (MMPP) arrivals: the cµ priority's edge
// over FCFS survives — and widens in absolute terms — when the input is
// correlated instead of Poisson. Memoryless traffic is the *easiest* regime
// for a work-conserving baseline; burstiness piles up backlog during ON
// phases, which is exactly when serving the high-cµ classes first pays.
//
// Runs on the experiment engine: the registered T9 mix swept across
// asymptotic-IDC levels via with_burstiness (IDC 1 = the Poisson base),
// one CRN-paired FCFS-vs-cµ comparison per level (both arms replay the
// identical MMPP arrival epochs), sequential-precision stopping on the
// cost-rate difference. The bench JSON carries the arrival metadata block
// ("mmpp" at the top sweep level) so bench_compare.py refuses to diff this
// trajectory against a Poisson-only one.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;

int main() {
  Table table("F10: FCFS vs c-mu on the T9 mix under bursty MMPP arrivals");
  table.columns({"IDC", "FCFS cost", "c-mu cost", "gap", "c-mu wins?"});

  const std::vector<double> idc_levels{1.0, 3.0, 9.0};
  const QueueScenario base = queue_scenario("t9-three-class");
  const QueuePolicy fcfs{"fcfs", queueing::Discipline::kFcfs, {}};
  const QueuePolicy cmu{"c-mu", queueing::Discipline::kPriorityNonPreemptive,
                        queueing::cmu_order(base.classes)};

  EngineOptions opt;
  opt.seed = 110;
  bench::note_seed(opt.seed);
  opt.min_replications = 32;
  opt.batch = 32;
  opt.max_replications = bench::smoke_scale<std::size_t>(512, 32);
  opt.rel_precision = 0.10;
  opt.tracked = {0};  // the cost-rate difference is what the sweep is about

  std::vector<double> fcfs_cost, gap;
  bool cmu_always_wins = true, converged = true;
  std::size_t total_reps = 0;
  for (const double idc : idc_levels) {
    QueueScenario s =
        idc > 1.0 ? with_burstiness(base, idc) : base;  // IDC 1 == Poisson
    s.horizon = bench::smoke_scale(2e4, 2e3);
    s.warmup = bench::smoke_scale(2e3, 2e2);
    const auto cmp = compare_policies(s, {fcfs, cmu}, opt,
                                      Pairing::kCommonRandomNumbers);
    const double f = cmp.arm[0][0].mean();
    const double c = cmp.arm[1][0].mean();
    fcfs_cost.push_back(f);
    gap.push_back(f - c);
    cmu_always_wins = cmu_always_wins && cmp.diff[0][0].mean() < 0.0;
    converged = converged && cmp.converged;
    total_reps += cmp.replications;
    table.add_row({fmt(idc, 0), fmt(f, 3), fmt(c, 3), fmt(f - c, 3),
                   cmp.diff[0][0].mean() < 0.0 ? "yes" : "NO"});
  }

  table.note("CRN pairs: both arms replay identical MMPP arrival epochs");
  table.note("engine: " + std::to_string(total_reps) +
             " total CRN replications" +
             (converged ? "" : " (precision cap hit)"));
  table.verdict(cmu_always_wins,
                "c-mu (weakly) beats FCFS at every burstiness level");
  table.verdict(fcfs_cost.back() > fcfs_cost.front(),
                "burstiness raises the FCFS cost (IDC 9 vs Poisson)");
  table.verdict(gap.back() > gap.front(),
                "the absolute FCFS - c-mu gap widens with burstiness");
  // The sweep's top level is the trajectory's traffic tag.
  return bench::finish(table, {"mmpp", idc_levels.back()});
}
