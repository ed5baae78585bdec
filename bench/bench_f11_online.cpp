// F11 — stochastic online scheduling on parallel & unrelated machines:
// empirical competitive ratios of four assignment policies against the
// per-instance offline lower bound (release / WSEPT-mean-busy-time /
// interval LP, see online/lower_bound.hpp).
//
// The sweep crosses machine counts, loads and size-SCV levels on the
// identical-machine mix, then the three unrelated-machine scenarios
// (Poisson, bursty MMPP with IDC 6, Bernoulli two-point jobs) plus a small
// LP-audited Bernoulli cell. Every cell is one CRN-paired four-arm
// comparison — all arms replay the identical realized instance — with
// sequential-precision stopping on the ratio differences. The qualitative
// predictions checked: the bound is a true path-by-path lower bound (every
// replication ratio >= 1), greedy WSEPT beats random assignment on every
// unrelated-machine cell, and the greedy ratio stays inside the
// literature's small-constant guarantees.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;

namespace {

struct Cell {
  std::string label;
  OnlineScenario scenario;
  bool unrelated = false;
};

}  // namespace

int main() {
  Table table("F11: online scheduling vs offline lower bound (ratio = "
              "policy cost / LB)");
  table.columns({"cell", "jobs", "greedy", "min-inc", "1-sample", "random",
                 "g-hw", "best"});

  const double horizon_scale = bench::smoke_scale(1.0, 0.4);
  std::vector<Cell> cells;
  {
    const OnlineScenario base = online_scenario("online-identical");
    cells.push_back({"identical m=2", with_machines(base, 2), false});
    cells.push_back({"identical m=4 rho=.75", base, false});
    cells.push_back({"identical m=8", with_machines(base, 8), false});
    cells.push_back({"identical rho=.6", scale_to_load(base, 0.6), false});
    cells.push_back({"identical rho=.9", scale_to_load(base, 0.9), false});
    cells.push_back({"identical scv=.25", with_size_scv(base, 0.25), false});
    cells.push_back({"identical scv=4", with_size_scv(base, 4.0), false});
  }
  cells.push_back({"unrelated", online_scenario("online-unrelated"), true});
  cells.push_back({"unrelated idc=6", online_scenario("online-bursty"), true});
  cells.push_back(
      {"bernoulli", online_scenario("online-bernoulli"), true});
  {
    // Bernoulli cell with the interval-indexed LP bound engaged, so the
    // reported ratios are against the LP-refined bound. ~130 jobs per
    // replication — beyond the dense-era cap of 96; the revised simplex
    // solves each bound LP in tens of milliseconds (see bench_micro_lp).
    OnlineScenario lp = online_scenario("online-bernoulli");
    lp.name += "-lp";
    lp.horizon = 48.0;
    lp.bound.use_lp = true;
    cells.push_back({"bernoulli-lp", std::move(lp), true});
  }

  EngineOptions opt;
  opt.seed = 111;
  bench::note_seed(opt.seed);
  opt.min_replications = 32;
  opt.batch = 32;
  opt.max_replications = bench::smoke_scale<std::size_t>(160, 24);
  opt.rel_precision = 0.08;
  opt.tracked = {0};  // the ratio differences drive the stopping rule

  const auto arms = online_policy_arms();  // greedy, min-inc, 1-sample, random
  const std::vector<std::string> arm_names{"greedy-wsept", "min-increase",
                                           "single-sample", "random"};

  bool all_ratios_ge_one = true;
  bool greedy_beats_random_unrelated = true;
  bool greedy_small_constant = true;
  bool converged = true;
  std::size_t total_reps = 0;
  for (auto& cell : cells) {
    cell.scenario.horizon *= horizon_scale;
    EngineOptions cell_opt = opt;
    if (cell.label == "bernoulli-lp")
      cell_opt.max_replications = bench::smoke_scale<std::size_t>(48, 16);
    const auto cmp = compare_policies(cell.scenario, arms, cell_opt,
                                      Pairing::kCommonRandomNumbers);
    std::size_t best = 0;
    for (std::size_t k = 0; k < arms.size(); ++k) {
      all_ratios_ge_one =
          all_ratios_ge_one && cmp.arm[k][0].min() >= 1.0 - 1e-9;
      if (cmp.arm[k][0].mean() < cmp.arm[best][0].mean()) best = k;
    }
    // Arm 0 is greedy; diff[k-1] = arm k − greedy, so random beating greedy
    // would show as a negative ratio difference.
    if (cell.unrelated)
      greedy_beats_random_unrelated =
          greedy_beats_random_unrelated && cmp.diff[2][0].mean() > 0.0;
    greedy_small_constant =
        greedy_small_constant && cmp.arm[0][0].mean() < 3.0;
    converged = converged && cmp.converged;
    total_reps += cmp.replications;
    table.add_row({cell.label, fmt(cmp.arm[0][3].mean(), 1),
                   fmt(cmp.arm[0][0].mean(), 3), fmt(cmp.arm[1][0].mean(), 3),
                   fmt(cmp.arm[2][0].mean(), 3), fmt(cmp.arm[3][0].mean(), 3),
                   fmt(cmp.arm[0][0].ci_halfwidth(), 3), arm_names[best]});
  }

  table.note("ratio = realized sum w_j C_j / offline lower bound, per path");
  table.note("CRN pairs: all four arms replay identical realized instances");
  table.note("engine: " + std::to_string(total_reps) +
             " total CRN replications" +
             (converged ? "" : " (precision cap hit)"));
  table.verdict(all_ratios_ge_one,
                "offline bound is a true lower bound: every replication of "
                "every policy has ratio >= 1");
  table.verdict(greedy_beats_random_unrelated,
                "greedy WSEPT beats random assignment on every "
                "unrelated-machine cell");
  table.verdict(greedy_small_constant,
                "greedy WSEPT empirical ratio stays below 3 on every cell "
                "(the literature's small-constant regime)");
  // Mixed traffic across rows (Poisson / MMPP / two-point jobs); tag the
  // trajectory with the sweep's top burstiness level.
  return bench::finish(table, {"online-mixed", 6.0});
}
