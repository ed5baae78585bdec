// F6 — the stability problem for multiclass queueing networks [9]: nominal
// utilization rho < 1 at every station does NOT guarantee stability. The
// Lu–Kumar network with its destabilizing priority pair diverges although
// both stations satisfy rho = 0.68 < 1; FCFS (and the safe priority pair)
// remain stable. The Rybko–Stolyar crossing-routes network reproduces the
// same virtual-station effect at rho = 0.61: prioritizing the exit classes
// diverges, FCFS and the entry priority do not.
//
// Runs on the experiment engine: the registered "lu-kumar" and
// "rybko-stolyar" scenarios, one CRN-paired comparison per network over
// three priority arms each (all arms replay the same per-class arrival and
// service substreams), replications added until the backlog-difference CIs
// are tight (capped under STOSCHED_BENCH_SMOKE).
#include <algorithm>

#include "bench_common.hpp"
#include "experiment/adapters.hpp"
#include "util/table.hpp"

using namespace stosched;
using namespace stosched::experiment;

namespace {

/// Per-network divergence summary extracted from one CRN comparison whose
/// arms are ordered (destabilizing, FCFS, safe).
struct StabilityOutcome {
  double bad_growth = 0.0, fcfs_growth = 0.0, safe_growth = 0.0;
  double bad_final = 0.0, fcfs_final = 0.0;
  std::size_t replications = 0;
  bool converged = true;
};

StabilityOutcome run_network_rows(Table& table, const char* tag,
                                  const NetworkScenario& scenario,
                                  const std::vector<NetworkPolicy>& arms) {
  EngineOptions opt;
  opt.seed = 100;
  bench::note_seed(opt.seed);
  opt.min_replications = 16;
  opt.batch = 16;
  opt.max_replications = stosched::bench::smoke_scale<std::size_t>(64, 16);
  opt.rel_precision = 0.15;
  opt.tracked = {0};  // stop on the mean-backlog differences vs the bad arm
  const auto cmp = compare_policies(scenario, arms, opt,
                                    Pairing::kCommonRandomNumbers);

  StabilityOutcome out;
  out.replications = cmp.replications;
  out.converged = cmp.converged;
  for (std::size_t k = 0; k < arms.size(); ++k) {
    const double mean_total = cmp.arm[k][0].mean();
    const double final_total = cmp.arm[k][1].mean();
    const double growth = cmp.arm[k][2].mean();
    const bool stable = growth < 0.002;  // jobs per time unit
    if (k == 0) {
      out.bad_growth = growth;
      out.bad_final = final_total;
    }
    if (k == 1) {
      out.fcfs_growth = growth;
      out.fcfs_final = final_total;
    }
    if (k == 2) out.safe_growth = growth;
    table.add_row({std::string(tag) + arms[k].name, fmt(mean_total, 1),
                   fmt(final_total, 0), fmt(1000.0 * growth, 3),
                   stable ? "yes" : "NO (diverges)"});
  }
  return out;
}

}  // namespace

int main() {
  Table table(
      "F6: network stability — Lu-Kumar (rho ≈ 0.68) and Rybko-Stolyar "
      "(rho = 0.61), both < 1 [9]");
  table.columns({"policy", "mean jobs", "final jobs", "growth rate /1e3",
                 "stable?"});

  NetworkScenario lk = network_scenario("lu-kumar");
  lk.horizon = bench::smoke_scale(4e4, 6e3);
  const auto lk_out = run_network_rows(table, "LK: ", lk, lu_kumar_policies());

  NetworkScenario rs = network_scenario("rybko-stolyar");
  rs.horizon = bench::smoke_scale(4e4, 6e3);
  const auto rs_out =
      run_network_rows(table, "RS: ", rs, rybko_stolyar_policies());

  table.note("nominal rho < 1 at both stations in every row");
  table.note("engine: " + std::to_string(lk_out.replications) + "/" +
             std::to_string(rs_out.replications) +
             " CRN replications/arm (LK/RS), horizon " + fmt(lk.horizon, 0) +
             (lk_out.converged && rs_out.converged ? ""
                                                   : " (precision cap hit)"));
  table.verdict(lk_out.bad_growth > 0.01,
                "LK destabilizing priority diverges (linear backlog growth)");
  table.verdict(lk_out.fcfs_growth < 0.002 && lk_out.safe_growth < 0.002,
                "LK FCFS and the safe priority remain stable");
  table.verdict(lk_out.bad_final > 20.0 * std::max(1.0, lk_out.fcfs_final),
                "LK divergent backlog dwarfs the stable one");
  table.verdict(rs_out.bad_growth > 0.01,
                "RS exit-class priority diverges (virtual station overload)");
  table.verdict(rs_out.fcfs_growth < 0.002 && rs_out.safe_growth < 0.002,
                "RS FCFS and the entry priority remain stable");
  return stosched::bench::finish(table);
}
