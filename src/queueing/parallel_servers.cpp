#include "queueing/parallel_servers.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "queueing/mg1_analytic.hpp"
#include "queueing/station.hpp"
#include "util/check.hpp"

namespace stosched::queueing {

MmmResult simulate_mmm(const std::vector<ClassSpec>& classes,
                       unsigned servers,
                       const std::vector<std::size_t>& priority,
                       double horizon, double warmup, Rng& rng) {
  STOSCHED_REQUIRE(servers >= 1, "need at least one server");
  STOSCHED_TRACE_SPAN("sim", "simulate_mmm");
  detail::StationSpec spec = detail::class_station(classes, horizon, warmup);
  spec.servers = servers;
  spec.priority = {priority};

  detail::StationKernel sim(std::move(spec), rng);
  sim.run();
  MmmResult out;
  out.mean_in_system.resize(classes.size());
  for (std::size_t j = 0; j < classes.size(); ++j) {
    out.mean_in_system[j] = sim.mean_count(j);
    out.cost_rate += classes[j].holding_cost * out.mean_in_system[j];
  }
  out.utilization = sim.mean_busy(0) / servers;
  return out;
}

std::size_t mmm_metric_count(std::size_t num_classes) {
  return 2 + num_classes;
}

void run_replication(const std::vector<ClassSpec>& classes, unsigned servers,
                     const std::vector<std::size_t>& priority, double horizon,
                     double warmup, Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == mmm_metric_count(classes.size()),
                   "metric span size mismatch");
  const MmmResult res =
      simulate_mmm(classes, servers, priority, horizon, warmup, rng);
  out[0] = res.cost_rate;
  out[1] = res.utilization;
  for (std::size_t j = 0; j < classes.size(); ++j)
    out[2 + j] = res.mean_in_system[j];
}

double pooled_lower_bound(const std::vector<ClassSpec>& classes,
                          unsigned servers) {
  STOSCHED_REQUIRE(servers >= 1, "need at least one server");
  // Pooled system: one server running `servers` times faster. Exponential
  // services scale exactly: mean/m, second moment 2 (mean/m)^2.
  std::vector<ClassSpec> pooled;
  pooled.reserve(classes.size());
  for (const auto& c : classes) {
    ClassSpec p = c;
    // The Cobham closed forms below are Poisson-rate formulas: collapse any
    // attached arrival process to its effective rate.
    p.arrival_rate = class_arrival_rate(c);
    p.arrival = nullptr;
    p.service = exponential_dist(servers / c.service->mean());
    pooled.push_back(std::move(p));
  }
  STOSCHED_REQUIRE(traffic_intensity(pooled) < 1.0,
                   "pooled system must be stable");
  // cµ is optimal for the pooled M/M/1; its cost is a valid lower bound for
  // the queueing (waiting) portion. Add the in-service population of the
  // original system (ρ_j per class, unaffected by scheduling) to keep the
  // bound in number-in-system units comparable with simulate_mmm.
  const auto order = cmu_order(pooled);
  const auto waits = cobham_waits(pooled, order);
  double bound = 0.0;
  for (std::size_t j = 0; j < classes.size(); ++j) {
    const double lq = pooled[j].arrival_rate * waits[j];  // waiting jobs
    const double in_service =
        pooled[j].arrival_rate * classes[j].service->mean();  // original ρ_j
    bound += classes[j].holding_cost * (lq + in_service / servers);
  }
  return bound;
}

}  // namespace stosched::queueing
