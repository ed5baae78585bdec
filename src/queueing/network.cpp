#include "queueing/network.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "queueing/station.hpp"
#include "util/check.hpp"

namespace stosched::queueing {

void NetworkConfig::validate() const {
  STOSCHED_REQUIRE(!classes.empty(), "network needs at least one class");
  STOSCHED_REQUIRE(num_stations >= 1, "network needs at least one station");
  for (const auto& c : classes) {
    STOSCHED_REQUIRE(c.station < num_stations, "class station out of range");
    STOSCHED_REQUIRE(network_class_service_mean(c) > 0.0,
                     "service mean must be positive");
    STOSCHED_REQUIRE(c.next == NetworkClass::kExit || c.next < classes.size(),
                     "route target out of range");
    STOSCHED_REQUIRE(c.arrival_rate >= 0.0, "arrival rate must be >= 0");
  }
  if (!station_priority.empty()) {
    STOSCHED_REQUIRE(station_priority.size() == num_stations,
                     "per-station priority shape mismatch");
    std::vector<std::size_t> station;
    station.reserve(classes.size());
    for (const auto& c : classes) station.push_back(c.station);
    detail::require_priority(station_priority, station);
  }
}

double network_class_rate(const NetworkClass& c) {
  return c.arrival ? c.arrival->rate() : c.arrival_rate;
}

double network_class_service_mean(const NetworkClass& c) {
  return c.service ? c.service->mean() : c.service_mean;
}

ArrivalPtr effective_arrival(const NetworkClass& c) {
  if (c.arrival) return c.arrival;
  return c.arrival_rate > 0.0 ? poisson_arrivals(c.arrival_rate) : nullptr;
}

std::vector<double> station_intensities(const NetworkConfig& config) {
  config.validate();
  // Effective class rates along deterministic routes: accumulate from
  // external arrivals down each chain.
  std::vector<double> rate(config.classes.size(), 0.0);
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    double lambda = network_class_rate(config.classes[c]);
    if (lambda <= 0.0) continue;
    std::size_t cur = c, hops = 0;
    while (cur != NetworkClass::kExit) {
      rate[cur] += lambda;
      cur = config.classes[cur].next;
      STOSCHED_REQUIRE(++hops <= config.classes.size(),
                       "routes must be acyclic chains");
    }
  }
  std::vector<double> rho(config.num_stations, 0.0);
  for (std::size_t c = 0; c < config.classes.size(); ++c)
    rho[config.classes[c].station] +=
        rate[c] * network_class_service_mean(config.classes[c]);
  return rho;
}

NetworkTrace simulate_network(const NetworkConfig& config, double horizon,
                              std::size_t samples, Rng& rng) {
  config.validate();
  STOSCHED_REQUIRE(horizon > 0.0 && samples >= 2, "need a horizon and samples");
  STOSCHED_TRACE_SPAN("sim", "simulate_network");
  detail::StationSpec spec;
  for (const auto& c : config.classes) {
    spec.arrival.push_back(effective_arrival(c));
    // Legacy `service_mean`-only classes keep the historical exponential
    // draw as a flat exponential — the same `rng.exponential(1/mean)`.
    spec.service.push_back(
        c.service ? c.service->flat()
                  : FlatSampler::exponential(1.0 / c.service_mean));
    spec.station.push_back(c.station);
    spec.next.push_back(c.next);
  }
  spec.stations = config.num_stations;
  spec.fcfs = config.station_priority.empty();
  spec.priority = config.station_priority;
  spec.per_class = false;  // the total population is all the trace needs
  spec.t_end = horizon;

  detail::StationKernel sim(std::move(spec), rng);
  for (std::size_t s = 1; s <= samples; ++s)
    sim.events.push(
        horizon * static_cast<double>(s) / static_cast<double>(samples),
        detail::kSample);
  sim.run();
  NetworkTrace trace;
  trace.times = std::move(sim.sample_times);
  trace.total_jobs = std::move(sim.samples);
  trace.mean_total = sim.mean_count(0);
  trace.final_total = trace.total_jobs.empty() ? 0.0 : trace.total_jobs.back();

  // Least-squares slope of the sampled totals.
  const std::size_t m = trace.times.size();
  if (m >= 2) {
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      sx += trace.times[i];
      sy += trace.total_jobs[i];
      sxx += trace.times[i] * trace.times[i];
      sxy += trace.times[i] * trace.total_jobs[i];
    }
    const double d = static_cast<double>(m) * sxx - sx * sx;
    trace.growth_rate = d > 0.0 ? (static_cast<double>(m) * sxy - sx * sy) / d
                                : 0.0;
  }
  return trace;
}

std::size_t network_metric_count() { return 3; }

void run_replication(const NetworkConfig& config, double horizon,
                     std::size_t samples, Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == network_metric_count(),
                   "metric span size mismatch");
  const NetworkTrace trace = simulate_network(config, horizon, samples, rng);
  out[0] = trace.mean_total;
  out[1] = trace.final_total;
  out[2] = trace.growth_rate;
}

NetworkConfig lu_kumar_network(double lambda, double m1, double m2, double m3,
                               double m4, bool bad_priority) {
  NetworkConfig cfg;
  cfg.num_stations = 2;
  cfg.classes = {
      // class 0: station A, feeds class 1
      {0, m1, 1, lambda},
      // class 1: station B, feeds class 2
      {1, m2, 2, 0.0},
      // class 2: station B, feeds class 3
      {1, m3, 3, 0.0},
      // class 3: station A, exits
      {0, m4, NetworkClass::kExit, 0.0},
  };
  if (bad_priority) {
    // The destabilizing pair: 4 over 1 at A (classes 3 > 0), 2 over 3 at B
    // (classes 1 > 2).
    cfg.station_priority = {{3, 0}, {1, 2}};
  }
  return cfg;
}

NetworkConfig rybko_stolyar_network(double lambda, double m_in, double m_out) {
  STOSCHED_REQUIRE(lambda > 0.0 && m_in > 0.0 && m_out > 0.0,
                   "Rybko-Stolyar parameters must be positive");
  NetworkConfig cfg;
  cfg.num_stations = 2;
  cfg.classes = {
      // route A: class 0 @ station 0 -> class 1 @ station 1 -> exit
      {0, m_in, 1, lambda, nullptr},
      {1, m_out, NetworkClass::kExit, 0.0, nullptr},
      // route B: class 2 @ station 1 -> class 3 @ station 0 -> exit
      {1, m_in, 3, lambda, nullptr},
      {0, m_out, NetworkClass::kExit, 0.0, nullptr},
  };
  return cfg;
}

NetworkConfig reentrant_line_network(double lambda,
                                     const std::vector<std::size_t>& stations,
                                     const std::vector<double>& means) {
  STOSCHED_REQUIRE(lambda > 0.0, "re-entrant line needs a positive rate");
  STOSCHED_REQUIRE(!stations.empty() && stations.size() == means.size(),
                   "re-entrant line needs matching, nonempty stations/means");
  NetworkConfig cfg;
  cfg.num_stations = 0;
  cfg.classes.reserve(stations.size());
  for (std::size_t i = 0; i < stations.size(); ++i) {
    NetworkClass c;
    c.station = stations[i];
    c.service_mean = means[i];
    c.next = i + 1 < stations.size() ? i + 1 : NetworkClass::kExit;
    c.arrival_rate = i == 0 ? lambda : 0.0;
    cfg.classes.push_back(std::move(c));
    cfg.num_stations = std::max(cfg.num_stations, stations[i] + 1);
  }
  return cfg;
}

}  // namespace stosched::queueing
