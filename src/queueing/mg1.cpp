#include "queueing/mg1.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "queueing/station.hpp"
#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched::queueing {

double class_arrival_rate(const ClassSpec& c) {
  return c.arrival ? c.arrival->rate() : c.arrival_rate;
}

ArrivalPtr effective_arrival(const ClassSpec& c) {
  if (c.arrival) return c.arrival;
  return c.arrival_rate > 0.0 ? poisson_arrivals(c.arrival_rate) : nullptr;
}

double traffic_intensity(const std::vector<ClassSpec>& classes) {
  double rho = 0.0;
  for (const auto& c : classes) rho += class_arrival_rate(c) * c.service->mean();
  return rho;
}

SimResult simulate_mg1(const std::vector<ClassSpec>& classes,
                       const SimOptions& opt, Rng& rng) {
  STOSCHED_EXPECTS(!classes.empty(), "simulate_mg1 needs at least one class");
  STOSCHED_TRACE_SPAN("sim", "simulate_mg1");
  const std::size_t n = classes.size();
  detail::StationSpec spec =
      detail::class_station(classes, opt.horizon, opt.warmup);
  spec.fcfs = opt.discipline == Discipline::kFcfs;
  if (!spec.fcfs) spec.priority = {opt.priority};
  spec.preemptive = opt.discipline == Discipline::kPriorityPreemptiveResume;
  if (!opt.feedback.empty()) {
    STOSCHED_REQUIRE(opt.discipline == Discipline::kPriorityNonPreemptive,
                     "feedback requires the nonpreemptive discipline");
    STOSCHED_REQUIRE(opt.feedback.size() == n, "feedback matrix shape");
    for (const auto& row : opt.feedback) {
      STOSCHED_REQUIRE(row.size() == n, "feedback matrix shape");
      double total = 0.0;
      for (const double p : row) {
        STOSCHED_REQUIRE(p >= 0.0, "feedback probabilities must be >= 0");
        total += p;
      }
      STOSCHED_REQUIRE(total <= 1.0 + 1e-9, "feedback row sums must be <= 1");
    }
    spec.feedback = &opt.feedback;
  }
  spec.sojourn = true;

  detail::StationKernel sim(std::move(spec), rng);
  sim.run();
  SimResult res;
  res.per_class.resize(n);
  res.time_simulated = opt.horizon;
  for (std::size_t j = 0; j < n; ++j) {
    auto& s = res.per_class[j];
    s.mean_in_system = sim.mean_count(j);
    s.mean_wait = sim.wait_stat[j].mean();
    s.mean_sojourn = sim.sojourn_stat[j].mean();
    s.completions = sim.sojourn_stat[j].count();
    s.throughput = static_cast<double>(s.completions) / opt.horizon;
    res.cost_rate += classes[j].holding_cost * s.mean_in_system;
  }
  res.utilization = sim.mean_busy(0);
  // A single server's busy fraction is a time average of an indicator.
  STOSCHED_ENSURES(res.utilization >= 0.0 && res.utilization <= 1.0 + 1e-9,
                   "M/G/1 utilization outside [0, 1]");
  return res;
}

std::size_t mg1_metric_count(std::size_t num_classes) {
  return 2 + 3 * num_classes;
}

void run_replication(const std::vector<ClassSpec>& classes,
                     const SimOptions& options, Rng& rng,
                     std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == mg1_metric_count(classes.size()),
                   "metric span size mismatch");
  const SimResult res = simulate_mg1(classes, options, rng);
  out[0] = res.cost_rate;
  out[1] = res.utilization;
  for (std::size_t j = 0; j < classes.size(); ++j) {
    out[2 + 3 * j] = res.per_class[j].mean_in_system;
    out[2 + 3 * j + 1] = res.per_class[j].mean_wait;
    out[2 + 3 * j + 2] = res.per_class[j].throughput;
  }
}

SimResult mg1_result_from_metrics(const std::vector<ClassSpec>& classes,
                                  std::span<const double> metric_means) {
  STOSCHED_REQUIRE(metric_means.size() == mg1_metric_count(classes.size()),
                   "metric span size mismatch");
  SimResult res;
  res.cost_rate = metric_means[0];
  res.utilization = metric_means[1];
  res.per_class.resize(classes.size());
  for (std::size_t j = 0; j < classes.size(); ++j) {
    res.per_class[j].mean_in_system = metric_means[2 + 3 * j];
    res.per_class[j].mean_wait = metric_means[2 + 3 * j + 1];
    res.per_class[j].throughput = metric_means[2 + 3 * j + 2];
  }
  return res;
}

}  // namespace stosched::queueing
