// Bit pins for the four queueing simulators. Each case runs a few
// replications through the public `run_replication` entry point and pins
// (a) an FNV-1a digest of every metric's bit pattern and (b) the number of
// future-event-set pops. Any change to a draw, its order, an event's
// tie-break sequence or a statistic's rounding moves a digest, so a
// refactor of the event loops that passes here reproduces the old outputs
// bit for bit. The cases cover every path the simulators have: the three
// M/G/1 disciplines, feedback, batch and MMPP arrivals, one and several
// parallel servers, FCFS and priority networks (deterministic routes,
// `service_mean`-only and law-backed classes) and the four polling rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "queueing/mg1.hpp"
#include "queueing/network.hpp"
#include "queueing/parallel_servers.hpp"
#include "queueing/polling.hpp"
#include "util/rng.hpp"

namespace stosched::queueing {
namespace {

using Runner = std::function<void(Rng&, std::span<double>)>;

struct Pin {
  std::string name;
  std::size_t width;  // metric count
  Runner run;
  std::uint64_t digest;
  std::uint64_t events;
};

struct Observed {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t events = 0;
};

// Four replications from one caller stream, digesting every metric's bytes.
Observed observe(const Pin& pin) {
  Observed obs;
  Rng rng(20240917);
  std::vector<double> out(pin.width);
  const std::uint64_t before = process_event_count();
  for (int rep = 0; rep < 4; ++rep) {
    pin.run(rng, out);
    for (const double x : out) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        obs.digest ^= (bits >> (8 * byte)) & 0xffU;
        obs.digest *= 0x100000001b3ULL;  // FNV-1a prime
      }
    }
  }
  obs.events = process_event_count() - before;
  return obs;
}

void check(const std::vector<Pin>& pins) {
  for (const Pin& pin : pins) {
    const Observed obs = observe(pin);
    EXPECT_EQ(obs.digest, pin.digest) << pin.name;
    EXPECT_EQ(obs.events, pin.events) << pin.name;
  }
}

std::vector<ClassSpec> mixed_classes() {
  return {{0.3, exponential_dist(1.0), 3.0},
          {0.2, erlang_dist(2, 2.0), 1.0},
          {0.15, hyperexp2_dist(0.8, 4.0), 2.0}};
}

Pin mg1_pin(std::string name, std::vector<ClassSpec> classes, SimOptions opt,
            std::uint64_t digest, std::uint64_t events) {
  opt.horizon = 3000.0;
  opt.warmup = 300.0;
  const std::size_t width = mg1_metric_count(classes.size());
  return {std::move(name), width,
          [classes, opt](Rng& rng, std::span<double> out) {
            run_replication(classes, opt, rng, out);
          },
          digest, events};
}

SimOptions priority_options(Discipline d, std::vector<std::size_t> order) {
  SimOptions opt;
  opt.discipline = d;
  opt.priority = std::move(order);
  return opt;
}

TEST(SimPins, Mg1) {
  SimOptions fcfs;
  fcfs.discipline = Discipline::kFcfs;
  SimOptions feedback =
      priority_options(Discipline::kPriorityNonPreemptive, {1, 0, 2});
  feedback.feedback = {{0.0, 0.3, 0.0}, {0.0, 0.0, 0.2}, {0.1, 0.0, 0.0}};
  std::vector<ClassSpec> bursty = mixed_classes();
  bursty[0].arrival = batch_arrivals(exponential_dist(0.1), 3);
  bursty[1].arrival = mmpp_arrivals(0.05, 0.6, 0.02, 0.03);
  std::vector<ClassSpec> geometric = mixed_classes();
  geometric[2].arrival = batch_arrivals_geometric(uniform_dist(5.0, 15.0), 2.0);
  check({
      mg1_pin("nonpreemptive", mixed_classes(),
              priority_options(Discipline::kPriorityNonPreemptive, {2, 0, 1}),
              0x9474cc60bb54901fULL, 17205),
      mg1_pin("preemptive-resume", mixed_classes(),
              priority_options(Discipline::kPriorityPreemptiveResume,
                               {1, 2, 0}),
              0x9ac1d3200841c922ULL, 18828),
      mg1_pin("fcfs", mixed_classes(), fcfs, 0xe8d7d387787b71edULL, 17205),
      mg1_pin("feedback", mixed_classes(), feedback, 0x7645de6dd4fc5d0fULL,
              19567),
      mg1_pin("batch+mmpp preemptive", bursty,
              priority_options(Discipline::kPriorityPreemptiveResume,
                               {0, 2, 1}),
              0xe3864a8fe9b23c79ULL, 18509),
      mg1_pin("geometric batch fcfs", geometric, fcfs,
              0xd8795baf94a54aecULL, 17292),
  });
}

Pin mmm_pin(std::string name, std::vector<ClassSpec> classes, unsigned m,
            std::vector<std::size_t> priority, std::uint64_t digest,
            std::uint64_t events) {
  const std::size_t width = mmm_metric_count(classes.size());
  return {std::move(name), width,
          [classes, m, priority](Rng& rng, std::span<double> out) {
            run_replication(classes, m, priority, 2000.0, 200.0, rng, out);
          },
          digest, events};
}

TEST(SimPins, Mmm) {
  std::vector<ClassSpec> three = mixed_classes();
  for (auto& c : three) c.arrival_rate *= 3.0;
  three[1].arrival = batch_arrivals(exponential_dist(0.2), 3);
  check({
      mmm_pin("m=1", mixed_classes(), 1, {2, 0, 1}, 0x0804c7bcb5ede15eULL,
              11556),
      mmm_pin("m=3", three, 3, {0, 2, 1}, 0xb83e8667c51a3639ULL, 30702),
  });
}

Pin network_pin(std::string name, NetworkConfig config, std::uint64_t digest,
                std::uint64_t events) {
  return {std::move(name), network_metric_count(),
          [config](Rng& rng, std::span<double> out) {
            run_replication(config, 600.0, 24, rng, out);
          },
          digest, events};
}

TEST(SimPins, Network) {
  NetworkConfig rybko = rybko_stolyar_network(1.0, 0.1, 0.6);
  rybko.station_priority = {{3, 0}, {1, 2}};
  NetworkConfig lbfs = reentrant_line_network(0.45, {0, 1, 0, 1, 2},
                                              {0.3, 0.4, 0.5, 0.6, 0.9});
  lbfs.station_priority = {{2, 0}, {3, 1}, {4}};
  NetworkConfig laws = lu_kumar_network(0.8, 0.1, 0.5, 0.1, 0.5, false);
  laws.classes[0].arrival = batch_arrivals(exponential_dist(0.4), 2);
  laws.classes[1].service = lognormal_dist(-1.0, 0.7);
  laws.classes[3].service = deterministic_dist(0.4);
  NetworkConfig laws_priority = laws;
  laws_priority.station_priority = {{0, 3}, {2, 1}};
  check({
      network_pin("lu-kumar fcfs",
                  lu_kumar_network(1.0, 0.1, 0.6, 0.1, 0.6, false),
                  0xc7235561be27be31ULL, 12355),
      network_pin("lu-kumar bad priority",
                  lu_kumar_network(1.0, 0.1, 0.6, 0.1, 0.6, true),
                  0x43f986d1c22ac5e6ULL, 10861),
      network_pin("rybko-stolyar", rybko, 0x7d82ced5d39d8924ULL, 13483),
      network_pin("re-entrant lbfs", lbfs, 0xb80f382abad48343ULL, 6668),
      network_pin("re-entrant fcfs",
                  reentrant_line_network(0.45, {0, 1, 0, 1, 2},
                                         {0.3, 0.4, 0.5, 0.6, 0.9}),
                  0xda1a3810bae751bdULL, 6668),
      network_pin("law-backed fcfs", laws, 0x951fcc513b453f12ULL, 9040),
      network_pin("law-backed priority", laws_priority,
                  0x965009d78bf92b23ULL, 9043),
  });
}

Pin polling_pin(std::string name, PollingDiscipline d, std::size_t limit,
                std::uint64_t digest, std::uint64_t events) {
  PollingOptions opt;
  opt.discipline = d;
  opt.limit = limit;
  opt.switchover = uniform_dist(0.1, 0.5);
  opt.horizon = 2000.0;
  opt.warmup = 200.0;
  std::vector<ClassSpec> classes = mixed_classes();
  classes[2].arrival = batch_arrivals(exponential_dist(0.075), 2);
  return {std::move(name), polling_metric_count(classes.size()),
          [classes, opt](Rng& rng, std::span<double> out) {
            run_replication(classes, opt, rng, out);
          },
          digest, events};
}

TEST(SimPins, Polling) {
  check({
      polling_pin("exhaustive", PollingDiscipline::kExhaustive, 1,
                  0x970d00cc031a9cb5ULL, 13095),
      polling_pin("gated", PollingDiscipline::kGated, 1,
                  0x919cb2e2c7118c5cULL, 13839),
      polling_pin("limited", PollingDiscipline::kLimited, 2,
                  0xa866adb93ad41219ULL, 13911),
      polling_pin("greedy-cmu", PollingDiscipline::kGreedyCmu, 1,
                  0xc202541ddbb8a005ULL, 13786),
  });
}

}  // namespace
}  // namespace stosched::queueing
