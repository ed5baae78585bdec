// Tests for the warm-up rule the queueing simulators share: time-averages
// restart at the warmup *epoch*, so the measured window is exactly
// [warmup, warmup + horizon] even when no event falls inside it. Two angles:
//   * a window covered by one long service must report a busy fraction of
//     exactly 1 (M/G/1 utilization, polling serving fraction);
//   * nonpreemptive M/G/1 is M/M/m with one server, so the two simulators
//     must agree bit for bit on every seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "queueing/mg1.hpp"
#include "queueing/parallel_servers.hpp"
#include "queueing/polling.hpp"
#include "util/rng.hpp"

namespace stosched::queueing {
namespace {

// One class whose first job (if it arrives before t = 50) holds the server
// for 1000 time units, far past the window [50, 55].
std::vector<ClassSpec> one_long_job_class() {
  return {{0.05, deterministic_dist(1000.0), 1.0}};
}

// True when the first arrival of the stream `seed` lands before t = 50: the
// same caller state run over [0, 50] shows a busy server.
bool first_arrival_before_warmup(std::uint64_t seed) {
  SimOptions probe;
  probe.warmup = 0.0;
  probe.horizon = 50.0;
  probe.discipline = Discipline::kFcfs;
  Rng rng(seed);
  return simulate_mg1(one_long_job_class(), probe, rng).utilization > 0.0;
}

TEST(WarmupEpoch, Mg1WindowInsideOneServiceIsFullyBusy) {
  SimOptions opt;
  opt.warmup = 50.0;
  opt.horizon = 5.0;
  opt.discipline = Discipline::kFcfs;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    if (!first_arrival_before_warmup(seed)) continue;
    ++checked;
    Rng rng(seed);
    const SimResult res = simulate_mg1(one_long_job_class(), opt, rng);
    EXPECT_EQ(res.utilization, 1.0) << "seed " << seed;
    EXPECT_GE(res.per_class[0].mean_in_system, 1.0) << "seed " << seed;
  }
  EXPECT_GE(checked, 20);
}

TEST(WarmupEpoch, PollingWindowInsideOneServiceIsFullyServing) {
  PollingOptions opt;
  opt.warmup = 50.0;
  opt.horizon = 5.0;
  opt.switchover = deterministic_dist(0.5);
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    if (!first_arrival_before_warmup(seed)) continue;
    ++checked;
    Rng rng(seed);
    const PollingResult res = simulate_polling(one_long_job_class(), opt, rng);
    EXPECT_EQ(res.serving_fraction, 1.0) << "seed " << seed;
    EXPECT_EQ(res.switching_fraction, 0.0) << "seed " << seed;
  }
  EXPECT_GE(checked, 20);
}

TEST(WarmupEpoch, NonpreemptiveMg1IsMmmWithOneServer) {
  const std::vector<ClassSpec> classes{
      {0.25, exponential_dist(1.0), 3.0},
      {0.2, erlang_dist(3, 2.5), 1.0},
      {0.15, hyperexp2_dist(1.2, 4.0), 2.0},
      {0.1, lognormal_dist(-0.5, 0.8), 0.5,
       renewal_arrivals(uniform_dist(5.0, 15.0))},
  };
  const std::vector<std::size_t> priority{2, 0, 3, 1};
  SimOptions opt;
  opt.warmup = 40.0;
  opt.horizon = 400.0;
  opt.priority = priority;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng a(seed), b(seed);
    const SimResult g = simulate_mg1(classes, opt, a);
    const MmmResult m =
        simulate_mmm(classes, 1, priority, opt.horizon, opt.warmup, b);
    EXPECT_EQ(g.utilization, m.utilization) << "seed " << seed;
    EXPECT_EQ(g.cost_rate, m.cost_rate) << "seed " << seed;
    for (std::size_t j = 0; j < classes.size(); ++j)
      EXPECT_EQ(g.per_class[j].mean_in_system, m.mean_in_system[j])
          << "seed " << seed << " class " << j;
  }
}

}  // namespace
}  // namespace stosched::queueing
