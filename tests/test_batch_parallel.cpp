// Tests for batch/ parallel-machine results (survey §1):
//   * the subset DP against closed forms and against simulation;
//   * SEPT optimal for flowtime, LEPT optimal for makespan (exponential) —
//     the theorems of [20] and [10] as property tests over random instances;
//   * two-point counterexample machinery; uniform machines; flow shops;
//     in-tree precedence.
#include <gtest/gtest.h>

#include <cmath>

#include "batch/flow_shop.hpp"
#include "batch/job.hpp"
#include "batch/parallel_machines.hpp"
#include "batch/precedence.hpp"
#include "batch/single_machine.hpp"
#include "batch/subset_dp.hpp"
#include "batch/uniform_machines.hpp"
#include "experiment/adapters.hpp"
#include "util/rng.hpp"

namespace stosched::batch {
namespace {

std::vector<ExpJob> random_exp_jobs(std::size_t n, Rng& rng) {
  std::vector<ExpJob> jobs(n);
  for (auto& j : jobs) {
    j.rate = rng.uniform(0.3, 3.0);
    j.weight = rng.uniform(0.5, 2.0);
  }
  return jobs;
}

TEST(SubsetDp, SingleJobClosedForm) {
  std::vector<ExpJob> jobs{{2.0, 1.0}};
  EXPECT_NEAR(exp_dp_optimal(jobs, 1, ExpObjective::kFlowtime), 0.5, 1e-12);
  EXPECT_NEAR(exp_dp_optimal(jobs, 1, ExpObjective::kMakespan), 0.5, 1e-12);
}

TEST(SubsetDp, TwoJobsTwoMachinesMakespan) {
  // Makespan of two exponentials on two machines:
  // E[max] = 1/mu1 + 1/mu2 - 1/(mu1+mu2).
  std::vector<ExpJob> jobs{{1.0, 1.0}, {2.0, 1.0}};
  const double expected = 1.0 + 0.5 - 1.0 / 3.0;
  EXPECT_NEAR(exp_dp_optimal(jobs, 2, ExpObjective::kMakespan), expected,
              1e-12);
}

TEST(SubsetDp, SingleMachineMatchesWseptClosedForm) {
  Rng rng(21);
  const auto jobs = random_exp_jobs(6, rng);
  // On one machine the DP optimum equals the exact WSEPT value computed by
  // the single-machine formula (means only).
  Batch batch;
  for (const auto& j : jobs)
    batch.push_back({j.weight, exponential_dist(j.rate)});
  double best = 0.0;
  best_order_exhaustive(batch, &best);
  EXPECT_NEAR(exp_dp_optimal(jobs, 1, ExpObjective::kWeightedFlowtime), best,
              1e-9);
}

TEST(SubsetDp, SimulationConfirmsPriorityValue) {
  Rng rng(22);
  const auto jobs = random_exp_jobs(5, rng);
  const double dp = exp_dp_sept(jobs, 2, ExpObjective::kFlowtime);

  // Through the experiment engine: an inline 2-machine batch scenario whose
  // weighted flowtime IS the flowtime (unit weights).
  experiment::BatchScenario scenario;
  scenario.name = "sept-dp-check";
  for (const auto& j : jobs)
    scenario.jobs.push_back({1.0, exponential_dist(j.rate)});
  scenario.machines = 2;
  const Order order = sept_order(scenario.jobs);
  experiment::EngineOptions opt;
  opt.seed = 5;
  opt.max_replications = 40000;
  const auto res = experiment::run_policy(scenario, order, opt);
  const auto est = make_estimate(res.metrics[0]);
  // List policies and DP priority policies coincide for exponential jobs
  // (memorylessness): simulated SEPT must cover the DP value.
  EXPECT_TRUE(est.covers(dp))
      << "dp " << dp << " vs " << est.value << " ± " << est.half_width;
}

class SeptLeptOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SeptLeptOptimality, SeptMinimizesFlowtimeExponential) {
  Rng rng(700 + GetParam());
  const std::size_t n = 3 + rng.below(6);
  const unsigned m = 2 + static_cast<unsigned>(rng.below(2));
  const auto jobs = random_exp_jobs(n, rng);
  const double opt = exp_dp_optimal(jobs, m, ExpObjective::kFlowtime);
  const double sept = exp_dp_sept(jobs, m, ExpObjective::kFlowtime);
  EXPECT_NEAR(sept, opt, 1e-9 * (1.0 + opt));
}

TEST_P(SeptLeptOptimality, LeptMinimizesMakespanExponential) {
  Rng rng(800 + GetParam());
  const std::size_t n = 3 + rng.below(6);
  const unsigned m = 2 + static_cast<unsigned>(rng.below(2));
  const auto jobs = random_exp_jobs(n, rng);
  const double opt = exp_dp_optimal(jobs, m, ExpObjective::kMakespan);
  const double lept = exp_dp_lept(jobs, m, ExpObjective::kMakespan);
  EXPECT_NEAR(lept, opt, 1e-9 * (1.0 + opt));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SeptLeptOptimality,
                         ::testing::Range(0, 20));

TEST(SeptLept, LeptStrictlyWorseForFlowtimeOnSpreadRates) {
  std::vector<ExpJob> jobs{{4.0, 1.0}, {2.0, 1.0}, {0.4, 1.0}, {0.2, 1.0}};
  EXPECT_LT(exp_dp_sept(jobs, 2, ExpObjective::kFlowtime),
            exp_dp_lept(jobs, 2, ExpObjective::kFlowtime) - 1e-6);
}

// ---------------------------------------------------------------------------
// Discrete-law exact list evaluation and the two-point counterexample.
// ---------------------------------------------------------------------------

TEST(DiscreteExact, MatchesHandComputation) {
  // Two deterministic jobs on two machines.
  Batch jobs{{1.0, discrete_dist({2.0}, {1.0})},
             {1.0, discrete_dist({3.0}, {1.0})}};
  const auto o = exact_list_policy_discrete(jobs, {0, 1}, 2);
  EXPECT_DOUBLE_EQ(o.makespan, 3.0);
  EXPECT_DOUBLE_EQ(o.flowtime, 5.0);
}

TEST(DiscreteExact, AgreesWithSimulation) {
  Rng rng(31);
  Batch jobs;
  for (int i = 0; i < 5; ++i) {
    const double a = rng.uniform(0.3, 1.0);
    const double b = a + rng.uniform(1.0, 6.0);
    jobs.push_back({1.0, two_point_dist(a, 0.6, b)});
  }
  const Order order = sept_order(jobs);
  const auto exact = exact_list_policy_discrete(jobs, order, 2);
  experiment::BatchScenario scenario{"discrete-exact-check", "", jobs, 2};
  experiment::EngineOptions opt;
  opt.seed = 3;
  opt.max_replications = 30000;
  const auto res = experiment::run_policy(scenario, order, opt);
  EXPECT_TRUE(make_estimate(res.metrics[0]).covers(exact.flowtime));
}

TEST(TwoPoint, SeptIsNotAlwaysOptimalOnTwoMachines) {
  // Sweep a small family of two-point instances; on at least one, the
  // exhaustive-over-orders optimum beats SEPT strictly (Coffman–Hofri–
  // Weiss: the simple rules fail outside their assumptions [13]).
  Rng rng(33);
  bool found_gap = false;
  for (int trial = 0; trial < 40 && !found_gap; ++trial) {
    Batch jobs;
    const std::size_t n = 4 + rng.below(3);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.uniform(0.05, 0.5);
      const double b = a + rng.uniform(2.0, 12.0);
      const double pa = rng.uniform(0.5, 0.95);
      jobs.push_back({1.0, two_point_dist(a, pa, b)});
    }
    double best = 0.0;
    best_list_order_discrete(jobs, 2, /*use_makespan=*/false, &best);
    const double sept =
        exact_list_policy_discrete(jobs, sept_order(jobs), 2).flowtime;
    if (sept > best + 1e-9) found_gap = true;
  }
  EXPECT_TRUE(found_gap);
}

// ---------------------------------------------------------------------------
// Uniform machines.
// ---------------------------------------------------------------------------

TEST(Uniform, EqualSpeedsReduceToIdenticalMachines) {
  Rng rng(41);
  const auto jobs = random_exp_jobs(6, rng);
  const auto res = uniform2_dp_optimal(jobs, 1.0, 1.0, ExpObjective::kFlowtime);
  EXPECT_NEAR(res.value, exp_dp_optimal(jobs, 2, ExpObjective::kFlowtime),
              1e-9);
}

TEST(Uniform, OptimalIdlesSlowMachineSometimes) {
  // Very slow second machine: near the end it pays to keep it idle.
  std::vector<ExpJob> jobs{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
  const auto res =
      uniform2_dp_optimal(jobs, 1.0, 0.05, ExpObjective::kFlowtime);
  EXPECT_GT(res.idle_states, 0u);
}

TEST(Uniform, OptimalBeatsOrMatchesGreedy) {
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const auto jobs = random_exp_jobs(5, rng);
    const double s2 = rng.uniform(0.05, 1.0);
    const auto opt =
        uniform2_dp_optimal(jobs, 1.0, s2, ExpObjective::kFlowtime);
    Batch batch;
    for (const auto& j : jobs)
      batch.push_back({1.0, exponential_dist(j.rate)});
    const double greedy = uniform2_dp_priority(jobs, 1.0, s2,
                                               ExpObjective::kFlowtime,
                                               sept_order(batch));
    EXPECT_LE(opt.value, greedy + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Flow shops.
// ---------------------------------------------------------------------------

TEST(FlowShop, SingleMachineReducesToSum) {
  std::vector<std::vector<double>> p{{2.0}, {3.0}};
  const auto o = flow_shop_realization(p, {0, 1}, /*blocking=*/false);
  EXPECT_DOUBLE_EQ(o.makespan, 5.0);
}

TEST(FlowShop, ClassicTwoMachineRecurrence) {
  // Jobs p0 = (3,2), p1 = (1,4).
  // Order (1,0): job1 C = (1,5); job0 C = (4, max(4,5)+2 = 7) -> makespan 7.
  // Order (0,1): job0 C = (3,5); job1 C = (4, max(4,5)+4 = 9) -> makespan 9.
  std::vector<std::vector<double>> p{{3.0, 2.0}, {1.0, 4.0}};
  EXPECT_DOUBLE_EQ(flow_shop_realization(p, {1, 0}, false).makespan, 7.0);
  EXPECT_DOUBLE_EQ(flow_shop_realization(p, {0, 1}, false).makespan, 9.0);
}

TEST(FlowShop, BlockingNeverFasterThanInfiniteBuffer) {
  Rng rng(51);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.below(4);
    const std::size_t m = 2 + rng.below(2);
    std::vector<std::vector<double>> p(n, std::vector<double>(m));
    for (auto& row : p)
      for (auto& v : row) v = rng.uniform(0.2, 3.0);
    Order order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    const auto buffered = flow_shop_realization(p, order, false);
    const auto blocked = flow_shop_realization(p, order, true);
    EXPECT_GE(blocked.makespan + 1e-12, buffered.makespan);
  }
}

TEST(FlowShop, TalwarBeatsReverseOnExpTwoMachine) {
  // Exponential 2-machine flow shop: Talwar's rule should (weakly) beat its
  // reverse in expected makespan; check via common-random-numbers.
  Rng master(61);
  std::vector<FlowShopJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({{exponential_dist(master.uniform(0.4, 3.0)),
                     exponential_dist(master.uniform(0.4, 3.0))}});
  }
  const Order talwar = talwar_order(jobs);
  Order reverse(talwar.rbegin(), talwar.rend());
  double t_sum = 0.0, r_sum = 0.0;
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    Rng rng = master.stream(r);
    std::vector<std::vector<double>> p(jobs.size(), std::vector<double>(2));
    for (std::size_t j = 0; j < jobs.size(); ++j)
      for (std::size_t k = 0; k < 2; ++k)
        p[j][k] = jobs[j].stages[k]->sample(rng);
    t_sum += flow_shop_realization(p, talwar, false).makespan;
    r_sum += flow_shop_realization(p, reverse, false).makespan;
  }
  EXPECT_LE(t_sum / reps, r_sum / reps + 0.01);
}

// ---------------------------------------------------------------------------
// In-tree precedence.
// ---------------------------------------------------------------------------

TEST(InTree, GeneratorProducesValidTree) {
  Rng rng(71);
  const InTree t = random_in_tree(50, rng);
  EXPECT_EQ(t.size(), 50u);
  EXPECT_EQ(t.parent[t.root], t.root);
  const auto levels = tree_levels(t);
  EXPECT_EQ(levels[t.root], 0u);
  EXPECT_GE(tree_depth(t), 2u);
}

TEST(InTree, ChainScheduledSerially) {
  // A path graph forces serial execution: makespan = sum of all services.
  InTree chain;
  chain.parent = {0, 0, 1, 2};  // 3 -> 2 -> 1 -> 0
  chain.root = 0;
  Rng rng(72);
  RunningStat s;
  for (int i = 0; i < 20000; ++i)
    s.push(simulate_tree_makespan(chain, 4, 1.0,
                                  TreePolicy::kHighestLevelFirst, rng));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);  // 4 exponential(1) stages
}

TEST(InTree, HlfNoWorseThanFifoEligible) {
  // Through the experiment engine: a CRN-paired comparison on an inline
  // tree scenario (both arms replay the same replication substreams, like
  // the old same-seed monte_carlo pair did).
  Rng master(73);
  experiment::TreeScenario scenario;
  scenario.name = "hlf-vs-fifo";
  scenario.tree = random_in_tree(60, master);
  scenario.machines = 3;
  scenario.rate = 1.0;
  experiment::EngineOptions opt;
  opt.seed = 1;
  opt.max_replications = 4000;
  const auto cmp = experiment::compare_policies(
      scenario, {TreePolicy::kHighestLevelFirst, TreePolicy::kFifoEligible},
      opt, experiment::Pairing::kCommonRandomNumbers);
  const auto& hlf = cmp.arm[0][0];
  const auto& fifo = cmp.arm[1][0];
  EXPECT_LE(hlf.mean(), fifo.mean() + 2.0 * (hlf.sem() + fifo.sem()) + 0.05);
}

}  // namespace
}  // namespace stosched::batch
