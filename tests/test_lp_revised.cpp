// Tests for lp::solve, the revised simplex: known-optimum instances, a
// randomized differential suite against the dense tableau reference
// (tests/support/dense_simplex.hpp; objective agreement within
// 1e-6, dual/reduced-cost consistency, identical infeasible/unbounded
// verdicts), and warm-start behavior (rhs/cost-perturbed resolves reuse the
// previous basis and take strictly fewer iterations than a cold solve).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "experiment/scenario.hpp"
#include "lp/simplex.hpp"
#include "online/lower_bound.hpp"
#include "online/model.hpp"
#include "restless/relaxation.hpp"
#include "restless/restless_project.hpp"
#include "support/dense_simplex.hpp"
#include "util/rng.hpp"

namespace stosched::lp {
namespace {

double row_activity(const Constraint& c, const std::vector<double>& x) {
  double lhs = 0.0;
  for (std::size_t k = 0; k < c.idx.size(); ++k) lhs += c.val[k] * x[c.idx[k]];
  return lhs;
}

/// Solver-independent optimality certificates, in the caller's sense:
/// primal feasibility, strong duality (objective == duals·rhs — exact here
/// because every bound other than x >= 0 is an explicit row), and the
/// reduced-cost identity rc_j == c_j − Σ_i duals_i a_ij.
void check_certificates(const Problem& p, const Solution& s) {
  ASSERT_TRUE(s.optimal());
  const double scale = 1.0 + std::abs(s.objective);
  for (const Constraint& c : p.constraints) {
    const double lhs = row_activity(c, s.x);
    switch (c.sense) {
      case Sense::kLe:
        EXPECT_LE(lhs, c.rhs + 1e-6 * scale);
        break;
      case Sense::kGe:
        EXPECT_GE(lhs, c.rhs - 1e-6 * scale);
        break;
      case Sense::kEq:
        EXPECT_NEAR(lhs, c.rhs, 1e-6 * scale);
        break;
    }
  }
  double dual_obj = 0.0;
  for (std::size_t i = 0; i < p.constraints.size(); ++i)
    dual_obj += s.duals[i] * p.constraints[i].rhs;
  EXPECT_NEAR(dual_obj, s.objective, 1e-6 * scale);
  std::vector<double> rc(p.costs);
  for (std::size_t i = 0; i < p.constraints.size(); ++i) {
    const Constraint& c = p.constraints[i];
    for (std::size_t k = 0; k < c.idx.size(); ++k)
      rc[c.idx[k]] -= s.duals[i] * c.val[k];
  }
  for (std::size_t j = 0; j < p.costs.size(); ++j)
    EXPECT_NEAR(s.reduced_costs[j], rc[j], 1e-6 * scale) << "variable " << j;
}

TEST(RevisedSimplex, TextbookMaximize) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), z = 36.
  auto p = Problem::maximize({3.0, 5.0});
  p.subject_to({1.0, 0.0}, Sense::kLe, 4.0)
      .subject_to({0.0, 2.0}, Sense::kLe, 12.0)
      .subject_to({3.0, 2.0}, Sense::kLe, 18.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
  // Same duals the dense solver reports: y* = (0, 3/2, 1).
  EXPECT_NEAR(s.duals[0], 0.0, 1e-9);
  EXPECT_NEAR(s.duals[1], 1.5, 1e-9);
  EXPECT_NEAR(s.duals[2], 1.0, 1e-9);
  check_certificates(p, s);
}

TEST(RevisedSimplex, TextbookMinimizeWithGe) {
  auto p = Problem::minimize({2.0, 3.0});
  p.subject_to({1.0, 1.0}, Sense::kGe, 4.0)
      .subject_to({1.0, 0.0}, Sense::kGe, 1.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
  check_certificates(p, s);
}

TEST(RevisedSimplex, EqualityAndNegativeRhs) {
  // max x + 2y s.t. x + y = 3, x - y = 1 -> (2, 1), z = 4. The revised
  // engine does not normalize rhs signs, so feed it an equivalent system
  // with a negative rhs too.
  auto p = Problem::maximize({1.0, 2.0});
  p.subject_to({1.0, 1.0}, Sense::kEq, 3.0)
      .subject_to({-1.0, 1.0}, Sense::kEq, -1.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
  check_certificates(p, s);
}

TEST(RevisedSimplex, FractionalKnapsackKnownOptimum) {
  // max c·x, Σ a_j x_j <= b, x_j <= 1: the greedy-by-density prefix is the
  // unique optimum for distinct densities — an independent ground truth for
  // both engines.
  Rng rng(42);
  const std::size_t n = 40;
  std::vector<double> c(n), a(n);
  for (std::size_t j = 0; j < n; ++j) {
    c[j] = rng.uniform(0.5, 3.0);
    a[j] = rng.uniform(0.5, 2.0);
  }
  const double b = 0.35 * std::accumulate(a.begin(), a.end(), 0.0);
  auto p = Problem::maximize(c);
  p.subject_to_sparse(
      [&] {
        std::vector<std::size_t> idx(n);
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        return idx;
      }(),
      a, Sense::kLe, b);
  for (std::size_t j = 0; j < n; ++j)
    p.subject_to_sparse({j}, {1.0}, Sense::kLe, 1.0);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t u, std::size_t v) {
    return c[u] / a[u] > c[v] / a[v];
  });
  double cap = b, expect = 0.0;
  for (const std::size_t j : order) {
    const double take = std::min(1.0, cap / a[j]);
    if (take <= 0.0) break;
    expect += take * c[j];
    cap -= take * a[j];
  }

  const auto dense = solve_dense(p);
  const auto revised = solve(p);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(dense.objective, expect, 1e-6 * (1.0 + expect));
  EXPECT_NEAR(revised.objective, expect, 1e-6 * (1.0 + expect));
  check_certificates(p, revised);
  // Distinct densities make the optimal basis (hence the duals) unique.
  for (std::size_t i = 0; i < p.constraints.size(); ++i)
    EXPECT_NEAR(dense.duals[i], revised.duals[i], 1e-6);
}

/// Feasible-by-construction random LPs with every sense mixed: pick an
/// interior point x*, then set each row's rhs so x* satisfies it (kEq rows
/// exactly). Minimizing a nonnegative cost keeps the LP bounded.
Problem random_feasible_lp(Rng& rng, std::size_t n, std::size_t m) {
  std::vector<double> costs(n);
  for (auto& c : costs) c = rng.uniform(0.1, 2.0);
  auto p = Problem::minimize(costs);
  std::vector<double> xstar(n);
  for (auto& v : xstar) v = rng.uniform(0.2, 1.5);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::size_t> idx;
    std::vector<double> val;
    double act = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.6) continue;  // ~40% fill
      const double a = rng.uniform(-0.5, 1.5);
      idx.push_back(j);
      val.push_back(a);
      act += a * xstar[j];
    }
    if (idx.empty()) {
      idx.push_back(rng.below(n));
      val.push_back(1.0);
      act = val[0] * xstar[idx[0]];
    }
    const double u = rng.uniform();
    if (u < 0.4) {
      p.subject_to_sparse(std::move(idx), std::move(val), Sense::kLe,
                          act + rng.uniform(0.1, 1.0));
    } else if (u < 0.8) {
      p.subject_to_sparse(std::move(idx), std::move(val), Sense::kGe,
                          act - rng.uniform(0.1, 1.0));
    } else {
      p.subject_to_sparse(std::move(idx), std::move(val), Sense::kEq, act);
    }
  }
  return p;
}

class RevisedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RevisedDifferential, AgreesWithDenseOnFeasibleLps) {
  Rng rng(7000 + GetParam());
  const std::size_t n = 3 + rng.below(12);
  const std::size_t m = 2 + rng.below(10);
  const Problem p = random_feasible_lp(rng, n, m);
  const auto dense = solve_dense(p);
  const auto revised = solve(p);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  const double scale = 1.0 + std::abs(dense.objective);
  EXPECT_NEAR(revised.objective, dense.objective, 1e-6 * scale);
  check_certificates(p, dense);
  check_certificates(p, revised);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedDifferential, ::testing::Range(0, 30));

class RevisedVerdicts : public ::testing::TestWithParam<int> {};

TEST_P(RevisedVerdicts, InfeasibleAndUnboundedMatchDense) {
  Rng rng(8100 + GetParam());
  const std::size_t n = 2 + rng.below(6);
  // Infeasible: a row and its contradiction (Σ x_j <= lo, same Σ >= hi).
  {
    std::vector<double> costs(n, 1.0);
    auto p = Problem::maximize(costs);
    std::vector<double> row(n);
    for (auto& a : row) a = rng.uniform(0.5, 1.5);
    const double lo = rng.uniform(1.0, 2.0);
    p.subject_to(row, Sense::kLe, lo)
        .subject_to(row, Sense::kGe, lo + rng.uniform(1.0, 3.0));
    EXPECT_EQ(solve_dense(p).status, Solution::Status::kInfeasible);
    EXPECT_EQ(solve(p).status, Solution::Status::kInfeasible);
  }
  // Unbounded: maximize a variable no row constrains from above.
  {
    std::vector<double> costs(n, 0.0);
    costs[0] = 1.0;
    auto p = Problem::maximize(costs);
    for (std::size_t j = 1; j < n; ++j)
      p.subject_to_sparse({j}, {1.0}, Sense::kLe, rng.uniform(1.0, 4.0));
    p.subject_to_sparse({0}, {1.0}, Sense::kGe, rng.uniform(0.5, 1.0));
    EXPECT_EQ(solve_dense(p).status, Solution::Status::kUnbounded);
    EXPECT_EQ(solve(p).status, Solution::Status::kUnbounded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedVerdicts, ::testing::Range(0, 10));

TEST(RevisedSimplex, IterationLimitReported) {
  Rng rng(11);
  const Problem p = random_feasible_lp(rng, 10, 8);
  EXPECT_EQ(solve(p, 1).status, Solution::Status::kIterLimit);
}

TEST(RevisedSimplex, SparseBuilderValidatesIndices) {
  auto p = Problem::maximize({1.0, 2.0});
  EXPECT_THROW(p.subject_to_sparse({2}, {1.0}, Sense::kLe, 1.0),
               std::invalid_argument);
  EXPECT_THROW(p.subject_to_sparse({0, 1}, {1.0}, Sense::kLe, 1.0),
               std::invalid_argument);
}

TEST(RevisedSimplex, RedundantEqualityRows) {
  // The occupation-measure LPs carry linearly dependent equality rows; the
  // fixed kEq slack must cover the redundancy without artificial columns.
  auto p = Problem::maximize({1.0, 1.0, 0.5});
  p.subject_to({1.0, 1.0, 0.0}, Sense::kEq, 1.0)
      .subject_to({0.0, 0.0, 1.0}, Sense::kEq, 0.5)
      .subject_to({1.0, 1.0, 1.0}, Sense::kEq, 1.5);  // sum of the first two
  const auto dense = solve_dense(p);
  const auto revised = solve(p);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(revised.objective, dense.objective, 1e-9);
}

TEST(RevisedSimplex, WarmStartTakesFewerIterations) {
  // The CRN-sweep pattern: same constraint matrix, perturbed rhs/costs.
  // Re-solving from the previous optimal basis must reach the same optimum
  // in strictly fewer iterations than a cold solve.
  Rng rng(123);
  Problem p = random_feasible_lp(rng, 30, 20);
  Basis basis;
  const auto first = solve(p, basis);
  ASSERT_TRUE(first.optimal());
  ASSERT_FALSE(basis.empty());

  for (auto& c : p.constraints) c.rhs *= rng.uniform(1.0, 1.05);
  for (auto& c : p.costs) c *= rng.uniform(1.0, 1.02);

  const auto cold = solve(p);
  Basis warm_basis = basis;
  const auto warm = solve(p, warm_basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  const double scale = 1.0 + std::abs(cold.objective);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6 * scale);
  EXPECT_GT(cold.iterations, 0u);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(RevisedSimplex, WarmStartShapeMismatchFallsBackToCold) {
  Rng rng(321);
  const Problem small = random_feasible_lp(rng, 5, 4);
  const Problem big = random_feasible_lp(rng, 12, 9);
  Basis basis;
  ASSERT_TRUE(solve(small, basis).optimal());
  Basis stale = basis;  // wrong shape for `big`
  const auto warm = solve(big, stale);
  const auto cold = solve(big);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(stale.vars, big.costs.size());  // rewritten to the new shape
}

TEST(RevisedSimplex, CountsProcessLpEffort) {
  const auto before = process_lp_counters();
  auto p = Problem::maximize({1.0});
  p.subject_to({1.0}, Sense::kLe, 1.0);
  ASSERT_TRUE(solve(p).optimal());
  ASSERT_TRUE(solve_dense(p).optimal());
  const auto after = process_lp_counters();
  EXPECT_EQ(after.solves, before.solves + 2);
  EXPECT_GE(after.iterations, before.iterations + 1);
}

/// Iteration counts and objectives of production-shaped LPs, recorded from
/// the dense-loop engine. The sparse loops (pattern-tracked FTRAN, row-wise
/// pricing) keep every floating-point operation in the same order, so they
/// must take exactly the same pivots: any drift in `iterations` means a loop
/// changed the pivot sequence, not merely its cost.
struct PinnedSolve {
  std::uint64_t seed;
  std::size_t iterations;
  double objective;
};

void expect_pinned(const Problem& p, const PinnedSolve& pin) {
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal()) << "seed " << pin.seed;
  EXPECT_EQ(s.iterations, pin.iterations) << "seed " << pin.seed;
  EXPECT_NEAR(s.objective, pin.objective,
              1e-12 * std::abs(pin.objective))
      << "seed " << pin.seed;
}

TEST(RevisedSimplex, PivotSequencePinned) {
  // Interval-indexed bound LPs of online-bernoulli instances at the
  // benchmark's horizon (~130 jobs, ~430 rows x ~2000 columns).
  experiment::OnlineScenario s =
      experiment::online_scenario("online-bernoulli");
  s.horizon = 48.0;
  const PinnedSolve online_pins[] = {
      {1, 631, 5162.5527388261653}, {2, 692, 5363.8104076118843},
      {3, 687, 4785.4603088264867}, {4, 351, 4286.6484531889009},
      {5, 471, 5421.2665199622561}, {6, 425, 4942.3495156988911},
  };
  for (const PinnedSolve& pin : online_pins) {
    const Rng root(pin.seed);
    Rng arrival_rng = root.stream(0);
    Rng type_rng = root.stream(1);
    Rng size_rng = root.stream(2);
    Rng sample_rng = root.stream(3);
    const online::OnlineInstance inst = online::generate_online_instance(
        *s.arrival, s.types, s.horizon, arrival_rng, type_rng, size_rng,
        sample_rng);
    expect_pinned(online::interval_indexed_lp(inst, s.env, s.bound), pin);
  }

  // Whittle occupation-measure relaxations: J random projects of 8 states.
  const struct {
    std::size_t projects;
    PinnedSolve pin;
  } whittle_pins[] = {{8, {11, 111, 2.5951705324210237}},
                     {16, {12, 225, 5.4913841575911047}}};
  for (const auto& [projects, pin] : whittle_pins) {
    Rng rng(pin.seed);
    restless::RestlessInstance inst;
    for (std::size_t j = 0; j < projects; ++j)
      inst.projects.push_back(restless::random_restless_project(8, rng));
    inst.activate = projects / 4;
    expect_pinned(restless::relaxation_lp(inst), pin);
  }
}

}  // namespace
}  // namespace stosched::lp
