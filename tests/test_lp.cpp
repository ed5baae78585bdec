// Tests for lp/: textbook LPs with known optima, infeasible/unbounded
// detection, duals and reduced costs, and randomized primal-dual
// consistency checks (weak duality + complementary slackness). Every case
// runs on both engines: lp::solve and the dense tableau reference.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/simplex.hpp"
#include "support/dense_simplex.hpp"
#include "util/rng.hpp"

namespace stosched::lp {
namespace {

/// An LP engine under test.
using Engine = Solution (*)(const Problem&);
constexpr Engine kRevised = [](const Problem& p) { return solve(p); };
constexpr Engine kDense = [](const Problem& p) { return solve_dense(p); };

/// Defines `name` once over an engine `solve` and runs it as
/// Simplex.<name> on lp::solve and DenseSimplex.<name> on the reference.
#define ENGINE_TEST(name)                    \
  void name(Engine solve);                   \
  TEST(Simplex, name) { name(kRevised); }    \
  TEST(DenseSimplex, name) { name(kDense); } \
  void name(Engine solve)

ENGINE_TEST(TextbookMaximize) {
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
}

ENGINE_TEST(TextbookMinimizeWithGe) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1 -> (4, 0)? No: cost of x is lower,
  // so x = 4, y = 0, z = 8.
  auto p = Problem::minimize({2.0, 3.0});
  p.subject_to({1.0, 1.0}, Sense::kGe, 4.0)
      .subject_to({1.0, 0.0}, Sense::kGe, 1.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

ENGINE_TEST(EqualityConstraints) {
  // max x + 2y s.t. x + y = 3, x - y = 1 -> (2, 1), z = 4.
  auto p = Problem::maximize({1.0, 2.0});
  p.subject_to({1.0, 1.0}, Sense::kEq, 3.0)
      .subject_to({1.0, -1.0}, Sense::kEq, 1.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
}

ENGINE_TEST(DetectsInfeasible) {
  auto p = Problem::maximize({1.0});
  p.subject_to({1.0}, Sense::kLe, 1.0).subject_to({1.0}, Sense::kGe, 2.0);
  EXPECT_EQ(solve(p).status, Solution::Status::kInfeasible);
}

ENGINE_TEST(DetectsUnbounded) {
  auto p = Problem::maximize({1.0, 0.0});
  p.subject_to({0.0, 1.0}, Sense::kLe, 1.0);
  EXPECT_EQ(solve(p).status, Solution::Status::kUnbounded);
}

ENGINE_TEST(NegativeRhsNormalization) {
  // x >= 0, -x <= -2  <=>  x >= 2; min x -> 2.
  auto p = Problem::minimize({1.0});
  p.subject_to({-1.0}, Sense::kLe, -2.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

ENGINE_TEST(DualsOfMaxProblem) {
  // max 3x + 5y as above; duals should price the binding constraints:
  // y* = (0, 3/2, 1).
  auto p = Problem::maximize({3.0, 5.0});
  p.subject_to({1.0, 0.0}, Sense::kLe, 4.0)
      .subject_to({0.0, 2.0}, Sense::kLe, 12.0)
      .subject_to({3.0, 2.0}, Sense::kLe, 18.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.duals[0], 0.0, 1e-9);
  EXPECT_NEAR(s.duals[1], 1.5, 1e-9);
  EXPECT_NEAR(s.duals[2], 1.0, 1e-9);
  // Strong duality: b'y == objective.
  EXPECT_NEAR(4.0 * s.duals[0] + 12.0 * s.duals[1] + 18.0 * s.duals[2],
              s.objective, 1e-8);
}

ENGINE_TEST(ReducedCostsVanishOnBasicVariables) {
  auto p = Problem::maximize({3.0, 5.0});
  p.subject_to({1.0, 0.0}, Sense::kLe, 4.0)
      .subject_to({0.0, 2.0}, Sense::kLe, 12.0)
      .subject_to({3.0, 2.0}, Sense::kLe, 18.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  for (std::size_t j = 0; j < 2; ++j)
    if (s.x[j] > 1e-9) {
      EXPECT_NEAR(s.reduced_costs[j], 0.0, 1e-8);
    }
}

ENGINE_TEST(DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple bases at the optimum).
  auto p = Problem::maximize({2.0, 1.0});
  p.subject_to({1.0, 1.0}, Sense::kLe, 2.0)
      .subject_to({1.0, 1.0}, Sense::kLe, 2.0)
      .subject_to({1.0, 0.0}, Sense::kLe, 2.0);
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
}

/// Random LPs: max c'x, Ax <= b with b > 0 (always feasible at 0; bounded
/// whenever every cost column has a positive row — enforced by adding a
/// box). Check weak duality and complementary slackness hold at the optimum.
class RandomLp : public ::testing::TestWithParam<int> {};
class DenseRandomLp : public RandomLp {};

void strong_duality_and_slackness(Engine solve, int seed);
TEST_P(RandomLp, StrongDualityAndSlackness) {
  strong_duality_and_slackness(kRevised, GetParam());
}
TEST_P(DenseRandomLp, StrongDualityAndSlackness) {
  strong_duality_and_slackness(kDense, GetParam());
}
void strong_duality_and_slackness(Engine solve, int seed) {
  stosched::Rng rng(1000 + seed);
  const std::size_t n = 2 + rng.below(5);
  const std::size_t m = 2 + rng.below(5);
  auto costs = std::vector<double>(n);
  for (auto& c : costs) c = rng.uniform(-1.0, 2.0);
  auto p = Problem::maximize(costs);
  std::vector<std::vector<double>> rows(m, std::vector<double>(n));
  std::vector<double> rhs(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (auto& a : rows[i]) a = rng.uniform(0.0, 1.0);
    rhs[i] = rng.uniform(1.0, 5.0);
    p.subject_to(rows[i], Sense::kLe, rhs[i]);
  }
  // Box to guarantee boundedness.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> e(n, 0.0);
    e[j] = 1.0;
    p.subject_to(e, Sense::kLe, 10.0);
  }
  const auto s = solve(p);
  ASSERT_TRUE(s.optimal());

  // Primal feasibility.
  for (std::size_t i = 0; i < m; ++i) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < n; ++j) lhs += rows[i][j] * s.x[j];
    EXPECT_LE(lhs, rhs[i] + 1e-7);
  }
  // Strong duality: c'x == b'y (boxes included).
  double by = 0.0;
  for (std::size_t i = 0; i < m; ++i) by += rhs[i] * s.duals[i];
  for (std::size_t j = 0; j < n; ++j) by += 10.0 * s.duals[m + j];
  EXPECT_NEAR(by, s.objective, 1e-6);
  // Complementary slackness on rows.
  for (std::size_t i = 0; i < m; ++i) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < n; ++j) lhs += rows[i][j] * s.x[j];
    EXPECT_NEAR(s.duals[i] * (rhs[i] - lhs), 0.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLp, ::testing::Range(0, 20));
INSTANTIATE_TEST_SUITE_P(Seeds, DenseRandomLp, ::testing::Range(0, 20));

TEST(Simplex, ShapeValidation) {
  auto p = Problem::maximize({1.0, 2.0});
  EXPECT_THROW(p.subject_to({1.0}, Sense::kLe, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace stosched::lp
