#include "lp/adaptive_greedy.hpp"

#include <limits>

#include "util/check.hpp"

namespace stosched::lp {

AdaptiveGreedyResult adaptive_greedy(
    std::size_t n,
    const std::function<std::vector<double>(const std::vector<char>&)>& coeffs,
    const std::vector<double>& costs) {
  STOSCHED_REQUIRE(n >= 1, "need at least one class");
  STOSCHED_REQUIRE(costs.size() == n, "cost vector shape mismatch");

  AdaptiveGreedyResult out;
  out.index.assign(n, 0.0);
  out.priority.assign(n, 0);
  out.y.assign(n, 0.0);

  // Peel from the *lowest* priority class upward. At step k (k = n..1) the
  // candidate set S_k holds the classes not yet peeled; the peeled class
  // minimizes the adjusted cost rate
  //     ( c_j - Σ_{peeled sets L} A_j^L y_L ) / A_j^{S_k}.
  // Its index is the cumulative sum of the dual increments y.
  std::vector<char> in_set(n, 1);
  // adjusted[j] accumulates Σ_L A_j^L y_L over already-peeled sets L.
  std::vector<double> adjusted(n, 0.0);
  double index_sum = 0.0;

  for (std::size_t step = n; step-- > 0;) {
    const std::vector<double> a = coeffs(in_set);
    double best = std::numeric_limits<double>::infinity();
    std::size_t pick = n;
    // Scan high ids first so ties peel the larger id into lower priority,
    // matching the convention "stable sort by index descending".
    for (std::size_t j = n; j-- > 0;) {
      if (!in_set[j]) continue;
      STOSCHED_REQUIRE(a[j] > 0.0,
                       "conservation-law coefficients must be positive");
      const double rate = (costs[j] - adjusted[j]) / a[j];
      if (rate < best) {
        best = rate;
        pick = j;
      }
    }
    STOSCHED_REQUIRE(pick < n, "no class picked in adaptive greedy");

    out.y[step] = best;
    index_sum += best;
    out.index[pick] = index_sum;
    out.priority[step] = pick;

    // Update the adjustment with this set's coefficients before shrinking.
    for (std::size_t j = 0; j < n; ++j)
      if (in_set[j]) adjusted[j] += a[j] * best;
    in_set[pick] = 0;
  }
  return out;
}

}  // namespace stosched::lp
