#include "batch/subset_dp.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace stosched::batch {

namespace {

/// Enumerate all k-subsets of the set bits of `mask`, invoking `fn(subset)`.
template <typename Fn>
void for_each_k_subset(std::uint32_t mask, unsigned k, Fn&& fn) {
  std::vector<unsigned> bits;
  for (unsigned b = 0; b < 32; ++b)
    if (mask & (1u << b)) bits.push_back(b);
  const unsigned n = static_cast<unsigned>(bits.size());
  STOSCHED_REQUIRE(k <= n, "k-subset larger than set");
  std::vector<unsigned> idx(k);
  std::iota(idx.begin(), idx.end(), 0u);
  for (;;) {
    std::uint32_t sub = 0;
    for (const unsigned i : idx) sub |= 1u << bits[i];
    fn(sub);
    // Next combination in lexicographic order.
    unsigned i = k;
    while (i-- > 0) {
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (unsigned j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (k == 0) return;
  }
}

double run_dp(const std::vector<ExpJob>& jobs, unsigned machines,
              ExpObjective objective,
              const std::vector<std::size_t>* priority) {
  const std::size_t n = jobs.size();
  STOSCHED_REQUIRE(n >= 1 && n <= 16, "subset DP limited to n <= 16");
  STOSCHED_REQUIRE(machines >= 1, "need at least one machine");
  for (const auto& j : jobs)
    STOSCHED_REQUIRE(j.rate > 0.0, "job rates must be positive");

  const std::uint32_t full = n == 32 ? ~0u : (1u << n) - 1;
  std::vector<double> value(full + 1, 0.0);

  // Ranks for priority evaluation: rank[j] = position in the priority list.
  std::vector<std::size_t> rank(n, 0);
  if (priority) {
    STOSCHED_REQUIRE(priority->size() == n, "priority must cover all jobs");
    for (std::size_t pos = 0; pos < n; ++pos) rank[(*priority)[pos]] = pos;
  }

  for (std::uint32_t s = 1; s <= full; ++s) {
    const unsigned alive = static_cast<unsigned>(std::popcount(s));
    const unsigned k = std::min(machines, alive);

    double cost_rate = 0.0;
    if (objective == ExpObjective::kMakespan) {
      cost_rate = 1.0;
    } else {
      for (std::size_t j = 0; j < n; ++j)
        if (s & (1u << j))
          cost_rate += objective == ExpObjective::kFlowtime ? 1.0
                                                            : jobs[j].weight;
    }

    auto action_value = [&](std::uint32_t a) {
      double lambda = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        if (a & (1u << j)) lambda += jobs[j].rate;
      double v = cost_rate;
      for (std::size_t j = 0; j < n; ++j)
        if (a & (1u << j)) v += jobs[j].rate * value[s & ~(1u << j)];
      return v / lambda;
    };

    if (priority) {
      // Serve the k highest-priority (lowest-rank) alive jobs.
      std::uint32_t a = 0;
      std::vector<std::size_t> aliveJobs;
      for (std::size_t j = 0; j < n; ++j)
        if (s & (1u << j)) aliveJobs.push_back(j);
      std::partial_sort(aliveJobs.begin(), aliveJobs.begin() + k,
                        aliveJobs.end(), [&](std::size_t x, std::size_t y) {
                          return rank[x] < rank[y];
                        });
      for (unsigned i = 0; i < k; ++i) a |= 1u << aliveJobs[i];
      value[s] = action_value(a);
    } else {
      double best = std::numeric_limits<double>::infinity();
      for_each_k_subset(s, k, [&](std::uint32_t a) {
        best = std::min(best, action_value(a));
      });
      value[s] = best;
    }
  }
  return value[full];
}

std::vector<std::size_t> order_by_rate(const std::vector<ExpJob>& jobs,
                                       bool highest_rate_first) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return highest_rate_first ? jobs[a].rate > jobs[b].rate
                                               : jobs[a].rate < jobs[b].rate;
                   });
  return order;
}

}  // namespace

double exp_dp_optimal(const std::vector<ExpJob>& jobs, unsigned machines,
                      ExpObjective objective) {
  return run_dp(jobs, machines, objective, nullptr);
}

double exp_dp_priority(const std::vector<ExpJob>& jobs, unsigned machines,
                       ExpObjective objective,
                       const std::vector<std::size_t>& priority) {
  return run_dp(jobs, machines, objective, &priority);
}

double exp_dp_sept(const std::vector<ExpJob>& jobs, unsigned machines,
                   ExpObjective objective) {
  // SEPT: shortest mean == highest rate first.
  return exp_dp_priority(jobs, machines, objective,
                         order_by_rate(jobs, /*highest_rate_first=*/true));
}

double exp_dp_lept(const std::vector<ExpJob>& jobs, unsigned machines,
                   ExpObjective objective) {
  return exp_dp_priority(jobs, machines, objective,
                         order_by_rate(jobs, /*highest_rate_first=*/false));
}

}  // namespace stosched::batch
