#include "batch/precedence.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace stosched::batch {

// rng-audit: sink(instance generator: one attachment draw per node, in
// node order, is the reproducibility contract)
InTree random_in_tree(std::size_t n, Rng& rng) {
  STOSCHED_REQUIRE(n >= 1, "tree needs at least one node");
  InTree t;
  t.parent.resize(n);
  t.parent[0] = 0;
  t.root = 0;
  for (std::size_t i = 1; i < n; ++i)
    t.parent[i] = rng.below(i);  // attach to a uniformly random earlier node
  return t;
}

std::vector<std::size_t> tree_levels(const InTree& tree) {
  const std::size_t n = tree.size();
  std::vector<std::size_t> level(n, 0);
  // parent[i] < i for generated trees, but handle general parent pointers by
  // walking up (paths are short; total cost O(n · depth)).
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t v = i, hops = 0;
    while (v != tree.parent[v]) {
      v = tree.parent[v];
      ++hops;
      STOSCHED_REQUIRE(hops <= n, "parent pointers contain a cycle");
    }
    level[i] = hops;
  }
  return level;
}

std::size_t tree_depth(const InTree& tree) {
  const auto levels = tree_levels(tree);
  return 1 + *std::max_element(levels.begin(), levels.end());
}

double simulate_tree_makespan(const InTree& tree, unsigned machines,
                              double rate, TreePolicy policy, Rng& rng) {
  STOSCHED_REQUIRE(machines >= 1, "need at least one machine");
  STOSCHED_REQUIRE(rate > 0.0, "rate must be positive");
  const std::size_t n = tree.size();
  const auto level = tree_levels(tree);

  // pending_children[i] counts uncompleted children; a node is eligible when
  // it reaches 0 (leaves start eligible).
  std::vector<std::size_t> pending(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (tree.parent[i] != i) ++pending[tree.parent[i]];

  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < n; ++i)
    if (pending[i] == 0) eligible.push_back(i);

  auto pick = [&]() -> std::size_t {
    STOSCHED_REQUIRE(!eligible.empty(), "no eligible job to pick");
    std::size_t best_pos = 0;
    if (policy == TreePolicy::kHighestLevelFirst) {
      for (std::size_t p = 1; p < eligible.size(); ++p)
        if (level[eligible[p]] > level[eligible[best_pos]] ||
            (level[eligible[p]] == level[eligible[best_pos]] &&
             eligible[p] < eligible[best_pos]))
          best_pos = p;
    } else {
      for (std::size_t p = 1; p < eligible.size(); ++p)
        if (eligible[p] < eligible[best_pos]) best_pos = p;
    }
    const std::size_t job = eligible[best_pos];
    eligible[best_pos] = eligible.back();
    eligible.pop_back();
    return job;
  };

  // Per-job service substreams off a bootstrap root: job i's realized
  // duration is fixed by the caller's stream alone, independent of when the
  // policy starts it, so CRN policy arms (HLF vs arbitrary) process the
  // identical realized tree.
  const Rng root(rng());

  // running: (finish_time, job). Linear scans; m is small.
  std::vector<std::pair<double, std::size_t>> running;
  double clock = 0.0;
  std::size_t completed = 0;

  while (completed < n) {
    while (running.size() < machines && !eligible.empty()) {
      const std::size_t job = pick();
      Rng service_rng = root.stream(job);
      running.emplace_back(clock + service_rng.exponential(rate), job);
    }
    STOSCHED_REQUIRE(!running.empty(), "deadlock: nothing running or eligible");
    std::size_t next = 0;
    for (std::size_t r = 1; r < running.size(); ++r)
      if (running[r].first < running[next].first) next = r;
    clock = running[next].first;
    const std::size_t done = running[next].second;
    running[next] = running.back();
    running.pop_back();
    ++completed;
    if (done != tree.root) {
      const std::size_t par = tree.parent[done];
      STOSCHED_REQUIRE(pending[par] > 0, "parent dependency underflow");
      if (--pending[par] == 0) eligible.push_back(par);
    }
  }
  return clock;
}

}  // namespace stosched::batch
