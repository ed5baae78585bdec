#include "restless/restless_sim.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "mdp/mdp.hpp"
#include "mdp/solve.hpp"
#include "util/check.hpp"

namespace stosched::restless {

namespace {

/// Rank projects by priority and return the indices of the top m
/// (ties broken by project id for determinism).
void top_m(const std::vector<double>& score, std::size_t m,
           std::vector<std::size_t>& out) {
  const std::size_t n = score.size();
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  std::partial_sort(out.begin(), out.begin() + m, out.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (score[a] != score[b]) return score[a] > score[b];
                      return a < b;
                    });
  out.resize(m);
}

}  // namespace

double simulate_priority_policy(const RestlessInstance& inst,
                                const PriorityTable& priority,
                                std::size_t horizon, std::size_t burnin,
                                Rng& rng) {
  inst.validate();
  STOSCHED_REQUIRE(priority.size() == inst.projects.size(),
                   "priority table must cover all projects");
  const std::size_t n = inst.projects.size();
  // Per-project transition substreams off a bootstrap root: project j's
  // chain consumes only its own stream, so a CRN comparison against
  // simulate_random_policy (which uses the same layout) keeps project
  // trajectories aligned wherever the action sequences agree.
  const Rng root(rng());
  std::vector<Rng> trans_rng;
  trans_rng.reserve(n);
  for (std::size_t j = 0; j < n; ++j) trans_rng.push_back(root.stream(j));
  std::vector<std::size_t> state(n, 0);
  std::vector<double> score(n, 0.0);
  std::vector<char> active(n, 0);
  std::vector<std::size_t> chosen;

  double total = 0.0;
  for (std::size_t t = 0; t < burnin + horizon; ++t) {
    for (std::size_t j = 0; j < n; ++j) score[j] = priority[j][state[j]];
    top_m(score, inst.activate, chosen);
    std::fill(active.begin(), active.end(), 0);
    for (const std::size_t j : chosen) active[j] = 1;

    for (std::size_t j = 0; j < n; ++j) {
      const auto& p = inst.projects[j];
      const double r =
          active[j] ? p.reward_active[state[j]] : p.reward_passive[state[j]];
      if (t >= burnin) total += r;
      const auto& row =
          active[j] ? p.trans_active[state[j]] : p.trans_passive[state[j]];
      state[j] = trans_rng[j].categorical(row.data(), row.size());
    }
  }
  return total / static_cast<double>(horizon);
}

void run_replication(const RestlessInstance& inst,
                     const PriorityTable& priority, std::size_t horizon,
                     std::size_t burnin, Rng& rng, std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == 1, "restless replication reports one metric");
  out[0] = simulate_priority_policy(inst, priority, horizon, burnin, rng);
}

double simulate_random_policy(const RestlessInstance& inst,
                              std::size_t horizon, std::size_t burnin,
                              Rng& rng) {
  inst.validate();
  const std::size_t n = inst.projects.size();
  // Same substream layout as simulate_priority_policy (per-project
  // transition streams 0..n-1) plus a dedicated selection stream at n, so
  // CRN comparisons between the two policies share project randomness.
  const Rng root(rng());
  std::vector<Rng> trans_rng;
  trans_rng.reserve(n);
  for (std::size_t j = 0; j < n; ++j) trans_rng.push_back(root.stream(j));
  Rng select_rng = root.stream(n);
  std::vector<std::size_t> state(n, 0);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  double total = 0.0;
  for (std::size_t t = 0; t < burnin + horizon; ++t) {
    // Partial Fisher–Yates: the first m entries form a random m-subset.
    for (std::size_t i = 0; i < inst.activate; ++i) {
      const std::size_t j = i + select_rng.below(n - i);
      std::swap(perm[i], perm[j]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const bool act =
          std::find(perm.begin(), perm.begin() + inst.activate, j) !=
          perm.begin() + inst.activate;
      const auto& p = inst.projects[j];
      const double r =
          act ? p.reward_active[state[j]] : p.reward_passive[state[j]];
      if (t >= burnin) total += r;
      const auto& row =
          act ? p.trans_active[state[j]] : p.trans_passive[state[j]];
      state[j] = trans_rng[j].categorical(row.data(), row.size());
    }
  }
  return total / static_cast<double>(horizon);
}

namespace {

/// Product-space machinery shared by the exact solvers.
struct ProductSpace {
  const RestlessInstance& inst;
  std::size_t total = 1;
  std::vector<std::vector<std::size_t>> subsets;  // all m-subsets, fixed order

  explicit ProductSpace(const RestlessInstance& i) : inst(i) {
    inst.validate();
    for (const auto& p : inst.projects) {
      // Joint transition rows are dense (every project moves every epoch),
      // so the exact product solvers are reserved for tiny instances.
      STOSCHED_REQUIRE(total < (std::size_t{1} << 10) / p.num_states(),
                       "restless product MDP too large");
      total *= p.num_states();
    }
    // Enumerate m-subsets lexicographically.
    const std::size_t n = inst.projects.size();
    std::vector<std::size_t> idx(inst.activate);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (;;) {
      subsets.push_back(idx);
      std::size_t pos = inst.activate;
      bool done = true;
      while (pos-- > 0) {
        if (idx[pos] != pos + n - inst.activate) {
          ++idx[pos];
          for (std::size_t k = pos + 1; k < inst.activate; ++k)
            idx[k] = idx[k - 1] + 1;
          done = false;
          break;
        }
      }
      if (done) break;
    }
  }

  void decode(std::size_t code, std::vector<std::size_t>& s) const {
    s.resize(inst.projects.size());
    for (std::size_t j = 0; j < inst.projects.size(); ++j) {
      s[j] = code % inst.projects[j].num_states();
      code /= inst.projects[j].num_states();
    }
  }

  [[nodiscard]] mdp::FiniteMdp build() const {
    mdp::FiniteMdp m(total);
    std::vector<std::size_t> s;
    std::vector<char> active(inst.projects.size(), 0);
    for (std::size_t code = 0; code < total; ++code) {
      decode(code, s);
      for (std::size_t ai = 0; ai < subsets.size(); ++ai) {
        std::fill(active.begin(), active.end(), 0);
        for (const std::size_t j : subsets[ai]) active[j] = 1;

        mdp::Action act;
        act.label = static_cast<int>(ai);
        for (std::size_t j = 0; j < inst.projects.size(); ++j) {
          const auto& p = inst.projects[j];
          act.reward += active[j] ? p.reward_active[s[j]]
                                  : p.reward_passive[s[j]];
        }
        // Joint transition = product of per-project rows; expand iteratively.
        std::vector<std::pair<std::size_t, double>> joint{{0, 1.0}};
        std::size_t stride = 1;
        for (std::size_t j = 0; j < inst.projects.size(); ++j) {
          const auto& p = inst.projects[j];
          const auto& row =
              active[j] ? p.trans_active[s[j]] : p.trans_passive[s[j]];
          std::vector<std::pair<std::size_t, double>> grown;
          grown.reserve(joint.size() * row.size());
          for (const auto& [base, prob] : joint)
            for (std::size_t t = 0; t < row.size(); ++t)
              if (row[t] > 0.0)
                grown.emplace_back(base + stride * t, prob * row[t]);
          joint = std::move(grown);
          stride *= p.num_states();
        }
        act.transitions.reserve(joint.size());
        for (const auto& [target, prob] : joint)
          act.transitions.push_back({target, prob});
        m.add_action(code, std::move(act));
      }
    }
    return m;
  }

  /// Action index of the top-m priority choice in joint state s.
  [[nodiscard]] std::size_t priority_action(
      const PriorityTable& priority, const std::vector<std::size_t>& s) const {
    std::vector<double> score(inst.projects.size());
    for (std::size_t j = 0; j < inst.projects.size(); ++j)
      score[j] = priority[j][s[j]];
    std::vector<std::size_t> chosen;
    top_m(score, inst.activate, chosen);
    std::sort(chosen.begin(), chosen.end());
    for (std::size_t ai = 0; ai < subsets.size(); ++ai)
      if (subsets[ai] == chosen) return ai;
    STOSCHED_REQUIRE(false, "chosen subset not found");
    return 0;
  }
};

}  // namespace

double optimal_average_reward(const RestlessInstance& inst) {
  const ProductSpace space(inst);
  const auto m = space.build();
  const auto sol = mdp::relative_value_iteration(m, 1e-10);
  return sol.gain;
}

double priority_policy_average_reward(const RestlessInstance& inst,
                                      const PriorityTable& priority) {
  STOSCHED_REQUIRE(priority.size() == inst.projects.size(),
                   "priority table must cover all projects");
  const ProductSpace space(inst);
  const auto m = space.build();
  std::vector<std::size_t> policy(space.total, 0);
  std::vector<std::size_t> s;
  for (std::size_t code = 0; code < space.total; ++code) {
    space.decode(code, s);
    policy[code] = space.priority_action(priority, s);
  }
  return mdp::average_reward_of_policy_iterative(m, policy);
}

}  // namespace stosched::restless
