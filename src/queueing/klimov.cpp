#include "queueing/klimov.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "lp/adaptive_greedy.hpp"
#include "mdp/solve.hpp"
#include "util/check.hpp"

namespace stosched::queueing {

void KlimovNetwork::validate() const {
  const std::size_t n = classes.size();
  STOSCHED_REQUIRE(n >= 1, "network needs at least one class");
  STOSCHED_REQUIRE(feedback.size() == n, "feedback matrix shape mismatch");
  for (const auto& row : feedback) {
    STOSCHED_REQUIRE(row.size() == n, "feedback matrix must be square");
    double total = 0.0;
    for (const double p : row) {
      STOSCHED_REQUIRE(p >= 0.0, "feedback probabilities must be >= 0");
      total += p;
    }
    STOSCHED_REQUIRE(total <= 1.0 + 1e-9, "feedback rows must sum to <= 1");
  }
}

std::vector<double> exit_work(const std::vector<double>& service_means,
                              const std::vector<std::vector<double>>& feedback,
                              const std::vector<char>& in_set) {
  const std::size_t n = service_means.size();
  STOSCHED_REQUIRE(feedback.size() == n && in_set.size() == n,
                   "shape mismatch");
  // Gather members of S.
  std::vector<std::size_t> members;
  for (std::size_t j = 0; j < n; ++j)
    if (in_set[j]) members.push_back(j);
  const std::size_t k = members.size();
  std::vector<double> tau(n, 0.0);
  if (k == 0) return tau;

  // Solve (I - P_SS) t = beta_S.
  std::vector<double> a(k * k, 0.0), b(k, 0.0);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c)
      a[r * k + c] =
          (r == c ? 1.0 : 0.0) - feedback[members[r]][members[c]];
    b[r] = service_means[members[r]];
  }
  const bool ok = mdp::solve_linear_system(a, b, k);
  STOSCHED_REQUIRE(ok, "feedback submatrix is singular (absorbing loop?)");
  for (std::size_t r = 0; r < k; ++r) tau[members[r]] = b[r];
  return tau;
}

KlimovResult klimov_indices(const std::vector<double>& service_means,
                            const std::vector<std::vector<double>>& feedback,
                            const std::vector<double>& holding_costs) {
  const std::size_t n = service_means.size();
  STOSCHED_REQUIRE(holding_costs.size() == n, "shape mismatch");
  const auto ag = lp::adaptive_greedy(
      n,
      [&](const std::vector<char>& in_set) {
        return exit_work(service_means, feedback, in_set);
      },
      holding_costs);
  KlimovResult out;
  out.index = ag.index;
  out.priority = ag.priority;
  return out;
}

KlimovResult klimov_indices(const KlimovNetwork& net) {
  net.validate();
  std::vector<double> means, costs;
  for (const auto& c : net.classes) {
    means.push_back(c.service->mean());
    costs.push_back(c.holding_cost);
  }
  return klimov_indices(means, net.feedback, costs);
}

std::vector<double> effective_arrival_rates(const KlimovNetwork& net) {
  net.validate();
  const std::size_t n = net.num_classes();
  // lambda_eff = alpha + P^T lambda_eff  =>  (I - P^T) lambda_eff = alpha.
  std::vector<double> a(n * n, 0.0), b(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c)
      a[r * n + c] = (r == c ? 1.0 : 0.0) - net.feedback[c][r];
    b[r] = class_arrival_rate(net.classes[r]);
  }
  const bool ok = mdp::solve_linear_system(a, b, n);
  STOSCHED_REQUIRE(ok, "feedback matrix has spectral radius >= 1");
  return b;
}

double klimov_traffic_intensity(const KlimovNetwork& net) {
  const auto rates = effective_arrival_rates(net);
  double rho = 0.0;
  for (std::size_t j = 0; j < net.num_classes(); ++j)
    rho += rates[j] * net.classes[j].service->mean();
  return rho;
}

SimResult simulate_klimov(const KlimovNetwork& net,
                          const std::vector<std::size_t>& priority,
                          double horizon, double warmup, Rng& rng) {
  net.validate();
  SimOptions opt;
  opt.horizon = horizon;
  opt.warmup = warmup;
  opt.discipline = Discipline::kPriorityNonPreemptive;
  opt.priority = priority;
  opt.feedback = net.feedback;
  return simulate_mg1(net.classes, opt, rng);
}

// ---------------------------------------------------------------------------
// Truncated exact baseline (exponential services).
// ---------------------------------------------------------------------------

namespace {

struct TruncSpace {
  std::size_t n = 0, cap = 0, total = 1;

  TruncSpace(std::size_t classes, std::size_t cap_) : n(classes), cap(cap_) {
    for (std::size_t j = 0; j < n; ++j) {
      STOSCHED_REQUIRE(total < (std::size_t{1} << 22) / (cap + 1),
                       "truncated state space too large");
      total *= cap + 1;
    }
  }

  void decode(std::size_t code, std::vector<std::size_t>& q) const {
    q.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      q[j] = code % (cap + 1);
      code /= cap + 1;
    }
  }
  [[nodiscard]] std::size_t encode(const std::vector<std::size_t>& q) const {
    std::size_t code = 0;
    for (std::size_t j = n; j-- > 0;) code = code * (cap + 1) + q[j];
    return code;
  }
};

}  // namespace

mdp::FiniteMdp build_truncated_mdp(const KlimovNetwork& net, std::size_t cap) {
  net.validate();
  const std::size_t n = net.num_classes();
  const TruncSpace space(n, cap);

  std::vector<double> lambda(n), mu(n);
  double unif = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    lambda[j] = class_arrival_rate(net.classes[j]);
    mu[j] = 1.0 / net.classes[j].service->mean();
    unif += lambda[j];
  }
  unif += *std::max_element(mu.begin(), mu.end());

  mdp::FiniteMdp m(space.total);
  std::vector<std::size_t> q;
  for (std::size_t code = 0; code < space.total; ++code) {
    space.decode(code, q);
    double cost = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      cost += net.classes[j].holding_cost * static_cast<double>(q[j]);

    auto make_action = [&](std::size_t serve, int label) {
      mdp::Action a;
      a.label = label;
      a.reward = -cost;
      double stay = 1.0;
      // Arrivals (blocked at cap: self-loop keeps the probability mass).
      for (std::size_t j = 0; j < n; ++j) {
        if (lambda[j] <= 0.0) continue;
        const double p = lambda[j] / unif;
        if (q[j] < cap) {
          auto next = q;
          ++next[j];
          a.transitions.push_back({space.encode(next), p});
          stay -= p;
        }
      }
      // Service completion with feedback routing.
      if (serve < n) {
        const double p_served = mu[serve] / unif;
        double exit_prob = 1.0;
        for (std::size_t k = 0; k < n; ++k) {
          const double pr = net.feedback[serve][k];
          if (pr <= 0.0) continue;
          exit_prob -= pr;
          auto next = q;
          --next[serve];
          if (next[k] < cap) ++next[k];  // full target: fed-back job lost
          a.transitions.push_back({space.encode(next), p_served * pr});
          stay -= p_served * pr;
        }
        if (exit_prob > 0.0) {
          auto next = q;
          --next[serve];
          a.transitions.push_back({space.encode(next), p_served * exit_prob});
          stay -= p_served * exit_prob;
        }
      }
      STOSCHED_REQUIRE(stay > -1e-9, "uniformization mass overflow");
      if (stay > 0.0) a.transitions.push_back({code, stay});
      m.add_action(code, std::move(a));
    };

    bool any = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (q[j] > 0) {
        make_action(j, static_cast<int>(j));
        any = true;
      }
    }
    if (!any) make_action(n, -1);  // empty system: idle
  }
  return m;
}

namespace {

double truncated_cost(const KlimovNetwork& net, std::size_t cap,
                      const std::vector<std::size_t>* priority) {
  const auto m = build_truncated_mdp(net, cap);
  const std::size_t n = net.num_classes();
  const TruncSpace space(n, cap);

  std::vector<double> lambda(n), mu(n);
  double unif = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    lambda[j] = class_arrival_rate(net.classes[j]);
    mu[j] = 1.0 / net.classes[j].service->mean();
    unif += lambda[j];
  }
  unif += *std::max_element(mu.begin(), mu.end());

  if (!priority) {
    const auto sol = mdp::relative_value_iteration(m, 1e-10);
    return -sol.gain;
  }

  STOSCHED_REQUIRE(priority->size() == n, "priority must cover all classes");
  std::vector<std::size_t> rank(n);
  for (std::size_t pos = 0; pos < n; ++pos) rank[(*priority)[pos]] = pos;

  std::vector<std::size_t> policy(space.total, 0);
  std::vector<std::size_t> q;
  for (std::size_t code = 0; code < space.total; ++code) {
    space.decode(code, q);
    // Action list order == nonempty classes in index order (or single idle).
    std::size_t best_class = n;
    for (std::size_t j = 0; j < n; ++j)
      if (q[j] > 0 && (best_class == n || rank[j] < rank[best_class]))
        best_class = j;
    if (best_class == n) {
      policy[code] = 0;  // idle
    } else {
      std::size_t action = 0;
      for (std::size_t j = 0; j < best_class; ++j)
        if (q[j] > 0) ++action;
      policy[code] = action;
    }
  }
  return -mdp::average_reward_of_policy_iterative(m, policy);
}

}  // namespace

double truncated_priority_cost(const KlimovNetwork& net, std::size_t cap,
                               const std::vector<std::size_t>& priority) {
  return truncated_cost(net, cap, &priority);
}

double truncated_optimal_cost(const KlimovNetwork& net, std::size_t cap) {
  return truncated_cost(net, cap, nullptr);
}

}  // namespace stosched::queueing
