#include "online/lower_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "lp/simplex.hpp"
#include "util/check.hpp"

namespace stosched::online {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Geometric growth of the interval-indexed LP's time grid: τ_t = 2·τ_{t-1}.
constexpr double kIntervalRatio = 2.0;

/// Best-machine processing times q_j = min_i p_ij of the realized instance.
std::vector<double> best_proc_times(const OnlineInstance& inst,
                                    const Environment& env) {
  std::vector<double> q(inst.size(), 0.0);
  for (std::size_t j = 0; j < inst.size(); ++j) {
    double best = kInf;
    for (std::size_t i = 0; i < env.machines(); ++i)
      best = std::min(best, env.proc_time(i, inst[j].type, inst[j].size));
    q[j] = best;
  }
  return q;
}

/// Mean busy times M_j of preemptive WSPT on a single speed-m machine:
/// process the released job with the highest w/q at rate m, preempting at
/// releases. The unique O(n log n) minimizer of Σ w_j M_j on the fluid
/// relaxation (Goemans).
std::vector<double> wspt_mean_busy_times(const OnlineInstance& inst,
                                         const std::vector<double>& q,
                                         double m) {
  const std::size_t n = inst.size();
  std::vector<std::size_t> by_release(n);
  for (std::size_t j = 0; j < n; ++j) by_release[j] = j;
  std::stable_sort(by_release.begin(), by_release.end(),
                   [&](std::size_t a, std::size_t b) {
                     return inst[a].release < inst[b].release;
                   });

  struct Entry {
    double index;  // w / q (infinite for zero-size jobs: done instantly)
    std::size_t job;
  };
  const auto lower = [](const Entry& a, const Entry& b) {
    // Max-heap on the index; ties serve the earlier arrival first.
    return a.index < b.index || (a.index == b.index && a.job > b.job);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(lower)> heap(lower);

  std::vector<double> rem = q;
  std::vector<double> busy(n, 0.0);
  double now = 0.0;
  std::size_t next = 0;
  while (next < n || !heap.empty()) {
    while (next < n && inst[by_release[next]].release <= now) {
      const std::size_t j = by_release[next++];
      heap.push({q[j] > 0.0 ? inst[j].weight / q[j] : kInf, j});
    }
    if (heap.empty()) {
      now = inst[by_release[next]].release;
      continue;
    }
    const std::size_t j = heap.top().job;
    if (rem[j] <= 0.0) {
      heap.pop();
      continue;
    }
    const double finish_dt = rem[j] / m;
    const double release_dt =
        next < n ? inst[by_release[next]].release - now : kInf;
    const double d = std::min(finish_dt, release_dt);
    if (d > 0.0) {
      // Work m*d of job j processed centered at now + d/2.
      busy[j] += (now + 0.5 * d) * (m * d) / q[j];
      rem[j] -= m * d;
      now += d;
    }
    if (rem[j] <= 1e-12 * q[j]) {
      rem[j] = 0.0;
      heap.pop();
    }
  }
  return busy;
}

/// True when the instance carries no work and no releases — the LP grid
/// would be degenerate, and every bound is 0 anyway.
bool trivial_instance(const OnlineInstance& inst, const Environment& env) {
  for (std::size_t j = 0; j < inst.size(); ++j) {
    if (inst[j].release > 0.0) return false;
    for (std::size_t i = 0; i < env.machines(); ++i)
      if (env.proc_time(i, inst[j].type, inst[j].size) > 0.0) return false;
  }
  return true;
}

/// The interval-indexed LP bound (0 if skipped or the solve failed).
double interval_lp_bound(const OnlineInstance& inst, const Environment& env) {
  if (trivial_instance(inst, env)) return 0.0;
  const lp::Problem prob = interval_indexed_lp(inst, env);
  const lp::Solution sol = lp::solve(prob);
  return sol.optimal() ? sol.objective : 0.0;
}

}  // namespace

lp::Problem interval_indexed_lp(const OnlineInstance& inst,
                                const Environment& env,
                                const OfflineBoundOptions&) {
  const std::size_t n = inst.size();
  const std::size_t m = env.machines();
  const std::vector<double> q = best_proc_times(inst, env);

  // Geometric grid 0 = τ_0 < τ_1 < ... < τ_T covering every completion an
  // optimal schedule could have (each job on some machine after the last
  // release).
  double smallest = kInf, upper = 0.0, max_release = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (q[j] > 0.0) smallest = std::min(smallest, q[j]);
    double worst = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      worst = std::max(worst, env.proc_time(i, inst[j].type, inst[j].size));
    upper += worst;
    max_release = std::max(max_release, inst[j].release);
  }
  upper += max_release;
  STOSCHED_REQUIRE(upper > 0.0,
                   "interval-indexed LP needs work or releases");
  if (!std::isfinite(smallest)) smallest = upper;
  std::vector<double> tau{0.0, smallest};
  while (tau.back() < upper) tau.push_back(tau.back() * kIntervalRatio);
  const std::size_t T = tau.size() - 1;  // intervals (τ_{t-1}, τ_t]

  // Variable layout: C_0..C_{n-1}, then x_{ijt} for every allowed triple
  // (interval ends after the job's release). The allowed t's of a job form
  // a suffix first_t[j]..T of the grid (τ is increasing), which makes the
  // t → variable mapping O(1) below. Rows are built sparsely: at n = 512
  // this LP has ~14k variables, and dense rows would cost hundreds of MB.
  std::vector<std::size_t> xbase(n);    // per job: first x variable id
  std::vector<std::size_t> first_t(n);  // per job: first allowed interval
  std::size_t vars = n;
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t first = T + 1;
    for (std::size_t t = 1; t <= T; ++t) {
      if (tau[t] <= inst[j].release) continue;
      first = t;
      break;
    }
    first_t[j] = first;
    xbase[j] = vars;
    vars += m * (T + 1 - first);
  }

  std::vector<double> costs(vars, 0.0);
  for (std::size_t j = 0; j < n; ++j) costs[j] = inst[j].weight;
  lp::Problem prob = lp::Problem::minimize(std::move(costs));

  const auto nt = [&](std::size_t j) { return T + 1 - first_t[j]; };
  const auto xvar = [&](std::size_t j, std::size_t i, std::size_t t) {
    return xbase[j] + i * nt(j) + (t - first_t[j]);
  };

  // Coverage: Σ_{i,t} x_{ijt} = 1.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::size_t> idx;
    idx.reserve(m * nt(j));
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t t = first_t[j]; t <= T; ++t)
        idx.push_back(xvar(j, i, t));
    std::vector<double> val(idx.size(), 1.0);
    prob.subject_to_sparse(std::move(idx), std::move(val), lp::Sense::kEq,
                           1.0);
  }

  // Capacity: Σ_j p_ij x_{ijt} <= τ_t − τ_{t-1} per machine and interval.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t t = 1; t <= T; ++t) {
      std::vector<std::size_t> idx;
      std::vector<double> val;
      for (std::size_t j = 0; j < n; ++j) {
        if (t < first_t[j]) continue;
        idx.push_back(xvar(j, i, t));
        val.push_back(env.proc_time(i, inst[j].type, inst[j].size));
      }
      if (!idx.empty())
        prob.subject_to_sparse(std::move(idx), std::move(val), lp::Sense::kLe,
                               tau[t] - tau[t - 1]);
    }
  }

  // Completion-time bounds: C_j >= Σ x τ_{t-1} and C_j >= r_j + Σ x p_ij.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::size_t> sidx{j}, pidx{j};
    std::vector<double> sval{1.0}, pval{1.0};
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t t = first_t[j]; t <= T; ++t) {
        sidx.push_back(xvar(j, i, t));
        sval.push_back(-tau[t - 1]);
        pidx.push_back(xvar(j, i, t));
        pval.push_back(-env.proc_time(i, inst[j].type, inst[j].size));
      }
    prob.subject_to_sparse(std::move(sidx), std::move(sval), lp::Sense::kGe,
                           0.0);
    prob.subject_to_sparse(std::move(pidx), std::move(pval), lp::Sense::kGe,
                           inst[j].release);
  }
  return prob;
}

OfflineBound offline_lower_bound(const OnlineInstance& inst,
                                 const Environment& env,
                                 const std::vector<JobType>& types,
                                 const OfflineBoundOptions& opt) {
  env.validate(types.size());
  OfflineBound bound;
  if (inst.empty()) return bound;

  const std::vector<double> q = best_proc_times(inst, env);
  const double m = static_cast<double>(env.machines());

  for (std::size_t j = 0; j < inst.size(); ++j)
    bound.release_bound += inst[j].weight * (inst[j].release + q[j]);

  const std::vector<double> busy = wspt_mean_busy_times(inst, q, m);
  for (std::size_t j = 0; j < inst.size(); ++j)
    bound.busy_bound += inst[j].weight * (busy[j] + q[j] / (2.0 * m));

  if (opt.use_lp && inst.size() <= opt.lp_job_cap)
    bound.lp_bound = interval_lp_bound(inst, env);

  bound.value =
      std::max({bound.release_bound, bound.busy_bound, bound.lp_bound});
  return bound;
}

}  // namespace stosched::online
