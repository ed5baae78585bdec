#include "batch/uniform_machines.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"

namespace stosched::batch {

namespace {

/// Shared engine for the nonpreemptive two-machine uniform model.
/// States: (avail = unstarted job mask, j1/j2 = job committed to machine
/// 1/2, kNone if idle). Two mutually recursive value functions:
///   D — decision point: commit jobs to free machines (or idle machine 2);
///   R — race: wait for the next completion, accruing holding cost.
struct Engine {
  const std::vector<ExpJob>& jobs;
  double s1, s2;
  ExpObjective objective;
  // Greedy policy ranks (empty = optimize).
  const std::vector<std::size_t>* rank = nullptr;

  std::size_t n = 0;
  std::size_t kNone = 0;
  std::unordered_map<std::uint64_t, double> memo_d, memo_r;
  std::size_t decision_states = 0;
  std::size_t idle_states = 0;

  Engine(const std::vector<ExpJob>& js, double sp1, double sp2,
         ExpObjective obj)
      : jobs(js), s1(sp1), s2(sp2), objective(obj), n(js.size()), kNone(n) {
    STOSCHED_REQUIRE(n >= 1 && n <= 12, "uniform DP limited to n <= 12");
    STOSCHED_REQUIRE(s1 >= s2 && s2 > 0.0, "speeds must satisfy s1 >= s2 > 0");
    for (const auto& j : jobs)
      STOSCHED_REQUIRE(j.rate > 0.0, "job rates must be positive");
  }

  std::uint64_t key(std::uint32_t avail, std::size_t j1, std::size_t j2) const {
    return (static_cast<std::uint64_t>(avail) << 10) |
           (static_cast<std::uint64_t>(j1) << 5) | j2;
  }

  double cost_rate(std::uint32_t avail, std::size_t j1, std::size_t j2) const {
    if (objective == ExpObjective::kMakespan) return 1.0;
    double c = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (avail & (1u << j))
        c += objective == ExpObjective::kFlowtime ? 1.0 : jobs[j].weight;
    for (const std::size_t j : {j1, j2})
      if (j != kNone)
        c += objective == ExpObjective::kFlowtime ? 1.0 : jobs[j].weight;
    return c;
  }

  double race(std::uint32_t avail, std::size_t j1, std::size_t j2) {
    if (j1 == kNone && j2 == kNone) {
      STOSCHED_REQUIRE(avail == 0, "race with nothing running but jobs left");
      return 0.0;
    }
    const auto it = memo_r.find(key(avail, j1, j2));
    if (it != memo_r.end()) return it->second;

    const double r1 = j1 == kNone ? 0.0 : s1 * jobs[j1].rate;
    const double r2 = j2 == kNone ? 0.0 : s2 * jobs[j2].rate;
    const double lambda = r1 + r2;
    double v = cost_rate(avail, j1, j2);
    if (j1 != kNone) v += r1 * decide(avail, kNone, j2);
    if (j2 != kNone) v += r2 * decide(avail, j1, kNone);
    v /= lambda;
    memo_r.emplace(key(avail, j1, j2), v);
    return v;
  }

  double decide(std::uint32_t avail, std::size_t j1, std::size_t j2) {
    if (avail == 0 && j1 == kNone && j2 == kNone) return 0.0;
    const auto it = memo_d.find(key(avail, j1, j2));
    if (it != memo_d.end()) return it->second;

    double v;
    bool counted_idle = false;
    if (rank) {
      // Greedy never-idle: fill the fast machine first, then the slow one,
      // always with the best-ranked unstarted job.
      std::uint32_t a = avail;
      std::size_t c1 = j1, c2 = j2;
      auto best_ranked = [&](std::uint32_t mask) {
        std::size_t best = kNone;
        for (std::size_t j = 0; j < n; ++j)
          if ((mask & (1u << j)) &&
              (best == kNone || (*rank)[j] < (*rank)[best]))
            best = j;
        return best;
      };
      if (c1 == kNone && a != 0) {
        c1 = best_ranked(a);
        a &= ~(1u << c1);
      }
      if (c2 == kNone && a != 0) {
        c2 = best_ranked(a);
        a &= ~(1u << c2);
      }
      v = race(a, c1, c2);
    } else {
      v = std::numeric_limits<double>::infinity();
      bool best_is_idle = false;
      // Machine-1 choices: keep incumbent, or commit any unstarted job.
      std::vector<std::size_t> c1s;
      if (j1 != kNone) {
        c1s.push_back(j1);
      } else {
        for (std::size_t j = 0; j < n; ++j)
          if (avail & (1u << j)) c1s.push_back(j);
        c1s.push_back(kNone);  // leave the fast machine idle (never wins,
                               // kept for correctness-by-enumeration)
      }
      for (const std::size_t c1 : c1s) {
        const std::uint32_t a1 =
            (j1 == kNone && c1 != kNone) ? (avail & ~(1u << c1)) : avail;
        std::vector<std::size_t> c2s;
        if (j2 != kNone) {
          c2s.push_back(j2);
        } else {
          for (std::size_t j = 0; j < n; ++j)
            if (a1 & (1u << j)) c2s.push_back(j);
          c2s.push_back(kNone);  // the threshold action: idle the slow one
        }
        for (const std::size_t c2 : c2s) {
          if (c1 == kNone && c2 == kNone && a1 != 0) continue;  // deadlock
          const std::uint32_t a2 =
              (j2 == kNone && c2 != kNone) ? (a1 & ~(1u << c2)) : a1;
          if (c1 == kNone && c2 == kNone && a2 == 0) {
            if (0.0 < v) {
              v = 0.0;
              best_is_idle = false;
            }
            continue;
          }
          const double cand = race(a2, c1, c2);
          if (cand < v - 1e-15) {
            v = cand;
            // "Idles machine 2" = slow machine left empty with work waiting.
            best_is_idle = c2 == kNone && a2 != 0;
          }
        }
      }
      ++decision_states;
      if (best_is_idle) {
        ++idle_states;
        counted_idle = true;
      }
      (void)counted_idle;
    }
    memo_d.emplace(key(avail, j1, j2), v);
    return v;
  }
};

}  // namespace

UniformDpResult uniform2_dp_optimal(const std::vector<ExpJob>& jobs, double s1,
                                    double s2, ExpObjective objective) {
  Engine eng(jobs, s1, s2, objective);
  UniformDpResult out;
  const std::uint32_t full = (1u << jobs.size()) - 1;
  out.value = eng.decide(full, eng.kNone, eng.kNone);
  out.states = eng.decision_states;
  out.idle_states = eng.idle_states;
  return out;
}

double uniform2_dp_priority(const std::vector<ExpJob>& jobs, double s1,
                            double s2, ExpObjective objective,
                            const std::vector<std::size_t>& priority) {
  STOSCHED_REQUIRE(priority.size() == jobs.size(),
                   "priority must cover all jobs");
  std::vector<std::size_t> rank(jobs.size());
  for (std::size_t pos = 0; pos < priority.size(); ++pos)
    rank[priority[pos]] = pos;
  Engine eng(jobs, s1, s2, objective);
  eng.rank = &rank;
  const std::uint32_t full = (1u << jobs.size()) - 1;
  return eng.decide(full, eng.kNone, eng.kNone);
}

}  // namespace stosched::batch
