#include "restless/relaxation.hpp"

#include <cmath>

#include "lp/simplex.hpp"
#include "util/check.hpp"

namespace stosched::restless {

namespace {

/// Assemble the occupation-measure LP. `activity_rhs` is the right-hand
/// side of the coupling constraint (m for the full instance, m/N for the
/// symmetric one-project shortcut). Rows come out in the order dual
/// extraction expects: flow balance per (project, state), then one
/// normalization row per project, then the coupling row.
lp::Problem build_lp(const std::vector<const RestlessProject*>& projects,
                     double activity_rhs) {
  // Variable layout: x_j(s, a) at offset[j] + 2 s + a.
  std::vector<std::size_t> offset(projects.size() + 1, 0);
  for (std::size_t j = 0; j < projects.size(); ++j)
    offset[j + 1] = offset[j] + 2 * projects[j]->num_states();
  const std::size_t nvars = offset.back();

  std::vector<double> costs(nvars, 0.0);
  for (std::size_t j = 0; j < projects.size(); ++j)
    for (std::size_t s = 0; s < projects[j]->num_states(); ++s) {
      costs[offset[j] + 2 * s + 0] = projects[j]->reward_passive[s];
      costs[offset[j] + 2 * s + 1] = projects[j]->reward_active[s];
    }

  auto problem = lp::Problem::maximize(std::move(costs));

  // Flow balance: one row per (project, state), each touching only that
  // project's 2·n variables — built sparsely.
  for (std::size_t j = 0; j < projects.size(); ++j) {
    const auto& p = *projects[j];
    const std::size_t n = p.num_states();
    for (std::size_t s = 0; s < n; ++s) {
      std::vector<std::size_t> idx;
      std::vector<double> val;
      idx.reserve(2 * n + 2);
      val.reserve(2 * n + 2);
      idx.push_back(offset[j] + 2 * s + 0);
      val.push_back(1.0);
      idx.push_back(offset[j] + 2 * s + 1);
      val.push_back(1.0);
      for (std::size_t sp = 0; sp < n; ++sp) {
        idx.push_back(offset[j] + 2 * sp + 0);
        val.push_back(-p.trans_passive[sp][s]);
        idx.push_back(offset[j] + 2 * sp + 1);
        val.push_back(-p.trans_active[sp][s]);
      }
      problem.subject_to_sparse(std::move(idx), std::move(val), lp::Sense::kEq,
                                0.0);
    }
  }
  // Normalization per project.
  for (std::size_t j = 0; j < projects.size(); ++j) {
    std::vector<std::size_t> idx;
    std::vector<double> val;
    for (std::size_t s = 0; s < projects[j]->num_states(); ++s) {
      idx.push_back(offset[j] + 2 * s + 0);
      idx.push_back(offset[j] + 2 * s + 1);
      val.insert(val.end(), {1.0, 1.0});
    }
    problem.subject_to_sparse(std::move(idx), std::move(val), lp::Sense::kEq,
                              1.0);
  }
  // Coupling: total activity.
  {
    std::vector<std::size_t> idx;
    for (std::size_t j = 0; j < projects.size(); ++j)
      for (std::size_t s = 0; s < projects[j]->num_states(); ++s)
        idx.push_back(offset[j] + 2 * s + 1);
    std::vector<double> val(idx.size(), 1.0);
    problem.subject_to_sparse(std::move(idx), std::move(val), lp::Sense::kEq,
                              activity_rhs);
  }
  return problem;
}

/// Solve the occupation-measure LP and package the primal-dual outputs.
RelaxationResult solve_lp(const std::vector<const RestlessProject*>& projects,
                          double activity_rhs) {
  std::vector<std::size_t> offset(projects.size() + 1, 0);
  for (std::size_t j = 0; j < projects.size(); ++j)
    offset[j + 1] = offset[j] + 2 * projects[j]->num_states();

  // Flow-balance rows are the first Σ_j n_j rows, in (project, state) order.
  std::vector<std::vector<std::size_t>> flow_row(projects.size());
  std::size_t row = 0;
  for (std::size_t j = 0; j < projects.size(); ++j) {
    flow_row[j].resize(projects[j]->num_states());
    for (std::size_t s = 0; s < projects[j]->num_states(); ++s)
      flow_row[j][s] = row++;
  }

  const lp::Problem problem = build_lp(projects, activity_rhs);
  const auto sol = lp::solve(problem);
  STOSCHED_REQUIRE(sol.optimal(), "relaxation LP did not solve: " +
                                      lp::to_string(sol.status));

  RelaxationResult out;
  out.bound = sol.objective;
  out.advantage.resize(projects.size());
  out.activity.resize(projects.size());
  for (std::size_t j = 0; j < projects.size(); ++j) {
    const auto& p = *projects[j];
    const std::size_t n = p.num_states();
    out.advantage[j].resize(n);
    out.activity[j].resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      // Activity advantage at the optimal flow duals h (shift-invariant
      // within a project, so the redundant flow row is harmless).
      double adv = p.reward_active[s] - p.reward_passive[s];
      for (std::size_t t = 0; t < n; ++t)
        adv += (p.trans_active[s][t] - p.trans_passive[s][t]) *
               sol.duals[flow_row[j][t]];
      out.advantage[j][s] = adv;
      out.activity[j][s] = sol.x[offset[j] + 2 * s + 1];
    }
  }
  return out;
}

}  // namespace

lp::Problem relaxation_lp(const RestlessInstance& inst) {
  inst.validate();
  std::vector<const RestlessProject*> ptrs;
  ptrs.reserve(inst.projects.size());
  for (const auto& p : inst.projects) ptrs.push_back(&p);
  return build_lp(ptrs, static_cast<double>(inst.activate));
}

RelaxationResult solve_relaxation(const RestlessInstance& inst) {
  inst.validate();
  std::vector<const RestlessProject*> ptrs;
  ptrs.reserve(inst.projects.size());
  for (const auto& p : inst.projects) ptrs.push_back(&p);
  return solve_lp(ptrs, static_cast<double>(inst.activate));
}

RelaxationResult solve_relaxation_symmetric(const RestlessProject& proto,
                                            std::size_t copies,
                                            std::size_t activate) {
  proto.validate();
  STOSCHED_REQUIRE(copies >= 1 && activate >= 1 && activate <= copies,
                   "need 1 <= activate <= copies");
  std::vector<const RestlessProject*> one{&proto};
  RelaxationResult r = solve_lp(
      one, static_cast<double>(activate) / static_cast<double>(copies));
  r.bound *= static_cast<double>(copies);
  return r;
}

}  // namespace stosched::restless
