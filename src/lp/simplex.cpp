#include "lp/simplex.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace stosched::lp {

namespace {

// Process-wide LP effort, mirroring the DES event counter: obs registry
// counters with relaxed adds — the totals are commutative sums, so they
// are schedule-independent under OpenMP (the --exact determinism gate
// relies on this). The names are the bench JSON column names.
obs::Counter& solves_counter() {
  static obs::Counter& c = obs::counter("lp_solves");
  return c;
}

obs::Counter& iterations_counter() {
  static obs::Counter& c = obs::counter("lp_iterations");
  return c;
}

}  // namespace

LpCounters process_lp_counters() noexcept {
  return {solves_counter().value(), iterations_counter().value()};
}

void add_process_lp_solve(std::uint64_t iterations) noexcept {
  solves_counter().add(1);
  iterations_counter().add(iterations);
}

Problem Problem::maximize(std::vector<double> costs) {
  Problem p;
  p.objective = Objective::kMaximize;
  p.costs = std::move(costs);
  return p;
}

Problem Problem::minimize(std::vector<double> costs) {
  Problem p;
  p.objective = Objective::kMinimize;
  p.costs = std::move(costs);
  return p;
}

Problem& Problem::subject_to(const std::vector<double>& coeffs, Sense sense,
                             double rhs) {
  STOSCHED_REQUIRE(coeffs.size() == costs.size(),
                   "constraint width must match variable count");
  Constraint c;
  c.sense = sense;
  c.rhs = rhs;
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] == 0.0) continue;
    c.idx.push_back(j);
    c.val.push_back(coeffs[j]);
  }
  constraints.push_back(std::move(c));
  return *this;
}

Problem& Problem::subject_to_sparse(std::vector<std::size_t> idx,
                                    std::vector<double> val, Sense sense,
                                    double rhs) {
  STOSCHED_REQUIRE(idx.size() == val.size(),
                   "sparse constraint: index/value length mismatch");
  for (const std::size_t j : idx)
    STOSCHED_REQUIRE(j < costs.size(),
                     "sparse constraint: column index out of range");
  constraints.push_back(Constraint{std::move(idx), std::move(val), sense, rhs});
  return *this;
}

std::string to_string(Solution::Status s) {
  switch (s) {
    case Solution::Status::kOptimal:
      return "optimal";
    case Solution::Status::kInfeasible:
      return "infeasible";
    case Solution::Status::kUnbounded:
      return "unbounded";
    case Solution::Status::kIterLimit:
      return "iteration-limit";
  }
  return "?";
}

}  // namespace stosched::lp
