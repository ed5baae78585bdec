// job.hpp — stochastic jobs and batch instances (survey §1).
//
// A job carries a holding-cost weight and a processing-time law. Batches are
// plain vectors; instance generators produce the workload families the
// experiments sweep over (exponential, IFR, DFR, two-point, mixed).
#pragma once

#include <cstddef>
#include <vector>

#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace stosched::batch {

/// One stochastic job: weight w_i (cost per unit time in system) and the
/// processing-time distribution G_i.
struct Job {
  double weight = 1.0;
  DistPtr processing;
};

using Batch = std::vector<Job>;

/// A scheduling order: job indices, first entry = first served / highest
/// priority.
using Order = std::vector<std::size_t>;

/// Family tag for generated instances.
enum class JobFamily {
  kExponential,   ///< Exp(rate) with random rates
  kErlang,        ///< IFR
  kHyperExp,      ///< DFR
  kTwoPoint,      ///< the counterexample family of [13]
  kUniform,
  kMixed,         ///< a blend of the above
};

/// Options for the random-instance generator.
struct BatchGenOptions {
  JobFamily family = JobFamily::kMixed;
  double mean_lo = 0.5;     ///< processing means drawn from [mean_lo, mean_hi]
  double mean_hi = 4.0;
  double weight_lo = 0.5;   ///< weights drawn from [weight_lo, weight_hi]
  double weight_hi = 3.0;
  bool unit_weights = false;
};

/// Generate a random batch of n jobs.
Batch random_batch(std::size_t n, Rng& rng, const BatchGenOptions& opts = {});

/// Identity / sorted orders.
Order identity_order(std::size_t n);
/// Shortest expected processing time first.
Order sept_order(const Batch& jobs);
/// Longest expected processing time first.
Order lept_order(const Batch& jobs);
/// Smith / Rothkopf rule: nonincreasing w_i / E[P_i] (WSEPT). Optimal for
/// 1 machine, nonpreemptive, expected weighted flowtime [34,37].
Order wsept_order(const Batch& jobs);
/// Uniformly random permutation.
Order random_order(std::size_t n, Rng& rng);

}  // namespace stosched::batch
