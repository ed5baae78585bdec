#include "batch/job.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace stosched::batch {

// rng-audit: sink(instance generator: its sequential draw order IS the
// reproducibility contract, pinned by the golden tests)
Batch random_batch(std::size_t n, Rng& rng, const BatchGenOptions& opts) {
  STOSCHED_REQUIRE(n > 0, "batch must contain at least one job");
  Batch jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = rng.uniform(opts.mean_lo, opts.mean_hi);
    JobFamily fam = opts.family;
    if (fam == JobFamily::kMixed) {
      switch (rng.below(5)) {
        case 0: fam = JobFamily::kExponential; break;
        case 1: fam = JobFamily::kErlang; break;
        case 2: fam = JobFamily::kHyperExp; break;
        case 3: fam = JobFamily::kTwoPoint; break;
        default: fam = JobFamily::kUniform; break;
      }
    }
    DistPtr d;
    switch (fam) {
      case JobFamily::kExponential:
        d = exponential_dist(1.0 / mean);
        break;
      case JobFamily::kErlang: {
        const unsigned k = 2 + static_cast<unsigned>(rng.below(3));
        d = erlang_dist(k, k / mean);
        break;
      }
      case JobFamily::kHyperExp:
        d = hyperexp2_dist(mean, rng.uniform(1.5, 6.0));
        break;
      case JobFamily::kTwoPoint: {
        // Short value a, long value b, calibrated to the requested mean.
        const double a = 0.2 * mean;
        const double pa = rng.uniform(0.5, 0.95);
        const double b = (mean - pa * a) / (1.0 - pa);
        d = two_point_dist(a, pa, b);
        break;
      }
      case JobFamily::kUniform:
        d = uniform_dist(0.2 * mean, 1.8 * mean);
        break;
      case JobFamily::kMixed:
        STOSCHED_REQUIRE(false, "mixed family resolved above");
    }
    const double w =
        opts.unit_weights ? 1.0 : rng.uniform(opts.weight_lo, opts.weight_hi);
    jobs.push_back(Job{w, std::move(d)});
  }
  return jobs;
}

Order identity_order(std::size_t n) {
  Order order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

namespace {

template <typename Less>
Order sorted_order(std::size_t n, Less less) {
  Order order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), less);
  return order;
}

}  // namespace

Order sept_order(const Batch& jobs) {
  return sorted_order(jobs.size(), [&](std::size_t a, std::size_t b) {
    return jobs[a].processing->mean() < jobs[b].processing->mean();
  });
}

Order lept_order(const Batch& jobs) {
  return sorted_order(jobs.size(), [&](std::size_t a, std::size_t b) {
    return jobs[a].processing->mean() > jobs[b].processing->mean();
  });
}

Order wsept_order(const Batch& jobs) {
  return sorted_order(jobs.size(), [&](std::size_t a, std::size_t b) {
    return jobs[a].weight / jobs[a].processing->mean() >
           jobs[b].weight / jobs[b].processing->mean();
  });
}

// rng-audit: sink(Fisher-Yates consumes one draw per position by design)
Order random_order(std::size_t n, Rng& rng) {
  Order order = identity_order(n);
  // Fisher–Yates with the library RNG (std::shuffle is not
  // implementation-stable across standard libraries).
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace stosched::batch
