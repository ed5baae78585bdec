#include "experiment/engine.hpp"

#include <algorithm>
#include <cmath>

namespace stosched::experiment {

namespace detail {

bool metric_precise(const RunningStat& s, const EngineOptions& opt) {
  if (s.count() < 2) return false;
  const double hw = s.ci_halfwidth(opt.alpha);
  const double mean = std::abs(s.mean());
  const double target =
      mean >= opt.abs_floor ? opt.rel_precision * mean : opt.rel_precision;
  return hw <= target;
}

bool precision_met(const std::vector<RunningStat>& stats,
                   const EngineOptions& opt) {
  if (opt.tracked.empty()) {
    for (const RunningStat& s : stats)
      if (!metric_precise(s, opt)) return false;
    return true;
  }
  for (const std::size_t d : opt.tracked)
    if (!metric_precise(stats[d], opt)) return false;
  return true;
}

bool paired_precision_met(const std::vector<std::vector<RunningStat>>& diff,
                          const EngineOptions& opt) {
  for (const auto& arm : diff)
    if (!precision_met(arm, opt)) return false;
  return true;
}

std::size_t cells_per_batch(std::size_t batch) {
  return std::max<std::size_t>(1, (batch + kCellSize - 1) / kCellSize);
}

}  // namespace detail

}  // namespace stosched::experiment
