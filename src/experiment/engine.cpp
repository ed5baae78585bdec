#include "experiment/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/progress.hpp"

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

namespace {

// When the STOSCHED_PROGRESS sink is armed, every stopping check reports
// each tracked metric's live CI half-width — and keeps checking past the
// first imprecise metric so the line stream covers all of them. With the
// sink off, the early-exit fast path is untouched.
bool check_metric(const std::vector<RunningStat>& stats, std::size_t d,
                  const EngineOptions& opt) {
  const RunningStat& s = stats[d];
  const bool precise = metric_precise(s, opt);
  if (obs::progress_enabled())
    obs::progress_line(
        "ci", {{"metric", static_cast<double>(d)},
               {"n", static_cast<double>(s.count())},
               {"mean", s.count() > 0 ? s.mean() : 0.0},
               {"halfwidth", s.count() >= 2 ? s.ci_halfwidth(opt.alpha) : 0.0},
               {"target", opt.rel_precision},
               {"precise", precise ? 1.0 : 0.0}});
  return precise;
}

}  // namespace

bool precision_met(const std::vector<RunningStat>& stats,
                   const EngineOptions& opt) {
  const bool report_all = obs::progress_enabled();
  bool ok = true;
  if (opt.tracked.empty()) {
    for (std::size_t d = 0; d < stats.size(); ++d) {
      if (!check_metric(stats, d, opt)) {
        ok = false;
        if (!report_all) return false;
      }
    }
    return ok;
  }
  for (const std::size_t d : opt.tracked) {
    STOSCHED_REQUIRE(d < stats.size(), "tracked metric index out of range");
    if (!check_metric(stats, d, opt)) {
      ok = false;
      if (!report_all) return false;
    }
  }
  return ok;
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
