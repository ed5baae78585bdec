// engine.hpp — the unified replication engine of the experiment subsystem.
//
// Every simulator in the library answers one question per replication: "run
// the model once on this RNG stream and report a metric vector". The engine
// owns everything around that call, uniformly for all simulators:
//
//   * *Substreams*: replication r always draws from `Rng(seed).stream(r)`,
//     so an experiment is a pure function of (seed, replication count) —
//     independent of thread count, scheduling and batch boundaries.
//   * *Fan-out*: replications are grouped into fixed-size cells of
//     `kCellSize`; cells run concurrently under OpenMP (serially otherwise)
//     and are merged in cell order with the exact Chan–Golub–LeVeque
//     combination, so the aggregate is bit-identical for 1 or N threads.
//   * *Common random numbers* (`run_paired`): K policy arms replay the
//     *same* substream per replication, turning a policy comparison into a
//     paired-difference estimate whose variance drops by the (usually
//     large) common-variation term — see the CRN tests for the measured
//     factor on M/G/1 discipline comparisons. Every paired run goes through
//     `run_paired_replications`, whose body fills all K arms of one
//     replication in one call; `run_paired` is its one-arm-per-call
//     adapter. A CRN body that realizes something shared by every arm (the
//     online instance and its offline LP bound) therefore computes it once
//     per replication instead of once per arm.
//   * *Sequential stopping*: instead of guessing a replication count, run
//     batches until every tracked metric's (1-alpha) CI half-width falls
//     below `rel_precision * |mean|`, with a hard cap. Deterministic in
//     (options, body) because substreams are indexed, not consumed.
//
// The body parameter is a template, not a std::function: the hot loop
// inlines the replication call. (The former `util/parallel.hpp` shim over
// this engine is gone; run_fixed is the drop-in replacement.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stosched::experiment {

/// Replications per merge cell. A cell is the unit of parallel work *and*
/// of deterministic merging: results never depend on how cells map onto
/// threads, only on the (fixed) cell boundaries. 16 is small enough that
/// even a 32-replication run of an expensive simulator fans out, and large
/// enough to amortize the per-cell accumulator over cheap bodies.
inline constexpr std::size_t kCellSize = 16;

/// Controls for a replication run. With `rel_precision == 0` the engine
/// runs exactly `max_replications` (a classical fixed-length design);
/// otherwise it adds `batch`-sized rounds until every metric's CI is tight
/// enough or the cap is hit.
struct EngineOptions {
  std::uint64_t seed = 1;
  std::size_t max_replications = 1024;  ///< hard cap (and fixed-run length)
  std::size_t min_replications = 64;    ///< no stopping check before this
  std::size_t batch = 256;              ///< replications per stopping check
  double rel_precision = 0.0;  ///< target: halfwidth <= rel * |mean|; 0 = off
  double alpha = 0.05;         ///< CI level for the stopping rule
  /// Metrics with |mean| < abs_floor are judged on absolute half-width
  /// (halfwidth <= rel_precision) instead — a relative target is
  /// meaningless at zero.
  double abs_floor = 1e-9;
  /// Metric dimensions the stopping rule watches (empty = all). Paired runs
  /// apply this to the difference statistics: typically the one or two
  /// metrics a comparison is about, not every bookkeeping column.
  std::vector<std::size_t> tracked;
};

/// Aggregated outcome of a replication run.
struct EngineResult {
  std::vector<RunningStat> metrics;  ///< one accumulator per dimension
  std::size_t replications = 0;
  bool converged = true;  ///< false only if the precision target was missed

  [[nodiscard]] Estimate estimate(std::size_t metric = 0,
                                  double alpha = 0.05) const {
    STOSCHED_REQUIRE(metric < metrics.size(), "metric index out of range");
    return make_estimate(metrics[metric], alpha);
  }
};

/// How `run_paired` feeds randomness to the K policy arms.
enum class Pairing {
  kCommonRandomNumbers,  ///< all arms replay replication r's substream
  kIndependentStreams,   ///< every (replication, arm) gets its own substream
};

/// Outcome of a K-arm comparison: per-arm metric statistics plus the
/// paired-difference statistics of every arm against arm 0.
struct PairedResult {
  std::vector<std::vector<RunningStat>> arm;   ///< [k][metric]
  std::vector<std::vector<RunningStat>> diff;  ///< [k-1][metric]: arm k − arm 0
  std::size_t replications = 0;
  bool converged = true;
};

namespace detail {

/// True iff one accumulator meets the precision target of `opt`.
bool metric_precise(const RunningStat& s, const EngineOptions& opt);

/// True iff every tracked accumulator meets the precision target of `opt`.
bool precision_met(const std::vector<RunningStat>& stats,
                   const EngineOptions& opt);

/// Paired variant: every tracked dimension of every arm-vs-baseline
/// difference must be precise.
bool paired_precision_met(
    const std::vector<std::vector<RunningStat>>& diff,
    const EngineOptions& opt);

/// Round `batch` up to a whole number of cells (at least one).
std::size_t cells_per_batch(std::size_t batch);

/// Run `cell_body(c)` for c in [0, ncells), concurrently when OpenMP is
/// available. Each cell writes only its own slot, so no synchronization is
/// needed beyond the implicit barrier.
template <class CellBody>
void for_each_cell(std::size_t ncells, CellBody&& cell_body) {
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
  for (long long c = 0; c < static_cast<long long>(ncells); ++c)
    cell_body(static_cast<std::size_t>(c));
#else
  for (std::size_t c = 0; c < ncells; ++c) cell_body(c);
#endif
}

/// The shared batching/cell/merge/stopping orchestration behind run() and
/// run_paired(). `cell_body(lo, hi, acc)` executes replications [lo, hi)
/// into a cell accumulator of `slots` stats; `merge_cell(acc)` folds a
/// finished cell into the caller's cumulative state (called in cell order —
/// that fixed left-fold is the determinism guarantee); `stop()` reports
/// whether the tracked statistics meet the precision target. Returns
/// (replications run, converged).
template <class CellBody, class Merge, class Stop>
std::pair<std::size_t, bool> drive(const EngineOptions& opt,
                                   std::size_t slots, CellBody&& cell_body,
                                   Merge&& merge_cell, Stop&& stop) {
  STOSCHED_REQUIRE(opt.max_replications > 0, "need at least one replication");
  STOSCHED_REQUIRE(opt.rel_precision >= 0.0, "rel_precision must be >= 0");
  const bool sequential = opt.rel_precision > 0.0;
  const std::size_t batch = sequential
                                ? cells_per_batch(opt.batch) * kCellSize
                                : opt.max_replications;
  std::size_t done = 0;
  bool converged = true;
  for (;;) {
    const std::size_t want = std::min(batch, opt.max_replications - done);
    const std::size_t ncells = (want + kCellSize - 1) / kCellSize;
    std::vector<std::vector<RunningStat>> cell(
        ncells, std::vector<RunningStat>(slots));
    for_each_cell(ncells, [&](std::size_t c) {
      const std::size_t lo = done + c * kCellSize;
      const std::size_t hi = std::min(lo + kCellSize, done + want);
      cell_body(lo, hi, cell[c]);
    });
    for (const auto& acc : cell) merge_cell(acc);
    done += want;
    if (!sequential) break;
    if (done >= opt.min_replications && stop()) break;
    if (done >= opt.max_replications) {
      converged = false;
      break;
    }
  }
  return {done, converged};
}

}  // namespace detail

/// Run replications of `body(rep, rng, out)` where `out` is a zeroed span of
/// `dims` doubles holding the replication's metric vector. Deterministic in
/// (opt, body); thread count never changes the result.
template <class Body>
EngineResult run(const EngineOptions& opt, std::size_t dims, Body&& body) {
  STOSCHED_REQUIRE(dims > 0, "need at least one metric dimension");
  for (const std::size_t d : opt.tracked)
    STOSCHED_REQUIRE(d < dims, "tracked metric index out of range");
  const Rng master(opt.seed);
  EngineResult res;
  res.metrics.assign(dims, RunningStat{});
  const auto [done, converged] = detail::drive(
      opt, dims,
      [&](std::size_t lo, std::size_t hi, std::vector<RunningStat>& acc) {
        std::vector<double> out(dims, 0.0);
        for (std::size_t r = lo; r < hi; ++r) {
          Rng rng = master.stream(r);
          std::fill(out.begin(), out.end(), 0.0);
          body(r, rng, std::span<double>(out));
          for (std::size_t d = 0; d < dims; ++d) acc[d].push(out[d]);
        }
      },
      [&](const std::vector<RunningStat>& acc) {
        for (std::size_t d = 0; d < dims; ++d) res.metrics[d].merge(acc[d]);
      },
      [&] { return detail::precision_met(res.metrics, opt); });
  res.replications = done;
  res.converged = converged;
  return res;
}

/// Fixed-length convenience: exactly `replications` runs, no stopping rule.
template <class Body>
EngineResult run_fixed(std::size_t replications, std::uint64_t seed,
                       std::size_t dims, Body&& body) {
  EngineOptions opt;
  opt.seed = seed;
  opt.max_replications = replications;
  opt.rel_precision = 0.0;
  return run(opt, dims, static_cast<Body&&>(body));
}

/// Replication-granular K-arm comparison: `body(rep, rng, out)` fills all
/// `arms × dims` outputs of replication r in one call — `out[k * dims + d]`
/// is arm k's metric d, zeroed on entry — from `rng = Rng(seed).stream(r)`.
/// This is the core of every paired run: a body that shares work across the
/// arms of one replication (a CRN instance realized once, a bound computed
/// once) calls it directly. The stopping rule tracks the *difference*
/// metrics (arm k − arm 0) — those are what a comparison wants tight — and
/// the run is deterministic in (opt, body).
template <class Body>
PairedResult run_paired_replications(const EngineOptions& opt,
                                     std::size_t arms, std::size_t dims,
                                     Body&& body) {
  STOSCHED_REQUIRE(arms >= 2, "a paired comparison needs at least two arms");
  STOSCHED_REQUIRE(dims > 0, "need at least one metric dimension");
  for (const std::size_t d : opt.tracked)
    STOSCHED_REQUIRE(d < dims, "tracked metric index out of range");
  const Rng master(opt.seed);
  PairedResult res;
  res.arm.assign(arms, std::vector<RunningStat>(dims));
  res.diff.assign(arms - 1, std::vector<RunningStat>(dims));

  // Flat per-cell accumulators: arms*dims arm stats then (arms-1)*dims
  // difference stats.
  const std::size_t slots = arms * dims + (arms - 1) * dims;
  const auto [done, converged] = detail::drive(
      opt, slots,
      [&](std::size_t lo, std::size_t hi, std::vector<RunningStat>& acc) {
        std::vector<double> out(arms * dims, 0.0);
        for (std::size_t r = lo; r < hi; ++r) {
          Rng rng = master.stream(r);
          std::fill(out.begin(), out.end(), 0.0);
          body(r, rng, std::span<double>(out));
          for (std::size_t i = 0; i < arms * dims; ++i) acc[i].push(out[i]);
          for (std::size_t k = 1; k < arms; ++k)
            for (std::size_t d = 0; d < dims; ++d)
              acc[arms * dims + (k - 1) * dims + d].push(out[k * dims + d] -
                                                         out[d]);
        }
      },
      [&](const std::vector<RunningStat>& acc) {
        for (std::size_t k = 0; k < arms; ++k)
          for (std::size_t d = 0; d < dims; ++d)
            res.arm[k][d].merge(acc[k * dims + d]);
        for (std::size_t k = 0; k + 1 < arms; ++k)
          for (std::size_t d = 0; d < dims; ++d)
            res.diff[k][d].merge(acc[arms * dims + k * dims + d]);
      },
      [&] { return detail::paired_precision_met(res.diff, opt); });
  res.replications = done;
  res.converged = converged;
  return res;
}

/// K-arm comparison of `body(rep, arm, rng, out)`, one arm per call, over
/// `run_paired_replications`. Under `Pairing::kCommonRandomNumbers` every
/// arm replays the same substream for replication r (the CRN design); under
/// `kIndependentStreams` each (replication, arm) pair draws from its own
/// substream.
template <class Body>
PairedResult run_paired(const EngineOptions& opt, std::size_t arms,
                        std::size_t dims, Pairing pairing, Body&& body) {
  const Rng master(opt.seed);
  return run_paired_replications(
      opt, arms, dims, [&](std::size_t r, Rng&, std::span<double> out) {
        for (std::size_t k = 0; k < arms; ++k) {
          Rng rng = master.stream(
              pairing == Pairing::kCommonRandomNumbers ? r : r * arms + k);
          body(r, k, rng, out.subspan(k * dims, dims));
        }
      });
}

}  // namespace stosched::experiment
