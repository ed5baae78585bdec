// station.hpp — the multiclass station kernel behind the queueing
// simulators (internal to src/queueing; no public header includes it).
//
// One event loop serves simulate_mg1 (one station, one server),
// simulate_mmm (one station, m servers) and simulate_network (S stations,
// deterministic routes). simulate_polling runs its own server movement and
// switchovers over the kernel's arrivals, queues and statistics. The kernel
// owns:
//   * the substream layout: class j draws interarrival gaps and batch sizes
//     from stream 2j and services from stream 2j+1 of a root carved from one
//     draw of the caller's Rng; stream 2n is the model's auxiliary stream
//     (M/G/1 feedback routing, polling switchovers);
//   * the arrival step: gap draw, next-arrival push, batch-size draw;
//   * waiting jobs: one queued-at epoch per job in a per-class FIFO, the
//     class order per station under FCFS, and the unfinished service of
//     preempted jobs (which wait at the head of their class);
//   * station dispatch: FCFS or a per-station priority list over m servers,
//     with preemptive-resume on single-server stations;
//   * routing on completion: the class's deterministic `next`, or a
//     Bernoulli feedback matrix drawn on the auxiliary stream;
//   * statistics under one warm-up rule: every time average restarts at the
//     warmup epoch, and waits and sojourns count from the first event at or
//     after it.
// The hot loop dispatches statically: no virtual or std::function call per
// event beyond the arrival process's own batch_size().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"
#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "obs/metrics.hpp"
#include "queueing/mg1.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stosched::queueing::detail {

inline constexpr std::uint32_t kArrival = 0;
inline constexpr std::uint32_t kDeparture = 1;
/// Snapshot of the population total (run() records it; see `samples`).
inline constexpr std::uint32_t kSample = 2;
/// First event kind left to models that drive next() themselves.
inline constexpr std::uint32_t kModelEvent = 3;

inline constexpr std::size_t kNone = SIZE_MAX;

/// How a model is wired. Per-class vectors have one entry per class.
struct StationSpec {
  std::vector<ArrivalPtr> arrival;   ///< null = no external arrivals
  std::vector<FlatSampler> service;  ///< service law per class
  std::vector<std::size_t> station;  ///< serving station; empty = all at 0
  std::vector<std::size_t> next;     ///< route target or kNone; empty = exit
  /// Bernoulli routing (rows sum to <= 1, the deficit exits), drawn on the
  /// auxiliary stream; replaces `next` when set.
  const std::vector<std::vector<double>>* feedback = nullptr;
  std::size_t stations = 1;
  unsigned servers = 1;  ///< per station
  bool fcfs = false;     ///< serve in arrival order across a station's classes
  /// Otherwise each station's classes, highest priority first (the scan
  /// serves the first with a waiting job).
  std::vector<std::vector<std::size_t>> priority;
  bool preemptive = false;  ///< preemptive-resume (one server per station)
  /// Per-class populations, busy servers per station and per-class waits;
  /// false keeps only the population total (one time average).
  bool per_class = true;
  bool sojourn = false;  ///< per-class completions and sojourns (one server)
  double warmup = 0.0;
  double t_end = 0.0;
};

/// Require each station's priority list to name exactly the classes it
/// serves (`station[cls]`), each once.
void require_priority(const std::vector<std::vector<std::size_t>>& priority,
                      const std::vector<std::size_t>& station);

/// Validated single-station spec for ClassSpec models (M/G/1, M/M/m,
/// polling): effective arrival processes, flat service samplers, and the
/// window [warmup, warmup + horizon].
StationSpec class_station(const std::vector<ClassSpec>& classes,
                          double horizon, double warmup);

struct StationKernel {
  /// A station's busy servers and, for single-server stations, its job in
  /// service.
  struct Station {
    unsigned busy = 0;
    std::size_t cls = 0;
    double arrived = 0.0;  ///< when it joined its class queue
    double done = 0.0;     ///< scheduled completion
    std::uint64_t gen = 0;  ///< its departure event's; bumped per start
  };

  StationKernel(StationSpec s, Rng& caller);
  /// Merges the run's tail samples into the obs registry, as EventQueue
  /// flushes its pop count: plain increments per event, one merge per run.
  ~StationKernel();
  StationKernel(const StationKernel&) = delete;  // would merge twice
  StationKernel& operator=(const StationKernel&) = delete;

  /// Pop the next event within the horizon into `e`, advance the clock and
  /// apply the warm-up rule. At the horizon: clock to t_end, false.
  bool next(Event& e);
  /// Station models: run to the horizon.
  void run();

  /// Arrival step for class `cls`: schedule the next arrival, then admit
  /// the epoch's batch to the class queue.
  void admit(std::size_t cls);
  /// Take class `cls`'s next job into service at `st`: record its wait (or
  /// resume its banked service) and schedule its departure.
  void serve(std::size_t st, std::size_t cls);
  /// Change class `cls`'s population (the total's, without per_class).
  void add(std::size_t cls, long delta);

  /// Time average of population slot `s` (class, or 0 for the total).
  double mean_count(std::size_t s) { return count_ta[s].finish(spec.t_end); }
  /// Mean busy servers at station `st` over the measured window.
  double mean_busy(std::size_t st) { return busy_ta[st].finish(spec.t_end); }

  StationSpec spec;
  std::size_t n;

  std::vector<Rng> arrival_rng, service_rng;
  Rng aux_rng;
  std::vector<ArrivalState> arrival_state;
  std::vector<CachedGapSampler> gap;
  std::vector<std::size_t> rank;  ///< position in its station's priority list

  EventQueue events;
  std::vector<FifoArena<double>> queue;       ///< per class: queued-at epochs
  std::vector<FifoArena<std::size_t>> order;  ///< per station (FCFS): classes
  /// Per class: unfinished service of the preempted jobs at the head of
  /// `queue`, the next to resume last.
  std::vector<std::vector<double>> banked;
  std::vector<Station> station_state;  ///< per station

  std::vector<long> count;  ///< per class, or the total alone
  std::vector<TimeAverage> count_ta;
  std::vector<TimeAverage> busy_ta;   ///< per station (per_class)
  std::vector<TimeAverage> model_ta;  ///< model-owned, restarted with the rest
  /// Per class; a sojourn count is a completion count.
  std::vector<RunningStat> wait_stat, sojourn_stat;
  obs::LocalHistogram wait_hist, sojourn_hist;  ///< post-warmup tails
  std::vector<double> sample_times, samples;  ///< kSample snapshots
  double now = 0.0;
  bool warm = false;

 private:
  void warm_up();
  /// Start the best waiting job(s) at station `st`, preempting if allowed.
  void dispatch(std::size_t st);
  std::size_t pick(std::size_t st) const;
  /// Service completion: free the server, route or exit, re-dispatch.
  void depart(const Event& e);
  std::size_t route(std::size_t cls);
};

}  // namespace stosched::queueing::detail
