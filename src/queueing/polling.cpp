#include "queueing/polling.hpp"

#include <cstdint>

#include "obs/trace.hpp"
#include "queueing/station.hpp"
#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched::queueing {

namespace {

// Server movement and switchovers over the station kernel's arrivals,
// queues and statistics (one queue per class, one server that moves).
constexpr std::uint32_t kSwitchDone = detail::kModelEvent;

enum class ServerState { kIdle, kSwitching, kServing };

struct PollingSim {
  const PollingOptions& opt;
  detail::StationKernel k;  // model_ta: [switching, serving]
  FlatSampler switch_flat;  // drawn on the kernel's auxiliary stream
  std::vector<double> cmu;  // static priority index per queue

  ServerState state = ServerState::kIdle;
  std::size_t at = 0;  // queue the server is at (or moving toward)
  // Services left in this visit: the jobs present at the poll (gated),
  // `limit` (k-limited), unbounded otherwise.
  std::size_t budget = 0;

  PollingSim(const std::vector<ClassSpec>& classes, const PollingOptions& o,
             Rng& r)
      : opt(o),
        k(detail::class_station(classes, o.horizon, o.warmup), r),
        switch_flat(o.switchover->flat()) {
    for (const auto& c : classes)
      cmu.push_back(c.holding_cost / c.service->mean());
    k.model_ta.resize(2);
  }

  void set_state(ServerState s) {
    state = s;
    k.model_ta[0].observe(k.now, s == ServerState::kSwitching ? 1.0 : 0.0);
    k.model_ta[1].observe(k.now, s == ServerState::kServing ? 1.0 : 0.0);
  }

  /// Queue the server should work on next, or kNone to idle in place: the
  /// first nonempty queue in cyclic order after `at` (so `at` itself is
  /// reconsidered last, after a full tour), or for greedy-cµ the highest-cµ
  /// nonempty queue (lowest index on ties).
  std::size_t choose_target() const {
    const bool greedy = opt.discipline == PollingDiscipline::kGreedyCmu;
    const std::size_t n = cmu.size();
    std::size_t best = detail::kNone;
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t q = greedy ? step : (at + 1 + step) % n;
      if (k.queue[q].empty()) continue;
      if (!greedy) return q;
      if (best == detail::kNone || cmu[q] > cmu[best]) best = q;
    }
    return best;
  }

  void start_service() {
    k.serve(0, at);
    set_state(ServerState::kServing);
    if (budget > 0) --budget;
  }

  void begin_switch(std::size_t target) {
    at = target;
    set_state(ServerState::kSwitching);
    k.events.push(k.now + switch_flat.sample(k.aux_rng), kSwitchDone,
                  static_cast<std::uint32_t>(target));
  }

  /// Decide what to do when the server becomes free at `at`: continue the
  /// visit, or move to the next target (cyclic, or the greedy cµ argmax,
  /// which serves in place when it already is there), or idle.
  void decide() {
    const bool greedy = opt.discipline == PollingDiscipline::kGreedyCmu;
    if (!greedy && budget > 0 && !k.queue[at].empty()) return start_service();
    const std::size_t target = choose_target();
    if (target == detail::kNone)
      set_state(ServerState::kIdle);
    else if (greedy && target == at)
      start_service();
    else
      begin_switch(target);
  }

  /// The server polls queue `at`: a new visit starts.
  void poll() {
    if (opt.discipline == PollingDiscipline::kGated)
      budget = k.queue[at].size();
    else if (opt.discipline == PollingDiscipline::kLimited)
      budget = opt.limit;
    else
      budget = detail::kNone;
    decide();
  }

  void run() {
    Event e;
    while (k.next(e)) {
      const std::size_t q = e.a;
      if (e.type == detail::kArrival) {
        k.admit(q);
        // The idle server (all queues were empty) re-polls its position.
        if (state == ServerState::kIdle) poll();
      } else if (e.type == detail::kDeparture) {
        k.add(q, -1);
        decide();
      } else {
        poll();  // kSwitchDone
      }
    }
  }
};

}  // namespace

PollingResult simulate_polling(const std::vector<ClassSpec>& classes,
                               const PollingOptions& options, Rng& rng) {
  STOSCHED_EXPECTS(!classes.empty(),
                   "simulate_polling needs at least one queue");
  STOSCHED_REQUIRE(options.switchover != nullptr, "switchover law required");
  STOSCHED_TRACE_SPAN("sim", "simulate_polling");
  PollingSim sim(classes, options, rng);
  sim.run();
  PollingResult res;
  res.mean_in_system.resize(classes.size());
  for (std::size_t j = 0; j < classes.size(); ++j) {
    res.mean_in_system[j] = sim.k.mean_count(j);
    res.cost_rate += classes[j].holding_cost * res.mean_in_system[j];
  }
  res.switching_fraction = sim.k.model_ta[0].finish(sim.k.spec.t_end);
  res.serving_fraction = sim.k.model_ta[1].finish(sim.k.spec.t_end);
  // The server partitions time into serving / switching / idle, so the two
  // reported fractions are each in [0, 1] and sum to at most 1.
  STOSCHED_ENSURES(res.serving_fraction >= 0.0 && res.switching_fraction >= 0.0,
                   "polling time fractions must be nonnegative");
  STOSCHED_ENSURES(res.serving_fraction + res.switching_fraction <= 1.0 + 1e-9,
                   "polling serving+switching fractions exceed 1");
  return res;
}

std::size_t polling_metric_count(std::size_t num_queues) {
  return 3 + num_queues;
}

void run_replication(const std::vector<ClassSpec>& classes,
                     const PollingOptions& options, Rng& rng,
                     std::span<double> out) {
  STOSCHED_REQUIRE(out.size() == polling_metric_count(classes.size()),
                   "metric span size mismatch");
  const PollingResult res = simulate_polling(classes, options, rng);
  out[0] = res.cost_rate;
  out[1] = res.switching_fraction;
  out[2] = res.serving_fraction;
  for (std::size_t j = 0; j < classes.size(); ++j)
    out[3 + j] = res.mean_in_system[j];
}

}  // namespace stosched::queueing
