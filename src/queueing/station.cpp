#include "queueing/station.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched::queueing::detail {

void require_priority(const std::vector<std::vector<std::size_t>>& priority,
                      const std::vector<std::size_t>& station) {
  // The dispatch scan only looks at listed classes: an omitted class would
  // never be served (unbounded backlog, bogus growth rate), and an
  // out-of-range or duplicate entry would corrupt the rank table.
  std::vector<char> listed(station.size(), 0);
  for (std::size_t st = 0; st < priority.size(); ++st) {
    for (const std::size_t cls : priority[st]) {
      STOSCHED_REQUIRE(cls < station.size() && station[cls] == st,
                       "priority lists a class of no or another station");
      STOSCHED_REQUIRE(!listed[cls], "priority lists a class more than once");
      listed[cls] = 1;
    }
  }
  for (const char l : listed)
    STOSCHED_REQUIRE(l, "priority omits a class (it would starve)");
}

StationSpec class_station(const std::vector<ClassSpec>& classes,
                          double horizon, double warmup) {
  STOSCHED_REQUIRE(!classes.empty(), "need at least one class");
  STOSCHED_REQUIRE(horizon > 0.0, "horizon must be > 0");
  STOSCHED_REQUIRE(warmup >= 0.0, "warmup must be >= 0");
  StationSpec spec;
  for (const auto& c : classes) {
    STOSCHED_REQUIRE(c.arrival_rate >= 0.0, "arrival rate must be >= 0");
    STOSCHED_REQUIRE(c.service != nullptr, "every class needs a service law");
    spec.arrival.push_back(effective_arrival(c));
    spec.service.push_back(c.service->flat());
  }
  spec.warmup = warmup;
  spec.t_end = warmup + horizon;
  return spec;
}

StationKernel::~StationKernel() {
  obs::wait_time_histogram().merge(wait_hist);
  if (spec.sojourn) obs::sojourn_time_histogram().merge(sojourn_hist);
}

StationKernel::StationKernel(StationSpec s, Rng& caller)
    : spec(std::move(s)), n(spec.service.size()) {
  if (spec.station.empty()) spec.station.assign(n, 0);
  if (spec.next.empty()) spec.next.assign(n, kNone);
  if (!spec.fcfs && !spec.priority.empty())
    require_priority(spec.priority, spec.station);
  // One draw decouples back-to-back simulations sharing a caller Rng;
  // everything below derives from it, so copies of the same caller state
  // replay identical substreams — the synchronization common-random-number
  // comparisons rely on.
  const Rng root(caller());
  for (std::size_t j = 0; j < n; ++j) {
    arrival_rng.push_back(root.stream(2 * j));
    service_rng.push_back(root.stream(2 * j + 1));
    gap.emplace_back(spec.arrival[j].get());
  }
  aux_rng = root.stream(2 * n);
  arrival_state.resize(n);
  rank.assign(n, 0);
  for (const auto& list : spec.priority)
    for (std::size_t pos = 0; pos < list.size(); ++pos) rank[list[pos]] = pos;

  // Steady state holds ~2 events per class (next arrival + departure);
  // reserving up front keeps multi-replication runs allocation-free.
  events.reserve(4 * n + 16);
  queue.resize(n);
  if (spec.fcfs) order.resize(spec.stations);
  if (spec.preemptive) banked.resize(n);
  station_state.resize(spec.stations);
  count.assign(spec.per_class ? n : 1, 0);
  count_ta.resize(count.size());
  busy_ta.resize(spec.stations);
  wait_stat.resize(n);
  sojourn_stat.resize(n);

  for (std::size_t j = 0; j < n; ++j)
    if (spec.arrival[j])
      events.push(gap[j].next_gap(arrival_state[j], arrival_rng[j]), kArrival,
                  static_cast<std::uint32_t>(j));
}

// Restart the time averages at the warmup *epoch*, not at the first event
// at or after it: TimeAverage::reset keeps the current level, so the
// segment [warmup, next event) is credited at the pre-warmup state even
// when events are sparse or none follows the epoch. Nothing before the
// epoch counts, so no time average needs an initial observation.
void StationKernel::warm_up() {
  warm = true;
  for (auto* group : {&count_ta, &busy_ta, &model_ta})
    for (auto& ta : *group) ta.reset(spec.warmup);
}

bool StationKernel::next(Event& e) {
  if (events.empty() || events.top().time > spec.t_end) {
    now = spec.t_end;
    if (!warm) warm_up();  // no event reached the warmup epoch
    return false;
  }
  e = events.pop();
  now = e.time;
  if (!warm && now >= spec.warmup) warm_up();
  return true;
}

// Flattened: the whole event path (next, admit, dispatch, serve, depart)
// inlines into this one loop, as the per-simulator loops it replaced did.
[[gnu::flatten]] void StationKernel::run() {
  Event e;
  while (next(e)) {
    if (e.type == kArrival) {
      admit(e.a);
      dispatch(spec.station[e.a]);
    } else if (e.type == kDeparture) {
      depart(e);
    } else {  // kSample
      sample_times.push_back(now);
      samples.push_back(static_cast<double>(count[0]));
    }
  }
}

void StationKernel::add(std::size_t cls, long delta) {
  const std::size_t s = spec.per_class ? cls : 0;
  count[s] += delta;
  STOSCHED_INVARIANT(count[s] >= 0, "negative population");
  count_ta[s].observe(now, static_cast<double>(count[s]));
}

void StationKernel::admit(std::size_t cls) {
  const double g = gap[cls].next_gap(arrival_state[cls], arrival_rng[cls]);
  events.push(now + g, kArrival, static_cast<std::uint32_t>(cls));
  // Batch processes deliver several simultaneous jobs per epoch; the
  // default batch_size() is 1 and consumes no randomness.
  const std::size_t jobs =
      spec.arrival[cls]->batch_size(arrival_state[cls], arrival_rng[cls]);
  add(cls, static_cast<long>(jobs));
  for (std::size_t i = 0; i < jobs; ++i) {
    queue[cls].push_back(now);
    if (spec.fcfs) order[spec.station[cls]].push_back(cls);
  }
}

std::size_t StationKernel::pick(std::size_t st) const {
  if (spec.fcfs) return order[st].empty() ? kNone : order[st].front();
  for (const std::size_t cls : spec.priority[st])
    if (!queue[cls].empty()) return cls;
  return kNone;
}

void StationKernel::dispatch(std::size_t st) {
  Station& s = station_state[st];
  while (s.busy < spec.servers || spec.preemptive) {
    const std::size_t cls = pick(st);
    if (cls == kNone) return;
    if (s.busy == spec.servers) {
      // Only a strictly higher class preempts. The incumbent re-enters at
      // the head of its class with its unfinished service banked, and its
      // departure event goes stale (generation mismatch).
      if (rank[cls] >= rank[s.cls]) return;
      queue[s.cls].push_front(s.arrived);
      banked[s.cls].push_back(s.done - now);
      --s.busy;
    }
    if (spec.fcfs) order[st].pop_front();
    serve(st, cls);
    ++s.busy;
    if (spec.per_class) busy_ta[st].observe(now, static_cast<double>(s.busy));
  }
}

void StationKernel::serve(std::size_t st, std::size_t cls) {
  Station& s = station_state[st];
  s.cls = cls;
  s.arrived = queue[cls].front();
  queue[cls].pop_front();
  double service = 0.0;
  if (spec.preemptive && !banked[cls].empty()) {
    service = banked[cls].back();  // resume: wait already counted
    banked[cls].pop_back();
  } else {
    if (warm) {
      if (spec.per_class) wait_stat[cls].push(now - s.arrived);
      wait_hist.record(now - s.arrived);
    }
    service = spec.service[cls].sample(service_rng[cls]);
  }
  s.done = now + service;
  events.push(s.done, kDeparture, static_cast<std::uint32_t>(cls), ++s.gen);
}

std::size_t StationKernel::route(std::size_t cls) {
  if (spec.feedback == nullptr) return spec.next[cls];
  double u = aux_rng.uniform();
  const auto& row = (*spec.feedback)[cls];
  for (std::size_t k = 0; k < n; ++k) {
    u -= row[k];
    if (u < 0.0) return k;
  }
  return kNone;
}

void StationKernel::depart(const Event& e) {
  const std::size_t cls = e.a;
  const std::size_t st = spec.station[cls];
  Station& s = station_state[st];
  if (spec.preemptive && e.b != s.gen) return;  // preempted
  if (spec.sojourn && warm) {
    sojourn_stat[cls].push(now - s.arrived);
    sojourn_hist.record(now - s.arrived);
  }
  const unsigned level = s.busy--;
  const std::size_t to = route(cls);
  if (spec.per_class || to == kNone) add(cls, -1);
  if (to != kNone) {
    if (spec.per_class) add(to, +1);
    queue[to].push_back(now);
    if (spec.fcfs) order[spec.station[to]].push_back(to);
    dispatch(spec.station[to]);
  }
  dispatch(st);
  // A start records the busy level itself; record the drop only if no job
  // took the freed server.
  if (spec.per_class && s.busy < level)
    busy_ta[st].observe(now, static_cast<double>(s.busy));
}

}  // namespace stosched::queueing::detail
