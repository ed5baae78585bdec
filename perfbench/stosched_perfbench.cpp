// stosched_perfbench — time to a checked policy comparison, end to end and
// layer by layer.
//
//   stosched_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--tiny] [--inject-wrong] [--setup-only]
//
// One process runs one workload (mg1-crn, network-backlog, online-lp; see
// README.md for why each was chosen). Every experiment is one CRN-paired
// policy comparison with sequential stopping, seeded from --seed.
//
//   --trace 0  End-to-end run. One-replication calls of the public driver
//              (experiment::compare_*_policies) give the replication wall
//              time; whole experiments through the same driver, until
//              --seconds have passed, give the time to an answer. Nothing
//              is timed inside an experiment. Every timing is divided by
//              the host speed measured around it (see HostSpeed).
//   --trace 1  Attribution run. Each experiment runs twice on the same seed:
//              once through the driver, once as a traced decomposition that
//              calls the same public layer functions with the same
//              substreams and times every call from here. The two answer
//              digests must be equal. Per-operation costs of the sampler,
//              the future-event set and histogram recording are calibrated
//              at the workload's law mix and resident size, in short slices
//              between the experiments.
//
// Every experiment's answer is checked (closed forms, stability verdicts,
// bound validity, precision reached before the cap); a failed check makes
// the process exit 1. A build that is not a plain Release build (contracts,
// trace spans or phase timers armed, sanitizers, more than one OpenMP
// thread) is refused with exit 3: it is a different program.
//
// The last stdout line is `RESULT {json}`; perfbench/run.py turns it into
// the benchmark's result line.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/conservation.hpp"
#include "des/event_queue.hpp"
#include "experiment/adapters.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "online/lower_bound.hpp"
#include "online/simulate.hpp"
#include "queueing/mg1_analytic.hpp"
#include "util/check.hpp"

namespace {

using namespace stosched;
using namespace stosched::experiment;

// ---- clocks and small statistics -------------------------------------------

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail reading: the percentile used and the value there.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};

/// The highest percentile of a fixed ladder that has at least 10 samples
/// beyond it (nearest rank). Fewer than 20 samples report the maximum.
Tail tail_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  static constexpr std::size_t kPermille[] = {999, 995, 990, 980, 950,
                                              900, 800, 750, 500};
  for (const std::size_t p : kPermille) {
    const std::size_t rank = (p * n + 999) / 1000;  // 1-based nearest rank
    if (rank >= 1 && n - rank >= 10)
      return {static_cast<double>(p) / 10.0, v[rank - 1]};
  }
  return {100.0, v.back()};
}

/// FNV-1a over the bits of every arm and difference mean plus the
/// replication count: equal digests mean bit-identical answers.
std::uint64_t digest(const PairedResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& arm : r.arm)
    for (const auto& s : arm) mix(std::bit_cast<std::uint64_t>(s.mean()));
  for (const auto& d : r.diff)
    for (const auto& s : d) mix(std::bit_cast<std::uint64_t>(s.mean()));
  mix(r.replications);
  return h;
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Bucket counts of the two shared latency histograms, summed.
obs::HistogramSnapshot recorded_buckets() {
  obs::HistogramSnapshot sum = obs::histogram_snapshot("wait_time");
  const obs::HistogramSnapshot soj = obs::histogram_snapshot("sojourn_time");
  for (std::size_t b = 0; b < obs::hist::kBuckets; ++b)
    sum.counts[b] += soj.counts[b];
  sum.total += soj.total;
  return sum;
}

// ---- host speed --------------------------------------------------------------

/// The speed of a shared host right now, relative to a nominal one. On a
/// shared 4-vCPU x86-64 VM, single-thread speed flipped between two
/// phases ~40% apart for seconds at a time (a neighbour on the same core),
/// and the share of slow phases drifted over tens of minutes: raw timings
/// of one build moved by 30% between runs twenty minutes apart.
/// Every end-to-end timing is therefore divided by the host speed measured
/// just before and after it. The reference kernel shares no code with the
/// library, so no change to the library can move it: random-number and
/// log work, a 4-ary heap, and random updates of a 512 KiB table.
class HostSpeed {
 public:
  HostSpeed() : table_(kTableSize, 0.0) {}

  /// Time of one reference unit over its nominal time: 1 at nominal speed,
  /// above 1 in a slow phase.
  double sample() {
    const double t0 = wall_s();
    unit();
    return (wall_s() - t0) / kNominalSeconds;
  }

 private:
  static constexpr int kOps = 4000;
  static constexpr std::size_t kTableSize = 1u << 16;
  /// About one unit's time on that VM (gcc 12.2, -O3). It sets only
  /// the scale of the normalized timings.
  static constexpr double kNominalSeconds = 1.5e-4;

  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  void unit() {
    for (int i = 0; i < kOps; ++i) sink_ -= std::log(uniform() + 1e-300);
    for (int i = 0; i < kOps; ++i) {
      // Replace the minimum and sift it down.
      const double v = heap_[0] + 64.0 * uniform();
      std::size_t k = 0;
      for (;;) {
        const std::size_t c = 4 * k + 1;
        if (c >= heap_.size()) break;
        std::size_t best = c;
        for (std::size_t j = c + 1; j < c + 4 && j < heap_.size(); ++j)
          if (heap_[j] < heap_[best]) best = j;
        if (heap_[best] >= v) break;
        heap_[k] = heap_[best];
        k = best;
      }
      heap_[k] = v;
    }
    for (int i = 0; i < kOps; ++i) table_[next() & (kTableSize - 1)] += 1.0;
    sink_ += heap_[0] + table_[x_ & (kTableSize - 1)];
    if (sink_ == -1.0) std::printf("#");  // keeps the work observable
  }

  std::uint64_t x_ = 88172645463325252ULL;
  std::array<double, 64> heap_{};
  std::vector<double> table_;
  double sink_ = 0.0;
};

/// Wall and CPU seconds of one call, and the host speed around it.
struct Timing {
  double wall = 0.0;
  double cpu = 0.0;
  double speed = 1.0;
};

template <class Call>
Timing timed(HostSpeed& host, Call&& call) {
  const double before = host.sample();
  const double c0 = cpu_s(), t0 = wall_s();
  call();
  const double c1 = cpu_s(), t1 = wall_s();
  return {t1 - t0, c1 - c0, 0.5 * (before + host.sample())};
}

// ---- correctness checks ----------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check FAILED: %s\n", what.c_str());
    }
  }
};

// ---- traced-run accumulators -----------------------------------------------

/// Busy times and counts collected by the traced decomposition, summed over
/// every traced experiment of the run.
struct Layers {
  std::uint64_t queueing_calls = 0;
  double queueing_busy_s = 0.0;
  std::uint64_t online_calls = 0;  ///< instance + simulation + bound, per arm
  std::uint64_t jobs = 0;
  double instance_s = 0.0;
  double simulate_s = 0.0;
  double bound_s = 0.0;
  std::vector<double> lp_solve_ms;
  std::uint64_t lp_iterations = 0;
  std::uint64_t lp_nonoptimal = 0;
  std::uint64_t lp_rows = 0;
  std::uint64_t lp_nnz = 0;
  double lp_busy_s = 0.0;
};

/// Run one simulator call, charging its time to the queueing layer.
template <class Call>
void queueing_call(Layers& L, Call&& call) {
  const auto t0 = std::chrono::steady_clock::now();
  call();
  const auto t1 = std::chrono::steady_clock::now();
  L.queueing_busy_s += 1e-9 * static_cast<double>(ns_between(t0, t1));
  ++L.queueing_calls;
}

// ---- workloads -------------------------------------------------------------

/// One workload: a scenario, its policy arms, the engine options of one
/// experiment, the public driver call, its traced decomposition and the
/// checks on its answer.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::size_t arms() const = 0;
  [[nodiscard]] virtual std::size_t dims() const = 0;
  /// Engine options of one experiment (stopping rule included).
  [[nodiscard]] virtual EngineOptions options(std::uint64_t seed) const = 0;
  /// The public driver: experiment::compare_*_policies.
  [[nodiscard]] virtual PairedResult answer(const EngineOptions& opt) const = 0;
  /// The same experiment through experiment::run_paired, calling the same
  /// public layer functions on the same substreams, timed from here.
  [[nodiscard]] virtual PairedResult traced(const EngineOptions& opt,
                                            Layers& layers) const = 0;
  /// Correctness of one answer; `inject` swaps in a wrong expected value.
  virtual void check(const PairedResult& r, bool inject, Checks& c) const = 0;
  /// Simulated events of one answer given the FES pops it caused.
  [[nodiscard]] virtual double events(const PairedResult& r,
                                      std::uint64_t fes_pops) const {
    (void)r;
    return static_cast<double>(fes_pops);
  }
  /// One-replication calls of the end-to-end run (fixes the tail
  /// percentile: the sample count never depends on timing).
  [[nodiscard]] virtual std::size_t rep_samples() const = 0;

  // DES calibration shape (zero / empty for non-DES workloads).
  /// Variates drawn by `calls` simulator runs that popped `pops` events.
  [[nodiscard]] virtual double draws(std::uint64_t pops,
                                     std::uint64_t calls) const {
    (void)pops;
    (void)calls;
    return 0.0;
  }
  /// Typical future-event set: `near` events that are popped and replaced
  /// (pending arrivals and completions) above `far` ones that stay put.
  struct Resident {
    std::size_t near = 0;
    std::size_t far = 0;
  };
  [[nodiscard]] virtual Resident resident_events() const { return {}; }
  /// One law of the sampling mix and its relative draw rate.
  struct Law {
    FlatSampler sampler;
    double weight = 0.0;
  };
  [[nodiscard]] virtual std::vector<Law> law_mix() const { return {}; }

 protected:
  /// The sampler a simulator's CachedGapSampler resolves for `process`.
  /// (The workloads' arrivals are all Poisson, whose gap law is flat.)
  static Law gap_law(const ArrivalPtr& process, double weight) {
    Law law{{}, weight};
    STOSCHED_REQUIRE(process->flat_gap(&law.sampler),
                     "calibration expects flat arrival-gap samplers");
    return law;
  }

  static EngineOptions base_options(std::uint64_t seed) {
    EngineOptions opt;
    opt.seed = seed;
    opt.batch = 16;
    opt.tracked = {0};
    return opt;
  }
};

/// mg1-crn — the T9 three-class M/G/1, all six static priority orders.
class Mg1Crn final : public Workload {
 public:
  explicit Mg1Crn(bool tiny) : tiny_(tiny) {
    scenario_ = queue_scenario("t9-three-class");
    scenario_.horizon = 2000.0;
    scenario_.warmup = 200.0;
    const auto cmu = queueing::cmu_order(scenario_.classes);
    arms_.push_back({"c-mu", queueing::Discipline::kPriorityNonPreemptive, cmu});
    std::vector<std::size_t> order{0, 1, 2};
    do {
      if (order != cmu)
        arms_.push_back({"", queueing::Discipline::kPriorityNonPreemptive,
                         order});
    } while (std::next_permutation(order.begin(), order.end()));
    for (const auto& a : arms_) {
      queueing::SimOptions o = scenario_.options();
      o.discipline = a.discipline;
      o.priority = a.priority;
      sim_opts_.push_back(std::move(o));
      cobham_.push_back(queueing::cobham_cost_rate(scenario_.classes,
                                                   a.priority));
    }
  }

  std::size_t arms() const override { return arms_.size(); }
  std::size_t dims() const override { return metric_count(scenario_); }
  // 500 samples put the tail at p98. At p99 of 1000, the few host
  // preemptions a run suffers (raw spikes of 3x) decided the reading.
  std::size_t rep_samples() const override { return tiny_ ? 24 : 500; }

  EngineOptions options(std::uint64_t seed) const override {
    EngineOptions opt = base_options(seed);
    opt.min_replications = 32;
    opt.max_replications = 4096;
    opt.rel_precision = 0.08;
    return opt;
  }

  PairedResult answer(const EngineOptions& opt) const override {
    return compare_queue_policies(scenario_, arms_, opt,
                                  Pairing::kCommonRandomNumbers);
  }

  PairedResult traced(const EngineOptions& opt, Layers& L) const override {
    return run_paired(
        opt, arms(), dims(), Pairing::kCommonRandomNumbers,
        [&](std::size_t, std::size_t k, Rng& rng, std::span<double> out) {
          queueing_call(L, [&] {
            queueing::run_replication(scenario_.classes, sim_opts_[k], rng,
                                      out);
          });
        });
  }

  void check(const PairedResult& r, bool inject, Checks& c) const override {
    c.expect(r.converged, "mg1-crn: precision reached before the cap");
    std::vector<double> means(dims());
    for (std::size_t k = 0; k < arms(); ++k) {
      for (std::size_t d = 0; d < means.size(); ++d)
        means[d] = r.arm[k][d].mean();
      const auto res =
          queueing::mg1_result_from_metrics(scenario_.classes, means);
      const double expected = cobham_[k] * (inject ? 1.3 : 1.0);
      c.expect(std::abs(res.cost_rate - expected) < 0.10 * expected,
               "mg1-crn: arm " + std::to_string(k) +
                   " cost rate within 10% of Cobham");
      const auto audit = core::audit_conservation(scenario_.classes, res);
      c.expect(audit.rel_error < 0.08,
               "mg1-crn: arm " + std::to_string(k) +
                   " Kleinrock conservation residual < 8%");
    }
    bool cmu_wins = true;
    for (const auto& d : r.diff) cmu_wins = cmu_wins && d[0].mean() > 0.0;
    c.expect(cmu_wins, "mg1-crn: the c-mu order has the lowest cost rate");
  }

  double draws(std::uint64_t pops, std::uint64_t calls) const override {
    // Every popped arrival draws the next gap and every service start one
    // service time (services started = departures popped, up to the one in
    // progress at the horizon); the first gap of each class adds one.
    return static_cast<double>(pops) +
           static_cast<double>(scenario_.classes.size() * calls);
  }

  Resident resident_events() const override {
    return {scenario_.classes.size() + 1, 0};  // arrival per class, departure
  }

  std::vector<Law> law_mix() const override {
    std::vector<Law> mix;
    for (const auto& c : scenario_.classes) {
      const double rate = queueing::class_arrival_rate(c);
      mix.push_back(gap_law(queueing::effective_arrival(c), rate));
      mix.push_back({c.service->flat(), rate});
    }
    return mix;
  }

 private:
  bool tiny_;
  QueueScenario scenario_;
  std::vector<QueuePolicy> arms_;
  std::vector<queueing::SimOptions> sim_opts_;
  std::vector<double> cobham_;
};

/// network-backlog — Lu–Kumar under the destabilizing, FCFS and safe arms.
class NetworkBacklog final : public Workload {
 public:
  explicit NetworkBacklog(bool tiny)
      : tiny_(tiny),
        scenario_(network_scenario("lu-kumar")),
        arms_(lu_kumar_policies()) {
    for (const auto& a : arms_) {
      queueing::NetworkConfig cfg = scenario_.config;
      cfg.station_priority = a.station_priority;
      cfg.validate();
      configs_.push_back(std::move(cfg));
    }
  }

  std::size_t arms() const override { return arms_.size(); }
  std::size_t dims() const override { return metric_count(scenario_); }
  std::size_t rep_samples() const override { return tiny_ ? 24 : 100; }

  EngineOptions options(std::uint64_t seed) const override {
    EngineOptions opt = base_options(seed);
    opt.min_replications = 16;
    opt.max_replications = 256;
    opt.rel_precision = 0.15;
    return opt;
  }

  PairedResult answer(const EngineOptions& opt) const override {
    return compare_network_policies(scenario_, arms_, opt,
                                    Pairing::kCommonRandomNumbers);
  }

  PairedResult traced(const EngineOptions& opt, Layers& L) const override {
    return run_paired(
        opt, arms(), dims(), Pairing::kCommonRandomNumbers,
        [&](std::size_t, std::size_t k, Rng& rng, std::span<double> out) {
          queueing_call(L, [&] {
            queueing::run_replication(configs_[k], scenario_.horizon,
                                      scenario_.samples, rng, out);
          });
        });
  }

  void check(const PairedResult& r, bool inject, Checks& c) const override {
    // Growth thresholds (jobs per time unit) of bench F6; arms are ordered
    // (destabilizing, FCFS, safe).
    c.expect(r.converged, "network-backlog: precision reached before the cap");
    const double bad = r.arm[0][2].mean();
    c.expect(inject ? bad < 0.002 : bad > 0.01,
             "network-backlog: the destabilizing arm diverges");
    c.expect(r.arm[1][2].mean() < 0.002,
             "network-backlog: the FCFS arm stays stable");
    c.expect(r.arm[2][2].mean() < 0.002,
             "network-backlog: the safe arm stays stable");
  }

  double draws(std::uint64_t pops, std::uint64_t calls) const override {
    // Each popped arrival or service completion draws one variate (the next
    // gap, or the service of the job started in its place); sampling
    // events draw nothing; each external stream's first gap adds one.
    return static_cast<double>(pops) +
           (static_cast<double>(external_classes()) -
            static_cast<double>(scenario_.samples)) *
               static_cast<double>(calls);
  }

  Resident resident_events() const override {
    // One pending arrival per external stream and one completion per
    // station, above (on average) half of the pre-scheduled trace samples.
    return {external_classes() + scenario_.config.num_stations,
            scenario_.samples / 2};
  }

  std::vector<Law> law_mix() const override {
    // Draw rates: each external stream at its rate, each class's service at
    // its throughput (the external rate feeding its route).
    std::vector<Law> mix;
    const auto& classes = scenario_.config.classes;
    std::vector<double> rate(classes.size(), 0.0);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const double lambda = queueing::network_class_rate(classes[c]);
      if (lambda <= 0.0) continue;
      mix.push_back(gap_law(queueing::effective_arrival(classes[c]), lambda));
      for (std::size_t cur = c; cur != queueing::NetworkClass::kExit;
           cur = classes[cur].next)
        rate[cur] += lambda;
    }
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const FlatSampler law =
          classes[c].service
              ? classes[c].service->flat()
              : FlatSampler::exponential(1.0 / classes[c].service_mean);
      mix.push_back({law, rate[c]});
    }
    return mix;
  }

 private:
  std::size_t external_classes() const {
    std::size_t n = 0;
    for (const auto& c : scenario_.config.classes)
      if (queueing::network_class_rate(c) > 0.0) ++n;
    return n;
  }

  bool tiny_;
  NetworkScenario scenario_;
  std::vector<NetworkPolicy> arms_;
  std::vector<queueing::NetworkConfig> configs_;
};

/// online-lp — Bernoulli jobs on unrelated machines, the four online arms
/// against the interval-indexed LP bound.
class OnlineLp final : public Workload {
 public:
  explicit OnlineLp(bool tiny)
      : tiny_(tiny),
        scenario_(online_scenario("online-bernoulli")),
        arms_(online_policy_arms()) {
    scenario_.horizon = 48.0;  // ~130 jobs per instance, as in bench F11
    scenario_.bound.use_lp = true;
  }

  std::size_t arms() const override { return arms_.size(); }
  std::size_t dims() const override { return metric_count(scenario_); }
  // LP cost varies with the instance (~130 jobs, Poisson), so the median
  // needs more instances than the DES workloads' to settle.
  std::size_t rep_samples() const override { return tiny_ ? 24 : 200; }

  EngineOptions options(std::uint64_t seed) const override {
    // Ratio differences near zero (min-increase ties greedy on most paths)
    // make a relative target unreachable, so every difference is held to an
    // absolute half-width: abs_floor above any difference switches the
    // engine to `halfwidth <= rel_precision`.
    EngineOptions opt = base_options(seed);
    opt.min_replications = 16;
    opt.max_replications = 256;
    opt.rel_precision = 0.1;
    opt.abs_floor = 1.0;
    return opt;
  }

  PairedResult answer(const EngineOptions& opt) const override {
    return compare_online_policies(scenario_, arms_, opt,
                                   Pairing::kCommonRandomNumbers);
  }

  PairedResult traced(const EngineOptions& opt, Layers& L) const override {
    using SteadyClock = std::chrono::steady_clock;
    const auto& s = scenario_;
    return run_paired(
        opt, arms(), dims(), Pairing::kCommonRandomNumbers,
        [&](std::size_t, std::size_t k, Rng& rng, std::span<double> out) {
          // online::run_online_replication, one public call at a time.
          const auto t0 = SteadyClock::now();
          const Rng root(rng());
          Rng arrival_rng = root.stream(0);
          Rng type_rng = root.stream(1);
          Rng size_rng = root.stream(2);
          Rng sample_rng = root.stream(3);
          Rng policy_rng = root.stream(4);
          const online::OnlineInstance inst = online::generate_online_instance(
              *s.arrival, s.types, s.horizon, arrival_rng, type_rng, size_rng,
              sample_rng);
          const auto t1 = SteadyClock::now();
          const online::OnlineResult res = online::simulate_online(
              inst, s.env, s.types, *arms_[k], policy_rng);
          const auto t2 = SteadyClock::now();
          online::OfflineBoundOptions cheap = s.bound;
          cheap.use_lp = false;
          online::OfflineBound lb =
              online::offline_lower_bound(inst, s.env, s.types, cheap);
          if (s.bound.use_lp && !inst.empty() &&
              inst.size() <= s.bound.lp_job_cap && !trivial(inst)) {
            const lp::Problem prob =
                online::interval_indexed_lp(inst, s.env, s.bound);
            const auto l0 = SteadyClock::now();
            const lp::Solution sol = lp::solve(prob, s.bound.lp_solver);
            const auto l1 = SteadyClock::now();
            lb.lp_bound = sol.optimal() ? sol.objective : 0.0;
            lb.value = std::max(lb.value, lb.lp_bound);
            const double ms = 1e-6 * static_cast<double>(ns_between(l0, l1));
            L.lp_solve_ms.push_back(ms);
            L.lp_busy_s += 1e-3 * ms;
            L.lp_iterations += sol.iterations;
            L.lp_nonoptimal += sol.optimal() ? 0 : 1;
            L.lp_rows += prob.constraints.size();
            for (const auto& row : prob.constraints) L.lp_nnz += row.idx.size();
          }
          const auto t3 = SteadyClock::now();
          out[0] = lb.value > 0.0 ? res.weighted_completion / lb.value : 1.0;
          out[1] = res.weighted_completion;
          out[2] = lb.value;
          out[3] = static_cast<double>(res.jobs);
          L.instance_s += 1e-9 * static_cast<double>(ns_between(t0, t1));
          L.simulate_s += 1e-9 * static_cast<double>(ns_between(t1, t2));
          L.bound_s += 1e-9 * static_cast<double>(ns_between(t2, t3));
          ++L.online_calls;
          L.jobs += inst.size();
        });
  }

  void check(const PairedResult& r, bool inject, Checks& c) const override {
    c.expect(r.converged, "online-lp: precision reached before the cap");
    // The policy's schedule is feasible offline, so cost / bound >= 1 on
    // every path: the per-arm minimum ratio is the path-by-path check.
    const double floor = inject ? 1.5 : 1.0 - 1e-9;
    for (std::size_t k = 0; k < arms(); ++k)
      c.expect(r.arm[k][0].min() >= floor,
               "online-lp: bound <= policy cost on every path, arm " +
                   std::to_string(k));
  }

  double events(const PairedResult& r, std::uint64_t) const override {
    // The online simulator bypasses the FES: its events are one arrival and
    // one completion per job per arm.
    return 2.0 * r.arm[0][3].mean() * static_cast<double>(r.replications) *
           static_cast<double>(arms());
  }

 private:
  /// online/lower_bound.cpp skips the LP on instances with no work and no
  /// releases; the decomposition must skip it on the same instances.
  bool trivial(const online::OnlineInstance& inst) const {
    for (const auto& job : inst) {
      if (job.release > 0.0) return false;
      for (std::size_t i = 0; i < scenario_.env.machines(); ++i)
        if (scenario_.env.proc_time(i, job.type, job.size) > 0.0) return false;
    }
    return true;
  }

  bool tiny_;
  OnlineScenario scenario_;
  std::vector<online::OnlinePolicyPtr> arms_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny) {
  if (name == "mg1-crn") return std::make_unique<Mg1Crn>(tiny);
  if (name == "network-backlog") return std::make_unique<NetworkBacklog>(tiny);
  if (name == "online-lp") return std::make_unique<OnlineLp>(tiny);
  return nullptr;
}

// ---- per-operation calibration ---------------------------------------------

/// Per-operation costs of the sub-layers, at the workload's shape: one
/// variate draw at its law mix, one FES event (pop plus the push it causes)
/// in a hold model at its resident shape, one LocalHistogram::record on
/// values spread like the buckets it recorded, and the engine's cost per
/// (replication, arm) entry with an empty body. Measured in short slices
/// after every traced experiment, so that calibration and experiments see
/// the same mix of fast and slow phases of a shared machine.
class Calibration {
 public:
  explicit Calibration(const Workload& w)
      : w_(w), mix_(w.law_mix()), resident_(w.resident_events()) {
    Rng rng(0xFE5);
    for (auto& g : gaps_) g = rng.exponential(1.0);
    double total = 0.0;
    for (std::size_t i = 0; i < mix_.size(); ++i) {
      draw_rng_.emplace_back(0xD157, i);
      total += mix_[i].weight;
    }
    Rng pick(0x5E9);
    for (auto& k : law_seq_) {
      double u = pick.uniform() * total;
      std::size_t i = 0;
      while (i + 1 < mix_.size() && u >= mix_[i].weight) u -= mix_[i++].weight;
      k = static_cast<std::uint32_t>(i);
    }
  }

  /// One slice of every measurement. `seen` is the bucket mix recorded so
  /// far; the record values are drawn from the first non-empty one.
  void slice(const obs::HistogramSnapshot& seen) {
    if (resident_.near > 0) fes_.add(time_fes(), kOps);
    if (!mix_.empty()) sample_.add(time_samples(), kOps);
    if (values_.empty() && seen.total > 0) fill_values(seen);
    if (!values_.empty()) record_.add(time_records(), kOps);
    engine_.add(time_engine(), static_cast<double>(kEngineReps * w_.arms()));
  }

  [[nodiscard]] double fes_ns() const { return fes_.per_op(); }
  [[nodiscard]] double sample_ns() const { return sample_.per_op(); }
  [[nodiscard]] double record_ns() const { return record_.per_op(); }
  [[nodiscard]] double engine_ns() const { return engine_.per_op(); }

 private:
  static constexpr std::size_t kOps = 1u << 17;
  static constexpr std::size_t kMask = 4095;  // ring size of the inputs - 1
  static constexpr std::size_t kEngineReps = 256;

  struct Cost {
    double ns = 0.0;
    double ops = 0.0;
    void add(double slice_ns, double slice_ops) {
      ns += slice_ns;
      ops += slice_ops;
    }
    [[nodiscard]] double per_op() const { return ops > 0.0 ? ns / ops : 0.0; }
  };

  double time_fes() {
    EventQueue q(resident_.near + resident_.far + 1);
    for (std::size_t i = 0; i < resident_.far; ++i)
      q.push(1e300 - static_cast<double>(i), 0);  // never reaches the top
    for (std::size_t i = 0; i < resident_.near; ++i)
      q.push(gaps_[i & kMask], 0);
    const double t0 = wall_s();
    for (std::size_t i = 0; i < kOps; ++i) {
      const Event e = q.pop();
      q.push(e.time + gaps_[i & kMask], 0);
    }
    return 1e9 * (wall_s() - t0);
  }

  double time_samples() {
    double sink = 0.0;
    const double t0 = wall_s();
    for (std::size_t n = 0; n < kOps; ++n) {
      const std::uint32_t i = law_seq_[n & kMask];
      sink += mix_[i].sampler.sample(draw_rng_[i]);
    }
    const double ns = 1e9 * (wall_s() - t0);
    if (sink < 0.0) std::printf("#");  // keeps the draws observable
    return ns;
  }

  void fill_values(const obs::HistogramSnapshot& seen) {
    for (std::size_t b = 0; b < obs::hist::kBuckets; ++b) {
      const auto copies = static_cast<std::size_t>(std::llround(
          static_cast<double>(seen.counts[b]) * (kMask + 1) /
          static_cast<double>(seen.total)));
      const double inside = b == 0 ? 0.0 : 1.03 * obs::hist::bucket_lower(b);
      values_.insert(values_.end(), copies, inside);
    }
    if (values_.empty()) return;
    values_.resize(kMask + 1, values_.back());  // rounding: pad or trim
    Rng rng(0x4157);
    std::shuffle(values_.begin(), values_.end(), rng);
  }

  double time_records() {
    auto h = std::make_unique<obs::LocalHistogram>();
    const double t0 = wall_s();
    for (std::size_t i = 0; i < kOps; ++i) h->record(values_[i & kMask]);
    const double ns = 1e9 * (wall_s() - t0);
    if (h->counts()[obs::hist::kBuckets / 2] == 1) std::printf("#");
    return ns;
  }

  double time_engine() {
    EngineOptions opt;
    opt.seed = 7;
    opt.max_replications = kEngineReps;
    const double t0 = wall_s();
    const auto r = run_paired(
        opt, w_.arms(), w_.dims(), Pairing::kCommonRandomNumbers,
        [](std::size_t, std::size_t, Rng&, std::span<double>) {});
    const double ns = 1e9 * (wall_s() - t0);
    if (r.replications != kEngineReps) std::printf("#");
    return ns;
  }

  const Workload& w_;
  std::vector<Workload::Law> mix_;
  Workload::Resident resident_;
  std::array<double, kMask + 1> gaps_{};
  std::array<std::uint32_t, kMask + 1> law_seq_{};
  std::vector<Rng> draw_rng_;
  std::vector<double> values_;
  Cost fes_, sample_, record_, engine_;
};

// ---- reporting -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string basis;  ///< sample count / how the value was obtained
};

using Metrics = std::map<std::string, Metric>;

void print_result(const std::string& workload, const Metrics& metrics,
                  const Checks& checks, std::uint64_t answer_digest,
                  double cpu_per_wall) {
  for (const auto& [name, m] : metrics)
    std::printf("metric %-34s %16.9g %-12s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.basis.c_str());
  std::printf("failed_frac = %llu/%llu checks\n",
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  std::printf("answer digest %016llx\n",
              static_cast<unsigned long long>(answer_digest));

  const obs::BuildInfo b = obs::build_info();
  std::printf(
      "provenance {\"workload\": \"%s\", \"git_sha\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"sanitizers\": \"%s\", "
      "\"contracts\": %s, \"trace\": %s, \"time_stats\": %s, "
      "\"omp_threads\": %d, \"cpu_per_wall\": %.6f}\n",
      workload.c_str(), b.git_sha.c_str(), b.build_type.c_str(),
      b.compiler.c_str(), b.sanitizers.c_str(),
      b.contracts ? "true" : "false", b.trace ? "true" : "false",
      b.time_stats ? "true" : "false", b.omp_max_threads, cpu_per_wall);

  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\", \"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(answer_digest));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

std::string tail_label(const Tail& t, std::size_t n, const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(p%g of %zu %s)", t.pct, n, what);
  return buf;
}

std::string samples_of(std::size_t n, const char* what) {
  return "(" + std::to_string(n) + " " + what + ")";
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss survives exec, so it would report the launcher's
/// peak when that was larger.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

/// Seed of experiment i of a run: a pure function of (run seed, i).
std::uint64_t experiment_seed(std::uint64_t run_seed, std::uint64_t stream,
                              std::uint64_t i) {
  return Rng(run_seed, stream).stream(i)() | 1U;
}

// ---- the two runs ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool inject = false;
  bool setup_only = false;
};

/// One untimed experiment warms code, allocator and registries.
void warm_up(const Workload& w, std::uint64_t seed) {
  EngineOptions opt = w.options(experiment_seed(seed, 3, 0));
  opt.max_replications = 1;
  opt.rel_precision = 0.0;
  (void)w.answer(opt);
}

int run_end_to_end(const Workload& w, const Options& o) {
  warm_up(w, o.seed);
  HostSpeed host;
  Checks checks;
  const double start = wall_s();

  // Replication latency: one paired replication per driver call, spread
  // evenly over the run so that slow and fast phases of a shared machine
  // weigh the same in every metric.
  std::vector<double> rep_ms, rep_ms_raw, speeds;
  const auto replications_until = [&](std::size_t target) {
    while (rep_ms.size() < target) {
      EngineOptions opt = w.options(experiment_seed(o.seed, 1, rep_ms.size()));
      opt.max_replications = 1;
      opt.rel_precision = 0.0;
      PairedResult r;
      const Timing t = timed(host, [&] { r = w.answer(opt); });
      rep_ms.push_back(1e3 * t.wall / t.speed);
      rep_ms_raw.push_back(1e3 * t.wall);
      speeds.push_back(t.speed);
      if (r.replications != 1) checks.expect(false, "one-replication call");
    }
  };

  // Time to an answer: whole experiments until the time is up.
  const std::size_t min_experiments = o.tiny ? 1 : 3;
  std::vector<double> cpu, wall, cpu_raw;
  double sum_cpu = 0.0, sum_cpu_raw = 0.0, sum_wall_raw = 0.0;
  double sum_events = 0.0, sum_reps = 0.0;
  std::uint64_t answers_digest = 0;
  for (std::size_t i = 0;
       cpu.size() < min_experiments || wall_s() < start + o.seconds; ++i) {
    const double progress = std::min(1.0, (wall_s() - start) / o.seconds);
    replications_until(static_cast<std::size_t>(
        progress * static_cast<double>(w.rep_samples())));
    const EngineOptions opt = w.options(experiment_seed(o.seed, 0, i));
    const std::uint64_t pops0 = process_event_count();
    PairedResult r;
    const Timing t = timed(host, [&] { r = w.answer(opt); });
    const std::uint64_t pops = process_event_count() - pops0;
    cpu.push_back(t.cpu / t.speed);
    wall.push_back(t.wall / t.speed);
    cpu_raw.push_back(t.cpu);
    speeds.push_back(t.speed);
    sum_cpu += t.cpu / t.speed;
    sum_cpu_raw += t.cpu;
    sum_wall_raw += t.wall;
    sum_events += w.events(r, pops);
    sum_reps += static_cast<double>(r.replications);
    answers_digest = answers_digest * 31 + digest(r);
    w.check(r, o.inject, checks);
  }
  replications_until(w.rep_samples());

  const Tail tail = tail_of(rep_ms);
  const std::size_t n = cpu.size();
  char basis[128];
  const auto note = [&](const char* fmt, auto... args) {
    std::snprintf(basis, sizeof basis, fmt, args...);
    return std::string(basis);
  };
  Metrics m;
  // Experiment times are means: their raw values are bimodal on a shared
  // host, and a median flips between the two phases from run to run.
  m["answer_cpu_s"] = {mean(cpu), "s",
                       note("(%zu experiments, mean; raw mean %.4g s)", n,
                            mean(cpu_raw))};
  m["answer_wall_s"] = {mean(wall), "s",
                        note("(%zu experiments, mean; raw mean %.4g s)", n,
                             sum_wall_raw / static_cast<double>(n))};
  m["rep_ms_p50"] = {median(rep_ms), "ms",
                     note("(%zu paired replications, median; raw %.4g ms)",
                          rep_ms.size(), median(rep_ms_raw))};
  m["rep_ms_tail"] = {tail.value, "ms",
                      tail_label(tail, rep_ms.size(), "paired replications")};
  m["events_per_cpu_s"] = {sum_events / sum_cpu, "1/s",
                           note("(%zu experiments, total/total; raw %.4g)", n,
                                sum_events / sum_cpu_raw)};
  m["reps_per_cpu_s"] = {sum_reps / sum_cpu, "1/s",
                         note("(%zu experiments, total/total; raw %.4g)", n,
                              sum_reps / sum_cpu_raw)};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB", "(VmHWM)"};
  std::printf("host speed factor %.4f (median of %zu samples; timings above "
              "are divided by it)\n",
              median(speeds), speeds.size());
  print_result(o.workload, m, checks, answers_digest,
               sum_cpu_raw / sum_wall_raw);
  return checks.failed == 0 ? 0 : 1;
}

int run_traced(const Workload& w, const Options& o) {
  warm_up(w, o.seed);
  Checks checks;
  Layers L;
  std::vector<double> plain_wall, traced_wall;
  std::uint64_t pops = 0, lp_solves = 0, lp_iters = 0;
  double reps = 0.0, batches = 0.0, capped = 0.0, engine_entries = 0.0;
  double sum_cpu = 0.0, sum_wall = 0.0;
  obs::HistogramSnapshot seen;  // bucket mix the traced runs recorded
  std::uint64_t answers_digest = 0;

  Calibration cal(w);
  const double deadline = wall_s() + o.seconds;
  for (std::size_t i = 0; traced_wall.empty() || wall_s() < deadline; ++i) {
    const EngineOptions opt = w.options(experiment_seed(o.seed, 0, i));
    PairedResult plain, traced;
    // Alternate which side runs first, so drift favours neither.
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (i % 2 == 0)) {
        const double c0 = cpu_s(), t0 = wall_s();
        plain = w.answer(opt);
        const double t1 = wall_s();
        sum_cpu += cpu_s() - c0;
        sum_wall += t1 - t0;
        plain_wall.push_back(t1 - t0);
      } else {
        const std::uint64_t p0 = process_event_count();
        const std::uint64_t s0 = obs::counter_value("lp_solves");
        const std::uint64_t it0 = obs::counter_value("lp_iterations");
        const obs::HistogramSnapshot h0 = recorded_buckets();
        const double t0 = wall_s();
        traced = w.traced(opt, L);
        traced_wall.push_back(wall_s() - t0);
        pops += process_event_count() - p0;
        lp_solves += obs::counter_value("lp_solves") - s0;
        lp_iters += obs::counter_value("lp_iterations") - it0;
        const obs::HistogramSnapshot h1 = recorded_buckets();
        for (std::size_t b = 0; b < obs::hist::kBuckets; ++b)
          seen.counts[b] += h1.counts[b] - h0.counts[b];
        seen.total += h1.total - h0.total;
      }
    }
    checks.expect(digest(plain) == digest(traced),
                  "traced answer digest equals the driver's (experiment " +
                      std::to_string(i) + ")");
    w.check(plain, o.inject, checks);
    answers_digest = answers_digest * 31 + digest(plain);
    const double n = static_cast<double>(traced.replications);
    reps += n;
    batches += std::ceil(n / static_cast<double>(opt.batch));
    capped += traced.converged ? 0.0 : 1.0;
    engine_entries += n * static_cast<double>(w.arms());
    cal.slice(seen);  // outside the counted windows: it pops events itself
  }
  const double fes_ns = cal.fes_ns();
  const double sample_ns = cal.sample_ns();
  const double record_ns = cal.record_ns();
  const double engine_ns = cal.engine_ns();

  const double E = static_cast<double>(traced_wall.size());
  const double per = 1.0 / E;  // per-experiment means
  const double draws = w.draws(pops, L.queueing_calls);
  const double dist_est = 1e-9 * draws * sample_ns;
  const double des_est = 1e-9 * static_cast<double>(pops) * fes_ns;
  const double records = static_cast<double>(seen.total);
  const double obs_est = 1e-9 * records * record_ns;
  const double residual = L.queueing_busy_s - dist_est - des_est - obs_est;
  const double self_s = 1e-9 * engine_entries * engine_ns;
  const double instances = reps;  // CRN: one realized instance per replication
  const double top_level =
      self_s + L.queueing_busy_s + L.instance_s + L.simulate_s + L.bound_s;
  double traced_total = 0.0;
  for (const double t : traced_wall) traced_total += t;
  const double closure = top_level / traced_total;
  const double overhead = mean(traced_wall) / mean(plain_wall) - 1.0;
  const Tail lp_tail = tail_of(L.lp_solve_ms);
  const double solves = static_cast<double>(L.lp_solve_ms.size());

  // The decomposition must account for the traced wall time, and the
  // calibrated sub-layer costs must fit inside the simulators' busy time.
  constexpr double kClosureLo = 0.90, kClosureHi = 1.05;
  checks.expect(closure >= kClosureLo && closure <= kClosureHi,
                "closure_ratio within [0.90, 1.05]");
  if (L.queueing_calls > 0)
    checks.expect(residual >= 0.0, "queueing.residual_s >= 0");
  checks.expect(L.lp_nonoptimal == 0, "every LP status is optimal");
  checks.expect(lp_solves == L.lp_solve_ms.size() &&
                    lp_iters == L.lp_iterations,
                "LP registry counters match the traced solves");

  const std::string exps = samples_of(traced_wall.size(), "traced experiments");
  const std::string computed = "computed: count x calibrated cost";
  Metrics m;
  m["dist.draws"] = {draws * per, "count", "computed from FES pops " + exps};
  m["dist.sample_ns"] = {sample_ns, "ns", "calibrated at the law mix"};
  m["dist.est_s"] = {dist_est * per, "s", computed};
  m["des.events"] = {static_cast<double>(pops) * per, "count",
                     "registry 'events' " + exps};
  m["des.op_ns"] = {fes_ns, "ns",
                    "calibrated hold model, resident " +
                        std::to_string(w.resident_events().near) + " near + " +
                        std::to_string(w.resident_events().far) + " far"};
  m["des.est_s"] = {des_est * per, "s", computed};
  m["obs.records"] = {records * per, "count",
                      "registry histogram totals " + exps};
  m["obs.record_ns"] = {record_ns, "ns", "calibrated at the recorded buckets"};
  m["obs.est_s"] = {obs_est * per, "s", computed};
  m["queueing.calls"] = {static_cast<double>(L.queueing_calls) * per, "count",
                         exps};
  m["queueing.busy_s"] = {L.queueing_busy_s * per, "s", "timed " + exps};
  m["queueing.ns_per_event"] = {
      pops > 0 ? 1e9 * L.queueing_busy_s / static_cast<double>(pops) : 0.0,
      "ns", "busy / events"};
  m["queueing.residual_s"] = {L.queueing_calls > 0 ? residual * per : 0.0, "s",
                              "busy minus dist, des and obs estimates"};
  m["lp.solves"] = {solves * per, "count", "timed solves " + exps};
  m["lp.iterations"] = {static_cast<double>(L.lp_iterations) * per, "count",
                        "solution iteration counts " + exps};
  m["lp.iters_per_solve"] = {
      solves > 0 ? static_cast<double>(L.lp_iterations) / solves : 0.0,
      "count", samples_of(L.lp_solve_ms.size(), "solves")};
  m["lp.us_per_iteration"] = {
      L.lp_iterations > 0
          ? 1e6 * L.lp_busy_s / static_cast<double>(L.lp_iterations)
          : 0.0,
      "us", "busy / iterations"};
  m["lp.solve_ms_p50"] = {median(L.lp_solve_ms), "ms",
                          samples_of(L.lp_solve_ms.size(), "solves, median")};
  m["lp.solve_ms_tail"] = {lp_tail.value, "ms",
                           tail_label(lp_tail, L.lp_solve_ms.size(), "solves")};
  m["lp.busy_s"] = {L.lp_busy_s * per, "s", "timed " + exps};
  m["lp.nonoptimal"] = {static_cast<double>(L.lp_nonoptimal), "count",
                        "total over " + exps};
  m["lp.rows"] = {solves > 0 ? static_cast<double>(L.lp_rows) / solves : 0.0,
                  "count", "mean per solve"};
  m["lp.nnz"] = {solves > 0 ? static_cast<double>(L.lp_nnz) / solves : 0.0,
                 "count", "mean per solve"};
  const double online_calls = static_cast<double>(L.online_calls);
  m["online.jobs"] = {online_calls > 0 ? static_cast<double>(L.jobs) / online_calls
                                       : 0.0,
                      "count", "mean jobs per instance"};
  m["online.instance_s"] = {L.instance_s * per, "s", "timed " + exps};
  m["online.simulate_s"] = {L.simulate_s * per, "s", "timed " + exps};
  m["online.bound_s"] = {L.bound_s * per, "s",
                         "timed, LP included " + exps};
  m["online.bound_calls_per_instance"] = {
      online_calls > 0 ? online_calls / instances : 0.0,
      "ratio", "bound calls / distinct CRN instances"};
  m["experiment.replications"] = {reps * per, "count", exps};
  m["experiment.batches"] = {batches * per, "count", exps};
  m["experiment.self_s"] = {self_s * per, "s",
                            "computed: (rep, arm) entries x calibrated "
                            "empty-body engine cost"};
  m["experiment.capped"] = {capped, "count", "total over " + exps};
  m["closure_ratio"] = {closure, "ratio",
                        "top-level layer time / traced wall time"};
  m["trace_overhead_frac"] = {overhead, "ratio",
                              "mean traced wall / mean driver wall - 1"};
  print_result(o.workload, m, checks, answers_digest, sum_cpu / sum_wall);
  return checks.failed == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--inject-wrong") {
      o.inject = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
               a == "--trace") {
      const char* v = value();
      if (v == nullptr) return false;
      if (a == "--workload") o.workload = v;
      if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
      if (a == "--trace") o.trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds >= 0.0 &&
         (o.trace == 0 || o.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: stosched_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--inject-wrong] "
                 "[--setup-only]\n");
    return 2;
  }
  const obs::BuildInfo b = obs::build_info();
  if (b.build_type != "Release" || b.contracts || b.trace || b.time_stats ||
      b.sanitizers != "none" || b.omp_max_threads != 1) {
    std::fprintf(stderr,
                 "refused: measure a plain Release build on one thread "
                 "(build_type=%s contracts=%d trace=%d time_stats=%d "
                 "sanitizers=%s omp_threads=%d)\n",
                 b.build_type.c_str(), b.contracts, b.trace, b.time_stats,
                 b.sanitizers.c_str(), b.omp_max_threads);
    return 3;
  }
  const std::unique_ptr<Workload> w = make_workload(o.workload, o.tiny);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const EngineOptions first = w->options(experiment_seed(o.seed, 0, 0));
  if (o.setup_only) {
    std::printf("ready %llu\n", static_cast<unsigned long long>(first.seed));
    std::fflush(stdout);
    // The host speed right after set-up, to normalize the launch time.
    HostSpeed host;
    std::vector<double> speed;
    for (int i = 0; i < 3; ++i) speed.push_back(host.sample());
    std::printf("speed %.9g\n", median(speed));
    return 0;
  }
  return o.trace == 0 ? run_end_to_end(*w, o) : run_traced(*w, o);
}
