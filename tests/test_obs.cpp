// test_obs.cpp — the observability subsystem (src/obs/).
//
// Four fronts:
//   * histogram determinism: the bucket of a value is exact (boundary
//     values land where the layout says), and shared-histogram merges are
//     commutative — the snapshot after an OpenMP fan-out is bit-identical
//     to a serial fill, whatever OMP_NUM_THREADS is (1 and 8 in CI);
//   * registry semantics: find-or-create stability, non-creating reads,
//     and the migrated process counters ("events", "lp_solves",
//     "lp_iterations") staying in lockstep with their legacy wrappers;
//   * trace collector: the emitted JSON is a valid Chrome trace_event
//     array (ph/ts/pid/tid present, multiple thread lanes), in every
//     build — only the macros are compile-time gated;
//   * compiled-out mode: with STOSCHED_TRACE off, the macros evaluate
//     NOTHING (the ghost evaluation-count pattern from test_contract.cpp).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "des/event_queue.hpp"
#include "experiment/engine.hpp"
#include "lp/simplex.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace stosched {
namespace {

// ---- bucket layout ---------------------------------------------------------

TEST(HistBucketTest, SpecialValuesLandInUnderflow) {
  EXPECT_EQ(obs::hist::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::hist::bucket_index(-1.5), 0u);
  EXPECT_EQ(obs::hist::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(obs::hist::bucket_index(1e-300), 0u);  // below 2^kMinExp
}

TEST(HistBucketTest, OverflowCatchesHugeValues) {
  EXPECT_EQ(obs::hist::bucket_index(1e13), obs::hist::kBuckets - 1);
  EXPECT_EQ(obs::hist::bucket_index(
                std::numeric_limits<double>::infinity()),
            obs::hist::kBuckets - 1);
}

TEST(HistBucketTest, ExactBoundaryValuesLandInTheirOwnBucket) {
  // A bucket's inclusive lower edge maps to that bucket; one ulp below
  // maps to the previous one. Scan a swath of the layout.
  for (std::size_t i = 1; i + 1 < obs::hist::kBuckets; i += 37) {
    const double lo = obs::hist::bucket_lower(i);
    EXPECT_EQ(obs::hist::bucket_index(lo), i) << "lower edge of bucket " << i;
    const double below = std::nextafter(lo, 0.0);
    EXPECT_EQ(obs::hist::bucket_index(below), i - 1)
        << "one ulp below bucket " << i;
  }
}

TEST(HistBucketTest, PowersOfTwoStartAnOctave) {
  // 2^e has sub-bucket 0 and v in [2^e, 2^e (1 + 1/8)).
  const std::size_t i1 = obs::hist::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(obs::hist::bucket_lower(i1), 1.0);
  EXPECT_DOUBLE_EQ(obs::hist::bucket_upper(i1), 1.125);
  const std::size_t i2 = obs::hist::bucket_index(2.0);
  EXPECT_EQ(i2, i1 + obs::hist::kSubBuckets);
}

TEST(HistBucketTest, IndexIsMonotoneInValue) {
  double v = 1e-7;
  std::size_t prev = obs::hist::bucket_index(v);
  while (v < 1e13) {
    v *= 1.05;
    const std::size_t i = obs::hist::bucket_index(v);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

// ---- percentiles -----------------------------------------------------------

TEST(HistogramTest, PercentilesAreBucketUpperBounds) {
  obs::LocalHistogram h;
  // 90 samples in the bucket of 1.0, 10 in the bucket of 100.0.
  for (int i = 0; i < 90; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(100.0);
  obs::Histogram shared("test_pct");
  shared.merge(h);
  const obs::HistogramSnapshot s = shared.snapshot();
  EXPECT_EQ(s.total, 100u);
  const double b1 = obs::hist::bucket_upper(obs::hist::bucket_index(1.0));
  const double b100 = obs::hist::bucket_upper(obs::hist::bucket_index(100.0));
  EXPECT_DOUBLE_EQ(s.percentile(0.50), b1);
  EXPECT_DOUBLE_EQ(s.percentile(0.90), b1);   // rank 90 is the last 1.0
  EXPECT_DOUBLE_EQ(s.percentile(0.99), b100);
  EXPECT_DOUBLE_EQ(s.percentile(0.999), b100);
}

TEST(HistogramTest, EmptySnapshotReportsZero) {
  const obs::HistogramSnapshot s;
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.percentile(0.99), 0.0);
}

TEST(HistogramTest, PercentileIsAlwaysFinite) {
  obs::LocalHistogram h;
  h.record(1e300);  // overflow bucket
  obs::Histogram shared("test_pct_inf");
  shared.merge(h);
  EXPECT_TRUE(std::isfinite(shared.snapshot().percentile(0.999)));
}

// ---- merge determinism -----------------------------------------------------

TEST(HistogramTest, MergeIsCommutative) {
  obs::LocalHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(0.1 * i);
  for (int i = 0; i < 50; ++i) b.record(3.0 * i);
  obs::Histogram ab("test_merge_ab"), ba("test_merge_ba");
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.snapshot(), ba.snapshot());
}

TEST(HistogramTest, SnapshotBitIdenticalAcrossOmpSchedules) {
  // Fill a registry histogram from inside the OpenMP replication driver —
  // whatever OMP_NUM_THREADS is (the CI determinism gate runs this binary
  // under 1 and 8), the commutative bucket sums must equal a serial fill.
  obs::Histogram& shared = obs::histogram("test_hist_omp");
  constexpr std::size_t kReps = 256;
  auto sample = [](std::size_t r, int i) {
    return 0.37 * static_cast<double>((r * 31 + static_cast<std::size_t>(i) * 7) % 97) + 1e-3;
  };
  experiment::run_fixed(kReps, 20260807, 1,
                        [&](std::size_t r, Rng& rng, std::span<double> out) {
                          (void)rng;
                          obs::LocalHistogram local;
                          for (int i = 0; i < 64; ++i)
                            local.record(sample(r, i));
                          shared.merge(local);
                          out[0] = 0.0;
                        });
  obs::LocalHistogram serial;
  for (std::size_t r = 0; r < kReps; ++r)
    for (int i = 0; i < 64; ++i) serial.record(sample(r, i));
  const obs::HistogramSnapshot got = shared.snapshot();
  EXPECT_EQ(got.total, serial.total());
  EXPECT_EQ(got.counts, serial.counts());
}

// ---- registry --------------------------------------------------------------

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  obs::Counter& a = obs::counter("test_reg_counter");
  obs::Counter& b = obs::counter("test_reg_counter");
  EXPECT_EQ(&a, &b);
  a.add(3);
  a.add();
  EXPECT_EQ(b.value(), 4u);
  EXPECT_EQ(obs::counter_value("test_reg_counter"), 4u);
}

TEST(RegistryTest, NonCreatingReadsOfAbsentNames) {
  EXPECT_EQ(obs::counter_value("test_never_registered"), 0u);
  EXPECT_EQ(obs::histogram_snapshot("test_never_registered").total, 0u);
}

// ---- migrated process counters ---------------------------------------------

TEST(MigrationTest, EventCounterBackedByRegistry) {
  const std::uint64_t before = process_event_count();
  EXPECT_EQ(before, obs::counter_value("events"));
  add_process_events(42);
  EXPECT_EQ(process_event_count(), before + 42);
  EXPECT_EQ(obs::counter_value("events"), before + 42);
}

TEST(MigrationTest, LpCountersBackedByRegistry) {
  const lp::LpCounters before = lp::process_lp_counters();
  EXPECT_EQ(before.solves, obs::counter_value("lp_solves"));
  EXPECT_EQ(before.iterations, obs::counter_value("lp_iterations"));
  lp::add_process_lp_solve(7);
  const lp::LpCounters after = lp::process_lp_counters();
  EXPECT_EQ(after.solves, before.solves + 1);
  EXPECT_EQ(after.iterations, before.iterations + 7);
  EXPECT_EQ(obs::counter_value("lp_solves"), after.solves);
  EXPECT_EQ(obs::counter_value("lp_iterations"), after.iterations);
}

// ---- trace collector -------------------------------------------------------

TEST(TraceTest, EmitsValidChromeTraceJson) {
  obs::trace::clear();
  obs::trace::record_complete("cat_a", "span_one", 1000, 2500);
  obs::trace::record_instant("cat_a", "marker");
  obs::trace::record_counter("cat_b", "level", 3.5);
  std::thread worker(
      [] { obs::trace::record_complete("cat_a", "span_two", 2000, 100); });
  worker.join();
  EXPECT_EQ(obs::trace::event_count(), 4u);

  std::ostringstream os;
  obs::trace::write(os);
  const std::string json = os.str();

  // Array shape and the required Chrome trace_event fields.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span_one\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat_b\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);  // 1000 ns = 1 µs
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":3.5}"), std::string::npos);

  // The worker thread got its own lane.
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  const std::size_t tid_pos = json.find("\"tid\":0");
  EXPECT_NE(json.find("\"tid\":", tid_pos + 7), std::string::npos);

  // Balanced brackets/braces — cheap well-formedness proxy (names here
  // contain no braces).
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  obs::trace::clear();
}

TEST(TraceTest, ClearDropsEverything) {
  obs::trace::clear();
  obs::trace::record_instant("cat", "x");
  EXPECT_EQ(obs::trace::event_count(), 1u);
  obs::trace::clear();
  EXPECT_EQ(obs::trace::event_count(), 0u);
  std::ostringstream os;
  obs::trace::write(os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

TEST(TraceTest, NowNsIsMonotonic) {
  const std::uint64_t a = obs::trace::now_ns();
  const std::uint64_t b = obs::trace::now_ns();
  EXPECT_LE(a, b);
}

TEST(TraceTest, SpanRecordsOnDestruction) {
  obs::trace::clear();
  {
    obs::trace::Span span("cat", "scoped");
    EXPECT_EQ(obs::trace::event_count(), 0u);
  }
  EXPECT_EQ(obs::trace::event_count(), 1u);
  obs::trace::clear();
}

// ---- compiled-out macros ---------------------------------------------------

TEST(TraceMacrosTest, ArgumentsEvaluatedExactlyWhenArmed) {
  // Ghost evaluation count (the test_contract.cpp pattern): with
  // STOSCHED_TRACE off the value expression must never run.
  obs::trace::clear();
  int evaluations = 0;
  STOSCHED_TRACE_COUNTER("test", "ghost", (++evaluations, 1.0));
  EXPECT_EQ(evaluations, STOSCHED_TRACE_ACTIVE ? 1 : 0);
}

TEST(TraceMacrosTest, SpanAndInstantCompiledOutWhenInactive) {
  obs::trace::clear();
  {
    STOSCHED_TRACE_SPAN("test", "maybe_span");
    STOSCHED_TRACE_INSTANT("test", "maybe_instant");
  }
  EXPECT_EQ(obs::trace::event_count(),
            STOSCHED_TRACE_ACTIVE ? 2u : 0u);
  obs::trace::clear();
}

// ---- progress sink ---------------------------------------------------------

TEST(ProgressTest, LineProtocolShape) {
  const std::string line = obs::format_progress_line(
      "ci", 7, {{"metric", 2.0}, {"halfwidth", 0.125}});
  EXPECT_EQ(line,
            "{\"event\":\"ci\",\"seq\":7,\"metric\":2,\"halfwidth\":0.125}");
}

TEST(ProgressTest, DisabledWithoutEnvVar) {
  // ctest never sets STOSCHED_PROGRESS; emitting must be a safe no-op.
  if (std::getenv("STOSCHED_PROGRESS") == nullptr) {
    EXPECT_FALSE(obs::progress_enabled());
    obs::progress_line("noop", {{"x", 1.0}});
  }
}

// ---- provenance ------------------------------------------------------------

TEST(ProvenanceTest, BuildFactsArePopulated) {
  const obs::BuildInfo b = obs::build_info();
  EXPECT_FALSE(b.git_sha.empty());
  EXPECT_FALSE(b.compiler.empty());
  EXPECT_FALSE(b.build_type.empty());
  EXPECT_FALSE(b.sanitizers.empty());  // "none" when off
  EXPECT_GE(b.omp_max_threads, 1);
  EXPECT_EQ(b.trace, STOSCHED_TRACE_ACTIVE != 0);
}

}  // namespace
}  // namespace stosched
