// Tests for the sharded metrics layer (src/obs/metrics.h): exact
// aggregation under concurrent writers, registry interning semantics, the
// global kill switch, and the instrumentation contract of the leakage hot
// paths — parallel and serial drivers must report identical, exact
// evaluation counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/leakage.h"
#include "gen/generator.h"
#include "obs/metrics.h"

namespace infoleak {
namespace {

obs::MetricsRegistry& Reg() { return obs::MetricsRegistry::Global(); }

TEST(CounterTest, IncAccumulatesAndResets) {
  obs::Counter& c = Reg().GetCounter("test_counter_basic_total");
  c.Reset();
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  obs::Counter& c = Reg().GetCounter("test_counter_concurrent_total");
  c.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  obs::Gauge& g = Reg().GetGauge("test_gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BucketAssignmentUsesUpperBounds) {
  obs::Histogram& h =
      Reg().GetHistogram("test_histogram_buckets", {}, "", {1.0, 2.0, 4.0});
  h.Reset();
  // Prometheus convention: bucket le=B counts values <= B.
  h.Observe(0.5);   // bucket 0 (le=1)
  h.Observe(1.0);   // bucket 0 (le=1, inclusive)
  h.Observe(1.5);   // bucket 1 (le=2)
  h.Observe(4.0);   // bucket 2 (le=4)
  h.Observe(100.0); // overflow (+Inf)
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(HistogramTest, ConcurrentObservationsAreExact) {
  obs::Histogram& h =
      Reg().GetHistogram("test_histogram_concurrent", {}, "", {0.5});
  h.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Observe(1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 0u);                      // nothing <= 0.5
  EXPECT_EQ(counts[1], kThreads * kPerThread);   // all overflow
  EXPECT_DOUBLE_EQ(h.Sum(), static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsRegistryTest, InterningReturnsTheSameInstance) {
  obs::Counter& a = Reg().GetCounter("test_interned_total", {{"k", "v"}});
  obs::Counter& b = Reg().GetCounter("test_interned_total", {{"k", "v"}});
  obs::Counter& other = Reg().GetCounter("test_interned_total", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitSeries) {
  obs::Counter& a = Reg().GetCounter("test_label_order_total",
                                     {{"a", "1"}, {"b", "2"}});
  obs::Counter& b = Reg().GetCounter("test_label_order_total",
                                     {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistryTest, DisabledIncIsANoOp) {
  obs::Counter& c = Reg().GetCounter("test_kill_switch_total");
  c.Reset();
  obs::MetricsRegistry::SetEnabled(false);
  c.Inc(100);
  obs::MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  EXPECT_EQ(c.Value(), 1u);
}

TEST(MetricsRegistryTest, ResetAllKeepsRegistrationsValid) {
  obs::Counter& c = Reg().GetCounter("test_resetall_total");
  c.Inc(7);
  Reg().ResetAll();
  EXPECT_EQ(c.Value(), 0u);   // same handle, zeroed
  c.Inc();
  EXPECT_EQ(c.Value(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByNameAndLabels) {
  Reg().GetCounter("test_sorted_b_total");
  Reg().GetCounter("test_sorted_a_total");
  obs::MetricsSnapshot snap = Reg().Snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LE(snap.counters[i - 1].name, snap.counters[i].name)
        << "counters out of order at " << i;
  }
}

// ---------------------------------------------------------------------------
// Instrumentation contracts of the leakage drivers.
// ---------------------------------------------------------------------------

SyntheticDataset MakeData(std::size_t records) {
  GeneratorConfig config;
  config.n = 12;
  config.num_records = records;
  return GenerateDataset(config).value();
}

TEST(LeakageInstrumentation, ScanLatencyHistogramAdvances) {
  auto data = MakeData(64);
  Database db;
  for (const auto& r : data.records) db.Add(r);
  ExactLeakage engine;
  const PreparedReference ref(data.reference, data.weights);
  const ColumnBank bank = ColumnBank::FromDatabase(db, ref);
  obs::Histogram& latency = Reg().GetHistogram(
      "infoleak_set_leakage_seconds", {{"mode", "columnar"}});
  const uint64_t before = latency.Count();
  ASSERT_TRUE(SetLeakageColumnar(bank, engine).ok());
  EXPECT_EQ(latency.Count() - before, 1u);
}

TEST(LeakageInstrumentation, StringAndPreparedPathsCountSameEvaluations) {
  auto data = MakeData(100);
  Database db;
  for (const auto& r : data.records) db.Add(r);
  ExactLeakage engine;
  obs::Counter& evals = Reg().GetCounter(
      "infoleak_leakage_evaluations_total", {{"engine", "exact"}});

  // String path: one virtual RecordLeakage per record.
  const uint64_t before_string = evals.Value();
  for (std::size_t i = 0; i < db.size(); ++i) {
    ASSERT_TRUE(
        engine.RecordLeakage(db[i], data.reference, data.weights).ok());
  }
  const uint64_t string_evals = evals.Value() - before_string;

  // Database path: the SetLeakage driver over the same workload.
  const uint64_t before_prepared = evals.Value();
  ASSERT_TRUE(SetLeakage(db, data.reference, data.weights, engine).ok());
  const uint64_t prepared_evals = evals.Value() - before_prepared;

  EXPECT_EQ(string_evals, db.size());
  EXPECT_EQ(prepared_evals, string_evals);
}

TEST(LeakageInstrumentation, AutoEngineSelectionIsTallied) {
  auto data = MakeData(10);
  Database db;
  for (const auto& r : data.records) db.Add(r);
  AutoLeakage engine;
  obs::Counter& exact_picks = Reg().GetCounter(
      "infoleak_auto_engine_selected_total", {{"engine", "exact"}});
  obs::Counter& naive_picks = Reg().GetCounter(
      "infoleak_auto_engine_selected_total", {{"engine", "naive"}});
  obs::Counter& approx_picks = Reg().GetCounter(
      "infoleak_auto_engine_selected_total", {{"engine", "approx"}});
  const uint64_t before =
      exact_picks.Value() + naive_picks.Value() + approx_picks.Value();
  ASSERT_TRUE(SetLeakage(db, data.reference, data.weights, engine).ok());
  const uint64_t after =
      exact_picks.Value() + naive_picks.Value() + approx_picks.Value();
  EXPECT_EQ(after - before, db.size());
}

TEST(LeakageInstrumentation, ApproxOrderClampIsCounted) {
  obs::Counter& clamped =
      Reg().GetCounter("infoleak_approx_order_clamped_total");
  const uint64_t before = clamped.Value();
  ApproxLeakage valid_low(1), valid_high(2);
  EXPECT_EQ(clamped.Value(), before);
  ApproxLeakage clamped_engine(7);
  EXPECT_EQ(clamped.Value(), before + 1);
}

}  // namespace
}  // namespace infoleak
