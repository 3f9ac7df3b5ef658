// Golden-output tests for the metric exporters (src/obs/export.h). The
// snapshots are hand-built — not read from the global registry — so the
// expected text is exact and independent of what other tests registered.

#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "obs/metrics.h"

namespace infoleak {
namespace {

obs::MetricsSnapshot MakeSnapshot() {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"infoleak_er_runs_total",
                           {{"resolver", "swoosh"}},
                           "Entity-resolution runs",
                           3});
  snap.counters.push_back({"infoleak_eval_path_total",
                           {{"path", "prepared"}},
                           "Record evaluations by API path",
                           120});
  snap.counters.push_back({"infoleak_eval_path_total",
                           {{"path", "string"}},
                           "Record evaluations by API path",
                           0});
  snap.gauges.push_back({"infoleak_prepared_path_hit_ratio",
                         {},
                         "Fraction of evaluations on the prepared path",
                         1.0});
  snap.histograms.push_back({"infoleak_set_leakage_seconds",
                             {{"mode", "serial"}},
                             "Wall time of one SetLeakage call",
                             {0.001, 0.1},
                             {2, 1, 1},
                             4,
                             0.5});
  return snap;
}

TEST(ExportTest, PrometheusGolden) {
  const std::string expected =
      "# HELP infoleak_er_runs_total Entity-resolution runs\n"
      "# TYPE infoleak_er_runs_total counter\n"
      "infoleak_er_runs_total{resolver=\"swoosh\"} 3\n"
      "# HELP infoleak_eval_path_total Record evaluations by API path\n"
      "# TYPE infoleak_eval_path_total counter\n"
      "infoleak_eval_path_total{path=\"prepared\"} 120\n"
      "infoleak_eval_path_total{path=\"string\"} 0\n"
      "# HELP infoleak_prepared_path_hit_ratio Fraction of evaluations on "
      "the prepared path\n"
      "# TYPE infoleak_prepared_path_hit_ratio gauge\n"
      "infoleak_prepared_path_hit_ratio 1\n"
      "# HELP infoleak_set_leakage_seconds Wall time of one SetLeakage "
      "call\n"
      "# TYPE infoleak_set_leakage_seconds histogram\n"
      "infoleak_set_leakage_seconds_bucket{mode=\"serial\",le=\"0.001\"} 2\n"
      "infoleak_set_leakage_seconds_bucket{mode=\"serial\",le=\"0.1\"} 3\n"
      "infoleak_set_leakage_seconds_bucket{mode=\"serial\",le=\"+Inf\"} 4\n"
      "infoleak_set_leakage_seconds_sum{mode=\"serial\"} 0.5\n"
      "infoleak_set_leakage_seconds_count{mode=\"serial\"} 4\n";
  EXPECT_EQ(obs::RenderPrometheus(MakeSnapshot()), expected);
}

TEST(ExportTest, PrometheusSkipZeroHidesZeroSeries) {
  const std::string rendered =
      obs::RenderPrometheus(MakeSnapshot(), {.skip_zero = true});
  EXPECT_EQ(rendered.find("path=\"string\""), std::string::npos);
  EXPECT_NE(rendered.find("path=\"prepared\""), std::string::npos);
}

TEST(ExportTest, PrometheusSkipHistogramsDropsHistogramSection) {
  const std::string rendered =
      obs::RenderPrometheus(MakeSnapshot(), {.skip_histograms = true});
  EXPECT_EQ(rendered.find("infoleak_set_leakage_seconds"), std::string::npos);
  EXPECT_NE(rendered.find("infoleak_er_runs_total"), std::string::npos);
}

TEST(ExportTest, JsonGolden) {
  const std::string expected =
      "{\"counters\":["
      "{\"name\":\"infoleak_er_runs_total\","
      "\"labels\":{\"resolver\":\"swoosh\"},\"value\":3},"
      "{\"name\":\"infoleak_eval_path_total\","
      "\"labels\":{\"path\":\"prepared\"},\"value\":120},"
      "{\"name\":\"infoleak_eval_path_total\","
      "\"labels\":{\"path\":\"string\"},\"value\":0}"
      "],\"gauges\":["
      "{\"name\":\"infoleak_prepared_path_hit_ratio\","
      "\"labels\":{},\"value\":1}"
      "],\"histograms\":["
      "{\"name\":\"infoleak_set_leakage_seconds\","
      "\"labels\":{\"mode\":\"serial\"},"
      "\"bounds\":[0.001,0.1],\"buckets\":[2,1,1],"
      "\"count\":4,\"sum\":0.5}"
      "]}";
  EXPECT_EQ(obs::RenderJson(MakeSnapshot()), expected);
}

TEST(ExportTest, JsonEscapesSpecialCharacters) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"weird_total", {{"k", "a\"b\\c\nd"}}, "", 1});
  const std::string rendered = obs::RenderJson(snap);
  EXPECT_NE(rendered.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"weird_total", {{"k", "a\"b\\c\nd"}}, "", 1});
  const std::string rendered = obs::RenderPrometheus(snap);
  EXPECT_NE(rendered.find("k=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(ExportTest, TimingSummaryListsNonEmptySecondsHistograms) {
  obs::MetricsSnapshot snap = MakeSnapshot();
  // Not a latency histogram: its name does not end in _seconds.
  snap.histograms.push_back(
      {"infoleak_wal_sync_batch_bytes", {}, "", {1.0}, {1, 0}, 1, 512.0});
  // An empty latency histogram has nothing to say.
  snap.histograms.push_back(
      {"infoleak_snapshot_write_seconds", {}, "", {1.0}, {0, 0}, 0, 0.0});
  snap.histograms.push_back({"infoleak_set_leakage_seconds",
                             {{"k", "a\"b"}, {"mode", "columnar"}},
                             "",
                             {1.0},
                             {3, 0},
                             3,
                             0.00125});
  EXPECT_EQ(obs::RenderTimingSummary(snap),
            "infoleak_set_leakage_seconds{mode=\"serial\"} count=4 "
            "total_ms=500\n"
            "infoleak_set_leakage_seconds{k=\"a\\\"b\",mode=\"columnar\"} "
            "count=3 total_ms=1.25\n");
}

TEST(ExportTest, GlobalRegistryRoundTrips) {
  // Smoke: a metric registered in the global registry appears in both
  // renderings with its current value.
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& c = reg.GetCounter("export_roundtrip_total", {}, "round trip");
  c.Reset();
  c.Inc(9);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_NE(obs::RenderPrometheus(snap).find("export_roundtrip_total 9"),
            std::string::npos);
  EXPECT_NE(obs::RenderJson(snap).find(
                "\"name\":\"export_roundtrip_total\",\"labels\":{},"
                "\"value\":9"),
            std::string::npos);
}

}  // namespace
}  // namespace infoleak
