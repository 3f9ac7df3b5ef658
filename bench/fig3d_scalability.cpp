// Figure 3(d): scalability of the three record-leakage algorithms as the
// number of attributes in p (and hence in r) grows.
//
// Paper shape (Java, 2.4 GHz Core 2): the naive possible-worlds algorithm
// only reaches ~12 attributes before exploding (O(2^n)); Algorithm 1 scales
// to ~250 (O(|p|·|r|²)); the approximation exceeds 2,000 (O(|p|·|r|)).
// Absolute times differ on modern hardware and C++, so each engine carries
// a per-point time budget; once a point exceeds it — or the engine's own
// complexity model predicts it would — the engine is cut off. The
// *ordering* of the cutoffs is the reproduced result.

#include <cmath>

#include "bench/harness.h"
#include "core/leakage.h"
#include "core/possible_worlds.h"
#include "gen/generator.h"
#include "util/timer.h"

using namespace infoleak;
using namespace infoleak::bench;

namespace {

constexpr double kPerPointBudgetSeconds = 3.0;
constexpr std::size_t kRecordsPerPoint = 20;

/// Seconds to evaluate the record leakage of every record in the dataset,
/// or a negative value when the engine refuses (naive beyond its cap).
/// The reference is prepared once per dataset and each record is filled
/// into a reusable one-record view, so the sweep measures evaluation cost,
/// not repeated reference preparation.
double MeasureEngine(const LeakageEngine& engine, const SyntheticDataset& data,
                     const PreparedReference& ref) {
  WallTimer timer;
  LeakageWorkspace ws;
  PreparedRecord r;
  for (const auto& record : data.records) {
    r.Assign(record, ref);
    auto l = engine.RecordLeakageColumnar(r.view(), ref, &ws);
    if (!l.ok()) return -1.0;
  }
  return timer.ElapsedSeconds();
}

/// The columnar counterpart: records stream from a pre-built ColumnBank
/// through the array kernels. The bank is built outside the timer — it is
/// a once-per-(store, reference) cost, amortized like PrepareReference.
double MeasureEngineColumnar(const LeakageEngine& engine,
                             const ColumnBank& bank,
                             const PreparedReference& ref) {
  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), ref.size());
  WallTimer timer;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    auto l = engine.RecordLeakageColumnar(bank.view(i), ref, &ws);
    if (!l.ok()) return -1.0;
  }
  return timer.ElapsedSeconds();
}

/// One engine's state in the sweep: its last measured point and a
/// complexity model predicting the next point's cost so that hopeless runs
/// are skipped instead of burning minutes.
struct EngineTrack {
  const LeakageEngine* engine;
  // cost(n) exponent model: naive ~ 2^n, Algorithm 1 ~ n^3 (n matched
  // attributes x n^2 polynomial build), approximation ~ n^2.
  enum class Model { kExponential, kCubic, kQuadratic } model;
  bool columnar = false;  // measure through a ColumnBank instead
  bool alive = true;
  double last_seconds = -1.0;
  std::size_t last_n = 0;

  double Predict(std::size_t n) const {
    if (last_seconds < 0.0) return 0.0;  // nothing measured yet
    double ratio = 0.0;
    switch (model) {
      case Model::kExponential:
        ratio = std::pow(2.0, static_cast<double>(n) -
                                  static_cast<double>(last_n));
        break;
      case Model::kCubic:
        ratio = std::pow(static_cast<double>(n) / last_n, 3.0);
        break;
      case Model::kQuadratic:
        ratio = std::pow(static_cast<double>(n) / last_n, 2.0);
        break;
    }
    return last_seconds * ratio;
  }
};

}  // namespace

int main() {
  GeneratorConfig base = GeneratorConfig::Basic();
  base.num_records = kRecordsPerPoint;
  PrintTitle("Figure 3(d): runtime vs number of attributes in p",
             base.ToString() +
                 "  (sweeping n; per-record-set runtime; '-' = refused, "
                 "'>budget' = predicted or measured over budget)");
  BenchReport report(
      "fig3d", base.ToString(),
      {"n", "naive_s", "alg1_s", "approx_s", "alg1_col_s", "approx_col_s"});
  RowPrinter rows(
      {"n", "naive_s", "alg1_s", "approx_s", "alg1_col_s", "approx_col_s"},
      14, &report);

  NaiveLeakage naive(/*max_attributes=*/kMaxEnumerableAttributes);
  ExactLeakage exact;
  ApproxLeakage approx;
  EngineTrack tracks[5] = {
      {&naive, EngineTrack::Model::kExponential},
      {&exact, EngineTrack::Model::kCubic},
      {&approx, EngineTrack::Model::kQuadratic},
      {&exact, EngineTrack::Model::kCubic, /*columnar=*/true},
      {&approx, EngineTrack::Model::kQuadratic, /*columnar=*/true},
  };

  for (std::size_t n :
       {1u,   2u,   4u,   6u,    8u,    10u,   12u,   14u,   16u,  18u,
        20u,  24u,  32u,  64u,   128u,  250u,  512u,  1024u, 2048u,
        4096u, 8192u}) {
    GeneratorConfig config = base;
    config.n = n;
    auto data = GenerateDataset(config);
    if (!data.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   data.status().ToString().c_str());
      return 1;
    }
    const PreparedReference ref(data->reference, data->weights);
    Database db;
    for (const auto& r : data->records) db.Add(r);
    const ColumnBank bank = ColumnBank::FromDatabase(db, ref);
    std::vector<std::string> cells{std::to_string(n)};
    for (auto& track : tracks) {
      if (!track.alive) {
        cells.push_back("-");
        continue;
      }
      if (track.Predict(n) > kPerPointBudgetSeconds) {
        track.alive = false;
        cells.push_back(">budget");
        continue;
      }
      double secs = track.columnar
                        ? MeasureEngineColumnar(*track.engine, bank, ref)
                        : MeasureEngine(*track.engine, *data, ref);
      if (secs < 0.0) {
        track.alive = false;
        cells.push_back("-");
        continue;
      }
      track.last_seconds = secs;
      track.last_n = n;
      if (secs > kPerPointBudgetSeconds) {
        track.alive = false;
        cells.push_back(Fmt(secs, 3) + ">budget");
      } else {
        cells.push_back(Fmt(secs, 4));
      }
    }
    rows.Row(cells);
    bool any_alive = false;
    for (const auto& track : tracks) any_alive |= track.alive;
    if (!any_alive) break;
  }
  std::printf(
      "\nexpected ordering (paper): naive dies first (~12 attrs), Alg. 1 "
      "next (~hundreds), approximation last (thousands).\n");
  Status written = report.WriteFile();
  if (!written.ok()) {
    std::fprintf(stderr, "json write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  return 0;
}
