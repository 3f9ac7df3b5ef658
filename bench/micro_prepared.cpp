// Microbenchmark for the evaluation entry points: the Record entry point
// (prepare p, fill a one-record view, evaluate) against the Database
// convenience (prepare p once, build a ColumnBank, scan it) on the
// workloads they target — one reference scored against a large database
// and repeated per-record evaluation — plus the costs that amortize:
// preparing a reference, filling a view, building a bank. Run the
// SetLeakage variants at Arg(10000) to reproduce the recorded ratios.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/leakage.h"
#include "gen/generator.h"

namespace infoleak {
namespace {

struct Fixture {
  Database db;
  SyntheticDataset data;
};

Fixture MakeFixture(std::size_t n, std::size_t records,
                    bool random_weights = false) {
  GeneratorConfig config;
  config.n = n;
  config.num_records = records;
  config.random_weights = random_weights;
  auto data = GenerateDataset(config);
  Fixture f{Database{}, std::move(data).value()};
  for (const auto& r : f.data.records) f.db.Add(r);
  return f;
}

// ---------------------------------------------------------------------------
// Headline comparison: set leakage over a large synthetic database.
// Record path: every record goes through the Record entry point, which
// prepares p and fills a one-record view per call. Database path:
// SetLeakage(db, p, wm, engine) prepares p once, builds a bank over the
// database and scans it — the bank build is inside the timer.
// ---------------------------------------------------------------------------

double RecordPathSetLeakage(const Database& db, const Record& p,
                            const WeightModel& wm,
                            const LeakageEngine& engine) {
  double best = 0.0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    best = std::max(best, engine.RecordLeakage(db[i], p, wm).value_or(0.0));
  }
  return best;
}

void BM_SetLeakageStringExact(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)));
  ExactLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RecordPathSetLeakage(f.db, f.data.reference, f.data.weights, engine));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetLeakageStringExact)->Arg(1000)->Arg(10000);

void BM_SetLeakageDatabaseExact(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)));
  ExactLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SetLeakage(f.db, f.data.reference, f.data.weights, engine));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetLeakageDatabaseExact)->Arg(1000)->Arg(10000);

void BM_SetLeakageStringApprox(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)),
                       /*random_weights=*/true);
  ApproxLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RecordPathSetLeakage(f.db, f.data.reference, f.data.weights, engine));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetLeakageStringApprox)->Arg(1000)->Arg(10000);

void BM_SetLeakageDatabaseApprox(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)),
                       /*random_weights=*/true);
  ApproxLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SetLeakage(f.db, f.data.reference, f.data.weights, engine));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetLeakageDatabaseApprox)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Per-record comparison: a single record evaluated repeatedly (the tracker
// / streaming-monitor pattern), isolating per-call overhead.
// ---------------------------------------------------------------------------

void BM_RecordLeakageString(benchmark::State& state) {
  auto f = MakeFixture(static_cast<std::size_t>(state.range(0)), 1);
  ApproxLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RecordLeakage(
        f.data.records[0], f.data.reference, f.data.weights));
  }
}
BENCHMARK(BM_RecordLeakageString)->Arg(20)->Arg(100)->Arg(500);

// The served `leak` verb's shape: p prepared once, the record refilled
// into a one-record view and evaluated on every call.
void BM_RecordLeakageOneRecordView(benchmark::State& state) {
  auto f = MakeFixture(static_cast<std::size_t>(state.range(0)), 1);
  ApproxLeakage engine;
  const PreparedReference ref(f.data.reference, f.data.weights);
  PreparedRecord r;
  LeakageWorkspace ws;
  for (auto _ : state) {
    r.Assign(f.data.records[0], ref);
    benchmark::DoNotOptimize(engine.RecordLeakageColumnar(r.view(), ref, &ws));
  }
}
BENCHMARK(BM_RecordLeakageOneRecordView)->Arg(20)->Arg(100)->Arg(500);

// ---------------------------------------------------------------------------
// Preparation cost itself: what the once-per-reference and once-per-record
// setup steps cost, so readers can amortize.
// ---------------------------------------------------------------------------

void BM_PrepareReference(benchmark::State& state) {
  auto f = MakeFixture(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    PreparedReference ref(f.data.reference, f.data.weights);
    benchmark::DoNotOptimize(ref.total_weight());
  }
}
BENCHMARK(BM_PrepareReference)->Arg(20)->Arg(100)->Arg(500);

void BM_AssignRecord(benchmark::State& state) {
  auto f = MakeFixture(static_cast<std::size_t>(state.range(0)), 1);
  const PreparedReference ref(f.data.reference, f.data.weights);
  PreparedRecord r;
  for (auto _ : state) {
    r.Assign(f.data.records[0], ref);
    benchmark::DoNotOptimize(r.size());
  }
}
BENCHMARK(BM_AssignRecord)->Arg(20)->Arg(100)->Arg(500);

// ---------------------------------------------------------------------------
// Batch evaluation from loose records: append them to a bank, then score
// every record in bank order.
// ---------------------------------------------------------------------------

void BM_BatchLeakageDatabase(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)));
  ExactLeakage engine;
  const PreparedReference ref(f.data.reference, f.data.weights);
  for (auto _ : state) {
    const ColumnBank bank = ColumnBank::FromDatabase(f.db, ref);
    benchmark::DoNotOptimize(BatchLeakageColumnar(bank, engine));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchLeakageDatabase)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Scan alone: the same set-leakage workloads streamed from a prebuilt
// ColumnBank through the array kernels. The bank is built outside the
// timer — the serving layer keeps one per cached reference, so it is a
// once-per-(store, reference) cost, amortized exactly like
// PrepareReference.
// ---------------------------------------------------------------------------

void BM_SetLeakageColumnarExact(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)));
  ExactLeakage engine;
  const PreparedReference ref(f.data.reference, f.data.weights);
  const ColumnBank bank = ColumnBank::FromDatabase(f.db, ref);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetLeakageColumnar(bank, engine));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetLeakageColumnarExact)->Arg(1000)->Arg(10000);

void BM_SetLeakageColumnarApprox(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)),
                       /*random_weights=*/true);
  ApproxLeakage engine;
  const PreparedReference ref(f.data.reference, f.data.weights);
  const ColumnBank bank = ColumnBank::FromDatabase(f.db, ref);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetLeakageColumnar(bank, engine));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetLeakageColumnarApprox)->Arg(1000)->Arg(10000);

void BM_RecordLeakageColumnar(benchmark::State& state) {
  auto f = MakeFixture(static_cast<std::size_t>(state.range(0)), 1);
  ApproxLeakage engine;
  const PreparedReference ref(f.data.reference, f.data.weights);
  ColumnBank bank(ref);
  bank.Append(f.data.records[0]);
  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), ref.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.RecordLeakageColumnar(bank.view(0), ref, &ws));
  }
}
BENCHMARK(BM_RecordLeakageColumnar)->Arg(20)->Arg(100)->Arg(500);

void BM_BuildColumnBank(benchmark::State& state) {
  auto f = MakeFixture(20, static_cast<std::size_t>(state.range(0)));
  const PreparedReference ref(f.data.reference, f.data.weights);
  for (auto _ : state) {
    ColumnBank bank = ColumnBank::FromDatabase(f.db, ref);
    benchmark::DoNotOptimize(bank.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildColumnBank)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace infoleak

// Custom main: default --benchmark_out to BENCH_micro_prepared.json so every
// run leaves a machine-readable sidecar next to the console table. An
// explicit --benchmark_out on the command line still wins. Non-Release
// builds never write the sidecar by default — debug timings must not
// masquerade as baselines.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_prepared.json";
  std::string format_flag = "--benchmark_out_format=json";
#ifndef NDEBUG
  if (!has_out) {
    std::fprintf(stderr,
                 "note: non-Release build; not writing "
                 "BENCH_micro_prepared.json (pass --benchmark_out to force)\n");
    has_out = true;  // suppress the default sidecar
  }
#endif
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
