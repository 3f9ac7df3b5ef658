// Microbenchmark for the observability layer itself: what a sharded
// counter increment and a histogram observation cost in isolation, and —
// the number docs/observability.md quotes — what the instrumentation adds
// to the prepared exact hot loop. Compare BM_PreparedExactHotLoop/metrics_on
// against /metrics_off: the acceptance bar is <5% overhead with metrics
// enabled.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/leakage.h"
#include "core/record_io.h"
#include "gen/generator.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "store/record_store.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace infoleak {
namespace {

void BM_CounterInc(benchmark::State& state) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "bench_obs_counter_total", {}, "micro_obs scratch counter");
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_CounterInc);

void BM_CounterIncDisabled(benchmark::State& state) {
  obs::MetricsRegistry::SetEnabled(false);
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "bench_obs_counter_total", {}, "micro_obs scratch counter");
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.Value());
  obs::MetricsRegistry::SetEnabled(true);
}
BENCHMARK(BM_CounterIncDisabled);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "bench_obs_histogram", {}, "micro_obs scratch histogram");
  double v = 0.0;
  for (auto _ : state) {
    hist.Observe(v);
    v += 1e-5;
    if (v > 1.0) v = 0.0;
  }
  benchmark::DoNotOptimize(hist.Count());
}
BENCHMARK(BM_HistogramObserve);

// The instrumented production hot loop: an exact set-leakage scan over a
// column bank of a synthetic database, with the metrics layer globally on
// vs off. The two variants run the identical code path; the delta is the
// cost of the counter/histogram calls the leakage engines make.
void PreparedExactHotLoop(benchmark::State& state, bool metrics_enabled) {
  GeneratorConfig config;
  config.n = 20;
  config.num_records = static_cast<std::size_t>(state.range(0));
  auto data = GenerateDataset(config);
  Database db;
  for (const auto& r : data->records) db.Add(r);
  ExactLeakage engine;
  const PreparedReference ref(data->reference, data->weights);
  const ColumnBank bank = ColumnBank::FromDatabase(db, ref);
  obs::MetricsRegistry::SetEnabled(metrics_enabled);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetLeakageColumnar(bank, engine));
  }
  obs::MetricsRegistry::SetEnabled(true);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PreparedExactHotLoop_MetricsOn(benchmark::State& state) {
  PreparedExactHotLoop(state, /*metrics_enabled=*/true);
}
BENCHMARK(BM_PreparedExactHotLoop_MetricsOn)->Arg(1000)->Arg(10000);

void BM_PreparedExactHotLoop_MetricsOff(benchmark::State& state) {
  PreparedExactHotLoop(state, /*metrics_enabled=*/false);
}
BENCHMARK(BM_PreparedExactHotLoop_MetricsOff)->Arg(1000)->Arg(10000);

// What accepting one finished request into the event log costs: the
// counter/histogram feeds, the slow-ring offer, and the sharded ring push.
void BM_EventLogRecord(benchmark::State& state) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::EventLog log(/*capacity=*/2048, /*slow_capacity=*/32);
  obs::RequestEvent proto;
  proto.verb = "set-leak";
  proto.outcome = "ok";
  proto.total_nanos = 250000;
  proto.phase_nanos[static_cast<int>(obs::Phase::kParse)] = 20000;
  proto.phase_nanos[static_cast<int>(obs::Phase::kEval)] = 200000;
  proto.phase_nanos[static_cast<int>(obs::Phase::kSerialize)] = 30000;
  uint64_t id = 0;
  for (auto _ : state) {
    obs::RequestEvent event = proto;
    event.id = ++id;
    log.Record(std::move(event));
  }
  benchmark::DoNotOptimize(log.recorded());
}
BENCHMARK(BM_EventLogRecord);

void BM_EventLogRecordDisabled(benchmark::State& state) {
  obs::EventLog log(/*capacity=*/2048, /*slow_capacity=*/32);
  log.SetEnabled(false);
  obs::RequestEvent proto;
  proto.verb = "set-leak";
  proto.outcome = "ok";
  for (auto _ : state) {
    obs::RequestEvent event = proto;
    log.Record(std::move(event));
  }
  benchmark::DoNotOptimize(log.recorded());
}
BENCHMARK(BM_EventLogRecordDisabled);

// The serving hot loop end to end: LeakageService::Handle on a set-leak
// request, which creates a request context, charges phase timers through
// store and kernels, and emits one event per call. /log_on vs /log_off is
// the number docs/observability.md quotes for the request-scoped plane:
// the acceptance bar is <5% overhead with the event log enabled.
void ServedSetLeakHotLoop(benchmark::State& state, bool log_enabled) {
  GeneratorConfig config;
  config.n = 20;
  config.num_records = static_cast<std::size_t>(state.range(0));
  auto data = GenerateDataset(config);
  Database db;
  for (const auto& r : data->records) db.Add(r);
  svc::LeakageService service(RecordStore::FromDatabase(db));
  const std::string line =
      std::string(R"({"verb":"set-leak","reference":)") +
      svc::JsonQuote(FormatRecord(data->reference)) + "}";
  auto req = svc::ParseRequest(line);
  if (!req.ok()) {
    state.SkipWithError("ParseRequest failed");
    return;
  }
  obs::EventLog::Global().SetEnabled(log_enabled);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Handle(*req));
  }
  obs::EventLog::Global().SetEnabled(true);
  obs::EventLog::Global().Clear();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ServedSetLeak_LogOn(benchmark::State& state) {
  ServedSetLeakHotLoop(state, /*log_enabled=*/true);
}
BENCHMARK(BM_ServedSetLeak_LogOn)->Arg(1000)->Arg(10000);

void BM_ServedSetLeak_LogOff(benchmark::State& state) {
  ServedSetLeakHotLoop(state, /*log_enabled=*/false);
}
BENCHMARK(BM_ServedSetLeak_LogOff)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace infoleak

// Same sidecar convention as micro_prepared: default --benchmark_out to a
// JSON file so overhead numbers are machine-checkable. Non-Release builds
// never write the sidecar by default — debug timings must not masquerade
// as baselines.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_obs.json";
  std::string format_flag = "--benchmark_out_format=json";
#ifndef NDEBUG
  if (!has_out) {
    std::fprintf(stderr,
                 "note: non-Release build; not writing "
                 "BENCH_micro_obs.json (pass --benchmark_out to force)\n");
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
