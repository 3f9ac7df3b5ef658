// google-benchmark micro kernels for the library's hot paths: the three
// record-leakage engines, set leakage, entity resolution, merging, and the
// synthetic generator. Complements the figure harnesses with statistically
// robust per-operation timings.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "core/leakage.h"
#include "core/possible_worlds.h"
#include "er/swoosh.h"
#include "er/transitive.h"
#include "gen/generator.h"
#include "util/rng.h"

namespace infoleak {
namespace {

SyntheticDataset MakeData(std::size_t n, std::size_t records,
                          bool random_weights = false) {
  GeneratorConfig config;
  config.n = n;
  config.num_records = records;
  config.random_weights = random_weights;
  auto data = GenerateDataset(config);
  return std::move(data).value();
}

void BM_RecordLeakageNaive(benchmark::State& state) {
  auto data = MakeData(static_cast<std::size_t>(state.range(0)), 1);
  NaiveLeakage engine(kMaxEnumerableAttributes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.RecordLeakage(data.records[0], data.reference, data.weights));
  }
}
BENCHMARK(BM_RecordLeakageNaive)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_RecordLeakageExact(benchmark::State& state) {
  auto data = MakeData(static_cast<std::size_t>(state.range(0)), 1);
  ExactLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.RecordLeakage(data.records[0], data.reference, data.weights));
  }
}
BENCHMARK(BM_RecordLeakageExact)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_RecordLeakageApprox(benchmark::State& state) {
  auto data = MakeData(static_cast<std::size_t>(state.range(0)), 1);
  ApproxLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.RecordLeakage(data.records[0], data.reference, data.weights));
  }
}
BENCHMARK(BM_RecordLeakageApprox)->Arg(16)->Arg(256)->Arg(4096);

void BM_SetLeakage(benchmark::State& state) {
  auto data = MakeData(50, static_cast<std::size_t>(state.range(0)));
  ExactLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SetLeakage(data.records, data.reference, data.weights, engine));
  }
}
BENCHMARK(BM_SetLeakage)->Arg(10)->Arg(100)->Arg(1000);

void BM_ExpectedRecall(benchmark::State& state) {
  auto data = MakeData(static_cast<std::size_t>(state.range(0)), 1);
  ExactLeakage engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ExpectedRecall(
        data.records[0], data.reference, data.weights));
  }
}
BENCHMARK(BM_ExpectedRecall)->Arg(100)->Arg(1000);

void BM_RecordMerge(benchmark::State& state) {
  auto data = MakeData(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Record::Merge(data.records[0], data.records[1]));
  }
}
BENCHMARK(BM_RecordMerge)->Arg(10)->Arg(100)->Arg(1000);

void BM_ErSwoosh(benchmark::State& state) {
  auto data = MakeData(20, static_cast<std::size_t>(state.range(0)));
  auto match = RuleMatch::SharedValue({"L0", "L1", "L2"});
  UnionMerge merge;
  SwooshResolver resolver(*match, merge);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.Resolve(data.records, nullptr));
  }
}
BENCHMARK(BM_ErSwoosh)->Arg(20)->Arg(100)->Arg(400);

void BM_ErTransitive(benchmark::State& state) {
  auto data = MakeData(20, static_cast<std::size_t>(state.range(0)));
  auto match = RuleMatch::SharedValue({"L0", "L1", "L2"});
  UnionMerge merge;
  TransitiveClosureResolver resolver(*match, merge);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.Resolve(data.records, nullptr));
  }
}
BENCHMARK(BM_ErTransitive)->Arg(20)->Arg(100)->Arg(400);

// ---------------------------------------------------------------------------
// Array kernels: the scalar reference table vs the runtime-dispatched wide
// table on the Algorithm 1 coefficient recurrence, isolated from record
// preparation. On a non-SIMD host Wide() aliases Scalar() and the pair
// reads as a no-op; on AVX hosts the gap is the vectorization win alone.
// ---------------------------------------------------------------------------

struct KernelFixture {
  std::vector<double> rconf;
  std::vector<double> match_conf;
  std::vector<uint32_t> match_rpos;
  std::vector<double> poly;
  std::size_t pn;
};

KernelFixture MakeKernelFixture(std::size_t rn) {
  Rng rng(rn * 2654435761u + 1);
  KernelFixture f;
  f.rconf.resize(rn);
  for (auto& c : f.rconf) c = rng.Uniform(0.05, 1.0);
  f.pn = rn;
  f.match_conf.assign(f.pn, 0.0);
  f.match_rpos.assign(f.pn, 0xFFFFFFFFu);
  for (std::size_t j = 0; j < f.pn; ++j) {
    if (rng.Bernoulli(0.7)) {
      const auto pos = static_cast<uint32_t>(rng.NextBounded(rn));
      f.match_rpos[j] = pos;
      f.match_conf[j] = f.rconf[pos];
    }
  }
  f.poly.resize(rn + 1);
  return f;
}

void RunExactSum(benchmark::State& state, const kern::KernelTable& table) {
  auto f = MakeKernelFixture(static_cast<std::size_t>(state.range(0)));
  const double m = static_cast<double>(f.pn);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.exact_sum(
        f.rconf.data(), f.rconf.size(), f.match_conf.data(),
        f.match_rpos.data(), f.pn, m, 2.0, f.poly.data()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ExactSumScalar(benchmark::State& state) {
  RunExactSum(state, kern::Scalar());
}
BENCHMARK(BM_ExactSumScalar)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ExactSumWide(benchmark::State& state) {
  RunExactSum(state, kern::Wide());
}
BENCHMARK(BM_ExactSumWide)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ApproxSumKernel(benchmark::State& state) {
  auto f = MakeKernelFixture(static_cast<std::size_t>(state.range(0)));
  std::vector<double> rweight(f.rconf.size(), 1.0);
  std::vector<double> pweight(f.pn, 1.0);
  const double wp = static_cast<double>(f.pn);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::Active().approx_sum(
        f.rconf.data(), rweight.data(), f.rconf.size(), f.match_conf.data(),
        f.match_rpos.data(), pweight.data(), f.pn, wp, 2.0, 2));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApproxSumKernel)->Arg(16)->Arg(256)->Arg(4096);

void BM_GenerateDataset(benchmark::State& state) {
  GeneratorConfig config;
  config.n = 100;
  config.num_records = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateDataset(config));
  }
}
BENCHMARK(BM_GenerateDataset)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace infoleak

// Custom main: default --benchmark_out to BENCH_micro_kernels.json so every
// Release run leaves a machine-readable sidecar; an explicit flag wins, and
// non-Release builds never write the sidecar by default (debug timings must
// not masquerade as baselines).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string format_flag = "--benchmark_out_format=json";
#ifndef NDEBUG
  if (!has_out) {
    std::fprintf(stderr,
                 "note: non-Release build; not writing "
                 "BENCH_micro_kernels.json (pass --benchmark_out to force)\n");
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
