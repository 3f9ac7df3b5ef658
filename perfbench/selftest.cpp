// The benchmark's own tests: the percentile/sample-count rule, the
// determinism of every workload's inputs, and the answer checker's
// exactness. `python3 perfbench/run.py --self-test` runs this binary and
// then holds the driver's metric and workload names against BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "svc/json.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void PercentileRule() {
  // At least ten samples beyond the rank: p50 needs 20, p90 100, p99 1000.
  for (const auto& [q, n] : {std::pair<double, std::size_t>{0.50, 20},
                             {0.90, 100},
                             {0.99, 1000}}) {
    const std::string at = "p" + std::to_string(static_cast<int>(q * 100));
    Expect(PercentileOf(Ramp(n), q).supported, at + " supported at " +
                                                   std::to_string(n));
    Expect(!PercentileOf(Ramp(n - 1), q).supported,
           at + " unsupported below " + std::to_string(n));
    Expect(PercentileOf(Ramp(n), q).samples == n, "sample count reported");
  }
  // Nearest rank: the value at 1-based rank ceil(q·n).
  Expect(PercentileOf(Ramp(100), 0.90).value == 90.0, "p90 of 1..100 is 90");
  Expect(PercentileOf(Ramp(1000), 0.99).value == 990.0, "p99 of 1..1000");
  Expect(PercentileOf(Ramp(21), 0.50).value == 11.0, "p50 of 1..21 is 11");
  Expect(!PercentileOf({}, 0.5).supported, "empty sample is unsupported");
  // A failure is infinitely slow: it can only push a percentile up.
  std::vector<double> with_failures = Ramp(100);
  for (int i = 0; i < 15; ++i) with_failures.push_back(kFailedLatency);
  Expect(std::isinf(PercentileOf(with_failures, 0.90).value),
         "15 failures in 115 set the p90");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0}) == 2.5,
         "median of repeated timings");
}

bool SameInputs(const Inputs& a, const Inputs& b) {
  if (a.store_csv != b.store_csv || a.streams.size() != b.streams.size() ||
      a.refs.size() != b.refs.size() ||
      a.appended.size() != b.appended.size() ||
      a.frontier_seeds != b.frontier_seeds) {
    return false;
  }
  for (std::size_t i = 0; i < a.refs.size(); ++i) {
    if (a.refs[i].text != b.refs[i].text) return false;
  }
  for (std::size_t i = 0; i < a.appended.size(); ++i) {
    if (!(a.appended[i] == b.appended[i])) return false;
  }
  for (std::size_t c = 0; c < a.streams.size(); ++c) {
    if (a.streams[c].size() != b.streams[c].size()) return false;
    for (std::size_t i = 0; i < a.streams[c].size(); ++i) {
      if (a.streams[c][i].line != b.streams[c][i].line) return false;
    }
  }
  return true;
}

void Determinism() {
  for (Workload w : kWorkloads) {
    const std::string name(WorkloadName(w));
    auto a = MakeInputs(w, 7, 1.0);
    auto b = MakeInputs(w, 7, 1.0);
    auto c = MakeInputs(w, 8, 1.0);
    Expect(a.ok() && b.ok() && c.ok(), name + ": inputs build");
    if (!a.ok() || !b.ok() || !c.ok()) continue;
    Expect(SameInputs(*a, *b), name + ": same seed, byte-identical inputs");
    Expect(!SameInputs(*a, *c), name + ": another seed, other inputs");
    Expect(a->base.size() == kBaseRecords, name + ": 10,000-record store");
  }
}

/// A set-leak response line carrying the given answer.
std::string SetLeakLine(double leakage, std::ptrdiff_t argmax,
                        std::size_t records) {
  return R"({"ok":true,"verb":"set-leak","leakage":)" +
         infoleak::svc::JsonNumber(leakage) +
         R"(,"argmax":)" + std::to_string(argmax) + R"(,"records":)" +
         std::to_string(records) + R"(,"path":"index"})";
}

void CheckerExactness() {
  auto in = MakeInputs(Workload::kAuditHot, 3, 1.0);
  Expect(in.ok(), "audit-hot inputs");
  if (!in.ok()) return;
  auto answers = ComputeAnswers(*in);
  Expect(answers.ok(), "audit-hot answers");
  if (!answers.ok()) return;
  const Request* set_leak = nullptr;
  const Request* leak = nullptr;
  for (const Request& r : in->streams[0]) {
    if (r.verb == Verb::kSetLeak && set_leak == nullptr) set_leak = &r;
    if (r.verb == Verb::kLeak && leak == nullptr) leak = &r;
  }
  const SetLeakAnswer want = answers->set_leak[set_leak->ref];
  Expect(CheckResponse(*in, *answers, *set_leak,
                       SetLeakLine(want.leakage, want.argmax, kBaseRecords),
                       {}) == "",
         "the exact answer passes");
  Expect(CheckResponse(*in, *answers, *set_leak,
                       SetLeakLine(std::nextafter(want.leakage, 2.0),
                                   want.argmax, kBaseRecords),
                       {}) != "",
         "one ulp off fails");
  Expect(CheckResponse(*in, *answers, *set_leak,
                       SetLeakLine(want.leakage, want.argmax + 1, kBaseRecords),
                       {}) != "",
         "another argmax fails");
  const double value = answers->leak.at(LeakKey(leak->ref, leak->item));
  Expect(CheckResponse(*in, *answers, *leak,
                       R"({"ok":true,"leakage":)" +
                           infoleak::svc::JsonNumber(value) + "}",
                       {}) == "",
         "the exact leak passes");
  Expect(CheckResponse(*in, *answers, *leak,
                       R"({"ok":false,"code":"overloaded","error":"shed"})",
                       {}) != "",
         "a refused request fails");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::Determinism();
  perfbench::CheckerExactness();
  std::printf("perfbench self-test: %s\n",
              perfbench::failures == 0 ? "ok" : "FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
