// Append->query latency for the incremental leakage index vs the columnar
// rescan, swept over store size |R| in {1k, 10k, 100k}. Each round appends
// one record through the service and then asks for the set leakage of the
// same reference. In index mode the service answers set-leak: a lookup
// plus a one-record delta (flat in |R|). In rescan mode the library scans
// the store: a bank extended with the new record from the store's interned
// cells, then a full SetLeakageColumnar pass (linear in |R|). Both modes
// must land on identical bits. Writes the BENCH_incremental.json sidecar
// for CI.

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/column_bank.h"
#include "core/leakage.h"
#include "core/record_io.h"
#include "gen/generator.h"
#include "store/record_store.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace infoleak::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct ModePoint {
  uint64_t queries = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double leakage = 0.0;
  double argmax = -1.0;
  std::string path;
};

double PercentileUs(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

/// One append->query round trip per iteration, service.Handle directly (no
/// sockets: this measures the evaluation plane, not the network). Index
/// mode asks the service for set-leak; rescan mode scans the service's
/// store with the library, as a service without an index would.
Result<ModePoint> RunMode(const SyntheticDataset& data, std::size_t base,
                          const std::vector<std::string>& appends,
                          bool index_on) {
  Database db;
  for (std::size_t i = 0; i < base; ++i) db.Add(data.records[i]);
  svc::LeakageService service(RecordStore::FromDatabase(db));

  const std::string reference_text = FormatRecord(data.reference);
  const std::string set_leak =
      std::string(R"({"verb":"set-leak","reference":)") +
      svc::JsonQuote(reference_text) + "}";
  auto set_leak_req = svc::ParseRequest(set_leak);
  if (!set_leak_req.ok()) return set_leak_req.status();
  // The reference exactly as the service parses it, for the rescan.
  auto reference = ParseRecord(reference_text);
  if (!reference.ok()) return reference.status();
  const WeightModel unit;
  const PreparedReference prepared(*reference, unit);
  ColumnBank bank(prepared);
  AutoLeakage engine;  // the service's default engine
  ModePoint point;
  std::string last;  // the last set-leak response, parsed after timing
  // Single-threaded, so reading the store's interned cells needs no lock.
  auto query = [&]() -> Status {
    if (index_on) {
      std::string wire_code;
      last = service.Handle(*set_leak_req, {}, &wire_code);
      if (!wire_code.empty()) {
        return Status::Internal("set-leak: " + wire_code);
      }
      return Status::OK();
    }
    bank.ExtendFrom(service.store().interned());
    std::ptrdiff_t argmax = -1;
    auto leakage = SetLeakageColumnar(bank, engine, &argmax);
    if (!leakage.ok()) return leakage.status();
    point.leakage = *leakage;
    point.argmax = static_cast<double>(argmax);
    point.path = "rescan";
    return Status::OK();
  };

  // Warm-up registers the reference and pays the one-time catch-up over
  // the base records (index mode) or the bank build (rescan mode) outside
  // the timed region.
  INFOLEAK_RETURN_IF_ERROR(query());

  std::vector<double> micros;
  micros.reserve(appends.size());
  for (const std::string& append_line : appends) {
    auto append_req = svc::ParseRequest(append_line);
    if (!append_req.ok()) return append_req.status();
    const Clock::time_point t0 = Clock::now();
    std::string wire_code;
    service.Handle(*append_req, {}, &wire_code);
    if (!wire_code.empty()) return Status::Internal("append: " + wire_code);
    INFOLEAK_RETURN_IF_ERROR(query());
    micros.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                               t0)
                         .count());
  }

  if (index_on) {
    auto parsed = svc::ParseJson(last);
    if (!parsed.ok()) return parsed.status();
    point.leakage = parsed->GetNumber("leakage", -1.0);
    point.argmax = parsed->GetNumber("argmax", -2.0);
    point.path = parsed->GetString("path", "?");
  }
  point.queries = micros.size();
  double sum = 0.0;
  for (double us : micros) sum += us;
  point.mean_us = micros.empty() ? 0.0 : sum / static_cast<double>(micros.size());
  std::sort(micros.begin(), micros.end());
  point.p50_us = PercentileUs(micros, 0.50);
  point.p99_us = PercentileUs(micros, 0.99);
  return point;
}

int Main() {
  const std::vector<std::size_t> sizes{1000, 10000, 100000};
  const int rounds = 64;

  GeneratorConfig config = GeneratorConfig::Basic();
  config.n = 20;
  config.num_records = sizes.back() + static_cast<std::size_t>(rounds);
  auto data = GenerateDataset(config);
  if (!data.ok()) {
    std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
    return 1;
  }

  PrintTitle("bench_incremental: append->query latency, index vs rescan",
             config.ToString() + " rounds=" + std::to_string(rounds));
  BenchReport report("incremental", config.ToString(),
                     {"records", "mode", "queries", "mean_us", "p50_us",
                      "p99_us"});
  RowPrinter rows(
      {"records", "mode", "queries", "mean_us", "p50_us", "p99_us"}, 12,
      &report);
  for (std::size_t base : sizes) {
    // The appended records come from past the base prefix so both modes
    // see the same fresh rows.
    std::vector<std::string> appends;
    for (int i = 0; i < rounds; ++i) {
      appends.push_back(
          std::string(R"({"verb":"append","record":)") +
          svc::JsonQuote(FormatRecord(
              data->records[base + static_cast<std::size_t>(i)])) +
          "}");
    }
    ModePoint got[2];
    const bool modes[2] = {true, false};
    const char* names[2] = {"index", "rescan"};
    for (int m = 0; m < 2; ++m) {
      auto point = RunMode(*data, base, appends, modes[m]);
      if (!point.ok()) {
        std::fprintf(stderr, "records=%zu mode=%s: %s\n", base, names[m],
                     point.status().ToString().c_str());
        return 1;
      }
      got[m] = *point;
      rows.Row({std::to_string(base), names[m],
                std::to_string(point->queries), Fmt(point->mean_us, 6),
                Fmt(point->p50_us, 6), Fmt(point->p99_us, 6)});
    }
    // The speedup is only meaningful if both paths answered identically
    // (and the fast mode really took the index path).
    if (got[0].leakage != got[1].leakage || got[0].argmax != got[1].argmax ||
        got[0].path != "index") {
      std::fprintf(stderr,
                   "index/rescan disagree at records=%zu: "
                   "leakage %.17g (%s) vs %.17g (%s), argmax %g vs %g\n",
                   base, got[0].leakage, got[0].path.c_str(), got[1].leakage,
                   got[1].path.c_str(), got[0].argmax, got[1].argmax);
      return 1;
    }
  }
  Status written = report.WriteFile(".");
  if (!written.ok()) {
    std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace infoleak::bench

int main() { return infoleak::bench::Main(); }
