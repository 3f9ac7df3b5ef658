#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "apps/frontier.h"
#include "core/column_bank.h"
#include "core/leakage.h"
#include "core/prepared.h"
#include "core/record_io.h"
#include "core/weights.h"
#include "gen/generator.h"
#include "svc/json.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using infoleak::Attribute;
using infoleak::Rng;
using infoleak::svc::JsonQuote;
using infoleak::svc::JsonValue;

/// Salts separating the RNG streams drawn from one benchmark seed.
constexpr uint64_t kReferenceSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kStreamSalt = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kFrontierSalt = 0x94d049bb133111ebULL;

/// Threads rendering the inputs' text and computing the offline answers,
/// all before the server starts.
constexpr unsigned kThreads = 4;

/// The server's engines for a request without / with "engine":"approx".
const infoleak::LeakageEngine& Engine(bool approx) {
  static const infoleak::AutoLeakage auto_engine;
  static const infoleak::ApproxLeakage approx_engine;
  return approx ? static_cast<const infoleak::LeakageEngine&>(approx_engine)
                : auto_engine;
}

/// The weight model the server builds for a request without "weights".
const infoleak::WeightModel& DefaultWeights() {
  static const infoleak::WeightModel weights =
      infoleak::WeightModel::Parse("").value();
  return weights;
}

/// The hidden reference minus the attributes at `drop` (canonical order).
Result<Reference> MakeReference(const Record& hidden,
                                const std::vector<std::size_t>& drop,
                                bool approx) {
  std::vector<Attribute> kept;
  const auto& attrs = hidden.attributes();
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (std::find(drop.begin(), drop.end(), i) == drop.end()) {
      kept.push_back(attrs[i]);
    }
  }
  Reference ref;
  ref.text = infoleak::FormatRecord(Record(std::move(kept)));
  auto parsed = infoleak::ParseRecord(ref.text);
  if (!parsed.ok()) return parsed.status();
  ref.record = std::move(parsed).value();
  ref.approx = approx;
  return ref;
}

/// audit-hot and ingest-durable: 16 references, each the hidden reference
/// minus one seeded attribute.
Result<std::vector<Reference>> HotReferences(const Record& hidden, Rng* rng) {
  std::vector<std::size_t> order(hidden.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);
  std::vector<Reference> refs;
  for (std::size_t i = 0; i < kHotReferences; ++i) {
    auto ref = MakeReference(hidden, {order[i]}, false);
    if (!ref.ok()) return ref.status();
    refs.push_back(std::move(ref).value());
  }
  return refs;
}

/// audit-cold: 256 distinct references, each missing three seeded
/// attributes; every other one is queried with the approx engine.
Result<std::vector<Reference>> ColdReferences(const Record& hidden, Rng* rng) {
  std::set<std::vector<std::size_t>> seen;
  std::vector<Reference> refs;
  while (refs.size() < kColdReferences) {
    std::vector<std::size_t> drop;
    while (drop.size() < 3) {
      const std::size_t i = rng->NextBounded(hidden.size());
      if (std::find(drop.begin(), drop.end(), i) == drop.end()) {
        drop.push_back(i);
      }
    }
    std::sort(drop.begin(), drop.end());
    if (!seen.insert(drop).second) continue;
    auto ref = MakeReference(hidden, drop, refs.size() % 2 == 1);
    if (!ref.ok()) return ref.status();
    refs.push_back(std::move(ref).value());
  }
  return refs;
}

Request SetLeakRequest(const std::vector<Reference>& refs, uint32_t ref) {
  Request req;
  req.verb = Verb::kSetLeak;
  req.ref = ref;
  req.line = R"({"verb":"set-leak","reference":)" + JsonQuote(refs[ref].text) +
             (refs[ref].approx ? R"(,"engine":"approx"})" : "}");
  return req;
}

Request LeakRequest(const std::vector<Reference>& refs, uint32_t ref,
                    uint32_t record) {
  Request req;
  req.verb = Verb::kLeak;
  req.ref = ref;
  req.item = record;
  req.line = R"({"verb":"leak","reference":)" + JsonQuote(refs[ref].text) +
             R"(,"record_id":)" + std::to_string(record) + "}";
  return req;
}

Request FrontierRequest(const std::vector<uint64_t>& seeds, uint32_t seed,
                        uint32_t point) {
  Request req;
  req.verb = Verb::kFrontier;
  req.ref = seed;
  req.item = point;
  req.line = R"({"verb":"frontier","seed":)" + std::to_string(seeds[seed]) +
             R"(,"rows":)" + std::to_string(kFrontierRows) + R"(,"ks":[)" +
             std::to_string(kFrontierKs[point / kFrontierLs.size()]) +
             R"(],"ls":[)" +
             std::to_string(kFrontierLs[point % kFrontierLs.size()]) + "]}";
  return req;
}

/// Runs fn(0..n-1) on kThreads threads; the first error wins.
Status ParallelFor(std::size_t n,
                   const std::function<Status(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  Status first = Status::OK();
  auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      Status s = fn(i);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first.ok()) first = s;
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < kThreads; ++t) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  return first;
}

}  // namespace

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kAuditHot: return "audit-hot";
    case Workload::kAuditCold: return "audit-cold";
    case Workload::kIngestDurable: return "ingest-durable";
    case Workload::kFrontierSweep: return "frontier-sweep";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : kWorkloads) {
    if (WorkloadName(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view VerbName(Verb v) {
  switch (v) {
    case Verb::kSetLeak: return "set-leak";
    case Verb::kLeak: return "leak";
    case Verb::kAppend: return "append";
    case Verb::kFrontier: return "frontier";
  }
  return "?";
}

Result<Inputs> MakeInputs(Workload workload, uint64_t seed, double seconds) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  const std::size_t appends =
      workload == Workload::kIngestDurable
          ? static_cast<std::size_t>(
                std::llround(std::max(1.0, seconds) *
                             static_cast<double>(kAppendsPerSecond)))
          : 0;

  infoleak::GeneratorConfig config;
  config.n = kAttributes;
  config.num_records = kBaseRecords + appends;
  config.seed = seed;
  auto data = infoleak::GenerateDataset(config);
  if (!data.ok()) return data.status();

  // The server only ever sees wire text, so every offline answer is
  // computed on the text parsed back, exactly as the server parses it.
  // Rendering confidences round-trip is slow (snprintf until strtod agrees),
  // so the store CSV and the appended records render on kThreads threads.
  std::vector<std::string> rows(kBaseRecords);
  Status s = ParallelFor(kBaseRecords, [&](std::size_t i) {
    for (const Attribute& a : data->records[i]) {
      rows[i] += infoleak::Csv::FormatRow(
          {std::to_string(i), a.label, a.value,
           infoleak::FormatDoubleRoundTrip(a.confidence)});
      rows[i] += '\n';
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  in.store_csv = "record,label,value,confidence\n";
  for (const std::string& row : rows) in.store_csv += row;
  auto loaded = infoleak::LoadDatabaseCsv(in.store_csv);
  if (!loaded.ok()) return loaded.status();
  in.base = std::move(loaded).value();

  std::vector<std::string> append_text(appends);
  in.appended.resize(appends);
  s = ParallelFor(appends, [&](std::size_t i) {
    append_text[i] = infoleak::FormatRecord(data->records[kBaseRecords + i]);
    auto parsed = infoleak::ParseRecord(append_text[i]);
    if (!parsed.ok()) return parsed.status();
    in.appended[i] = std::move(parsed).value();
    return Status::OK();
  });
  if (!s.ok()) return s;

  Rng ref_rng(seed ^ kReferenceSalt);
  auto refs = workload == Workload::kAuditCold
                  ? ColdReferences(data->reference, &ref_rng)
                  : HotReferences(data->reference, &ref_rng);
  if (!refs.ok()) return refs.status();
  in.refs = std::move(refs).value();
  const auto num_refs = static_cast<uint32_t>(in.refs.size());

  Rng stream_rng(seed ^ kStreamSalt);
  switch (workload) {
    case Workload::kAuditHot:
      for (int c = 0; c < 2; ++c) {
        Rng rng = stream_rng.Fork();
        auto& stream = in.streams.emplace_back();
        for (std::size_t i = 0; i < kStreamLength; ++i) {
          const auto ref = static_cast<uint32_t>(rng.NextBounded(num_refs));
          if (rng.NextDouble() < 0.75) {
            stream.push_back(SetLeakRequest(in.refs, ref));
          } else {
            const auto id =
                static_cast<uint32_t>(rng.NextBounded(kBaseRecords));
            stream.push_back(LeakRequest(in.refs, ref, id));
          }
        }
      }
      break;
    case Workload::kAuditCold:
      for (int c = 0; c < 2; ++c) {
        Rng rng = stream_rng.Fork();
        auto& stream = in.streams.emplace_back();
        for (std::size_t i = 0; i < kStreamLength; ++i) {
          stream.push_back(SetLeakRequest(
              in.refs, static_cast<uint32_t>(rng.NextBounded(num_refs))));
        }
      }
      break;
    case Workload::kIngestDurable: {
      auto& writes = in.streams.emplace_back();
      for (std::size_t i = 0; i < append_text.size(); ++i) {
        Request req;
        req.verb = Verb::kAppend;
        req.item = static_cast<uint32_t>(i);
        req.line = R"({"verb":"append","record":)" + JsonQuote(append_text[i]) +
                   "}";
        writes.push_back(std::move(req));
      }
      Rng rng = stream_rng.Fork();
      auto& reads = in.streams.emplace_back();
      for (std::size_t i = 0; i < kStreamLength; ++i) {
        reads.push_back(SetLeakRequest(
            in.refs, static_cast<uint32_t>(rng.NextBounded(num_refs))));
      }
      break;
    }
    case Workload::kFrontierSweep: {
      Rng seed_rng(seed ^ kFrontierSalt);
      while (in.frontier_seeds.size() < kFrontierSeeds) {
        const uint64_t s = 1 + seed_rng.NextBounded(1000000);
        if (std::find(in.frontier_seeds.begin(), in.frontier_seeds.end(), s) ==
            in.frontier_seeds.end()) {
          in.frontier_seeds.push_back(s);
        }
      }
      // Blocks of kFrontierSeeds requests, each asking every registry seed
      // once in one seeded order; each block shifts every seed's grid point
      // by one. Request costs differ by seed and point, so any few blocks
      // in a row carry about the same mix, wherever a run's window ends.
      Rng rng = stream_rng.Fork();
      auto& stream = in.streams.emplace_back();
      std::vector<uint32_t> order(kFrontierSeeds);
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<uint32_t>(i);
      }
      rng.Shuffle(&order);
      for (std::size_t i = 0; i < kStreamLength; ++i) {
        const std::size_t block = i / kFrontierSeeds;
        const std::size_t j = i % kFrontierSeeds;
        stream.push_back(FrontierRequest(in.frontier_seeds, order[j],
                                         (j + block) % kFrontierPoints));
      }
      break;
    }
  }
  return in;
}

Result<Answers> ComputeAnswers(const Inputs& in) {
  Answers out;
  const auto& wm = DefaultWeights();

  if (in.workload == Workload::kFrontierSweep) {
    out.frontier.assign(kFrontierSeeds,
                        std::vector<std::string>(kFrontierPoints));
    Status s = ParallelFor(
        kFrontierSeeds * kFrontierPoints, [&](std::size_t i) {
          const std::size_t seed = i / kFrontierPoints;
          const std::size_t point = i % kFrontierPoints;
          infoleak::FrontierConfig config;
          config.registry.seed = in.frontier_seeds[seed];
          config.registry.rows = kFrontierRows;
          config.grid.ks = {kFrontierKs[point / kFrontierLs.size()]};
          config.grid.ls = {kFrontierLs[point % kFrontierLs.size()]};
          auto result = infoleak::RunFrontier(config);
          if (!result.ok()) return result.status();
          if (result->points.size() != 1) {
            return Status::Internal("frontier returned " +
                                    std::to_string(result->points.size()) +
                                    " points for a one-point grid");
          }
          out.frontier[seed][point] =
              infoleak::FrontierPointLine(result->points[0], config);
          return Status::OK();
        });
    if (!s.ok()) return s;
    return out;
  }

  // Set leakage per reference. ingest-durable needs it for every prefix of
  // base + appended, since a set-leak may land between any two appends.
  Database all = in.base;
  for (const Record& r : in.appended) all.Add(r);
  const bool ingest = in.workload == Workload::kIngestDurable;
  out.set_leak.resize(in.refs.size());
  if (ingest) out.prefix.resize(in.refs.size());
  Status s = ParallelFor(in.refs.size(), [&](std::size_t i) {
    const Reference& ref = in.refs[i];
    const auto& engine = Engine(ref.approx);
    const infoleak::PreparedReference prepared(ref.record, wm);
    const auto bank = infoleak::ColumnBank::FromDatabase(ingest ? all : in.base,
                                                         prepared);
    std::ptrdiff_t argmax = -1;
    auto leakage = infoleak::SetLeakageColumnar(bank, engine, &argmax);
    if (!leakage.ok()) return leakage.status();
    if (!ingest) {
      out.set_leak[i] = {*leakage, argmax};
      return Status::OK();
    }
    auto& prefix = out.prefix[i];
    prefix.resize(bank.size() + 1);
    infoleak::LeakageWorkspace ws;
    for (std::size_t n = 0; n < bank.size(); ++n) {
      auto value = infoleak::BankRecordLeakage(bank, n, engine, &ws);
      if (!value.ok()) return value.status();
      prefix[n + 1] = prefix[n];
      if (prefix[n].argmax < 0 || *value > prefix[n].leakage) {
        prefix[n + 1] = {*value, static_cast<std::ptrdiff_t>(n)};
      }
    }
    if (!(prefix.back() == SetLeakAnswer{*leakage, argmax})) {
      return Status::Internal("per-record leakage disagrees with the scan");
    }
    out.set_leak[i] = prefix[in.base.size()];
    return Status::OK();
  });
  if (!s.ok()) return s;

  std::vector<uint64_t> keys;
  for (const auto& stream : in.streams) {
    for (const Request& req : stream) {
      if (req.verb == Verb::kLeak) keys.push_back(LeakKey(req.ref, req.item));
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<double> values(keys.size());
  s = ParallelFor(keys.size(), [&](std::size_t i) {
    const Reference& ref = in.refs[keys[i] >> 32];
    const Record& record = in.base[keys[i] & 0xffffffffu];
    auto value = Engine(ref.approx).RecordLeakage(record, ref.record, wm);
    if (!value.ok()) return value.status();
    values[i] = *value;
    return Status::OK();
  });
  if (!s.ok()) return s;
  for (std::size_t i = 0; i < keys.size(); ++i) out.leak[keys[i]] = values[i];
  return out;
}

std::string CheckResponse(const Inputs& in, const Answers& answers,
                          const Request& req, std::string_view response,
                          const CheckContext& ctx) {
  auto parsed = infoleak::svc::ParseJson(response);
  if (!parsed.ok()) return "unparseable response";
  const JsonValue& v = *parsed;
  if (!v.GetBool("ok", false)) {
    return "error " + v.GetString("code", "?") + ": " +
           v.GetString("error", "");
  }
  auto number = [&](std::string_view key) { return v.GetNumber(key, -1.0); };
  switch (req.verb) {
    case Verb::kSetLeak: {
      const SetLeakAnswer got{number("leakage"),
                              static_cast<std::ptrdiff_t>(number("argmax"))};
      const auto records = static_cast<std::size_t>(number("records"));
      if (in.workload != Workload::kIngestDurable) {
        if (records != in.base.size()) return "wrong store size";
        return got == answers.set_leak[req.ref] ? "" : "set-leak mismatch";
      }
      const auto& prefix = answers.prefix[req.ref];
      if (records >= prefix.size()) return "store larger than appended";
      for (std::size_t n = std::max(ctx.min_records, std::size_t{1});
           n <= records; ++n) {
        if (prefix[n] == got) return "";
      }
      return "set-leak mismatch";
    }
    case Verb::kLeak:
      return number("leakage") == answers.leak.at(LeakKey(req.ref, req.item))
                 ? ""
                 : "leak mismatch";
    case Verb::kAppend: {
      const double id = static_cast<double>(in.base.size() + req.item);
      return number("appended") == id && number("records") == id + 1
                 ? ""
                 : "append acknowledged with the wrong id";
    }
    case Verb::kFrontier: {
      const JsonValue* points = v.Find("points");
      if (points == nullptr || !points->is_array() ||
          points->items().size() != 1) {
        return "frontier response without one point";
      }
      return points->items()[0].Render() == answers.frontier[req.ref][req.item]
                 ? ""
                 : "frontier point differs from the offline rendering";
    }
  }
  return "unknown verb";
}

}  // namespace perfbench
