#include "svc/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/leakage.h"
#include "core/measure_family.h"
#include "core/record_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "persist/durable_store.h"
#include "svc/json.h"
#include "util/timer.h"

namespace infoleak::svc {
namespace {

constexpr const char* kDbCsv =
    "record,label,value,confidence\n"
    "0,N,Alice,1\n0,P,123,1\n"
    "1,N,Alice,1\n1,C,999,1\n"
    "2,N,Bob,1\n2,P,987,1\n";

constexpr const char* kReference =
    "{<N, Alice, 1>, <P, 123, 1>, <C, 999, 1>, <Z, 111, 1>}";

LeakageService MakeService(ServiceConfig config = {}) {
  auto db = LoadDatabaseCsv(kDbCsv);
  EXPECT_TRUE(db.ok());
  return LeakageService(RecordStore::FromDatabase(*db), std::move(config));
}

Request Req(const std::string& line) {
  auto parsed = ParseRequest(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

JsonValue Handle(LeakageService& service, const std::string& line) {
  auto response = ParseJson(service.Handle(Req(line)));
  EXPECT_TRUE(response.ok());
  return std::move(response).value();
}

/// A counter's value summed over every label set it is registered under.
uint64_t CounterTotal(std::string_view name) {
  uint64_t total = 0;
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

std::string AppendLine(const Record& record) {
  return std::string(R"({"verb":"append","record":)") +
         JsonQuote(FormatRecord(record)) + "}";
}

/// A present field of the wrong JSON type is invalid_argument naming the
/// field, never silently replaced by its default.
void ExpectWrongTypeRejected(LeakageService& service, const std::string& line,
                             const std::string& field) {
  JsonValue out = Handle(service, line);
  EXPECT_FALSE(out.GetBool("ok", true)) << line;
  EXPECT_EQ(out.GetString("code"), "invalid_argument") << out.Render();
  EXPECT_NE(out.GetString("error").find("\"" + field + "\""),
            std::string::npos)
      << out.Render();
}

TEST(LeakageServiceTest, PingPongs) {
  LeakageService service = MakeService();
  JsonValue out = Handle(service, R"({"verb":"ping","id":1})");
  EXPECT_TRUE(out.GetBool("ok", false));
  EXPECT_TRUE(out.GetBool("pong", false));
  EXPECT_DOUBLE_EQ(out.GetNumber("id", -1), 1.0);
}

TEST(LeakageServiceTest, SetLeakMatchesOfflineApiBitExactly) {
  // The serving path must answer exactly what the offline API computes on
  // the same store — same scan order, same accumulation, rendered with
  // round-trip precision.
  auto db = LoadDatabaseCsv(kDbCsv);
  ASSERT_TRUE(db.ok());
  auto reference = ParseRecord(kReference);
  ASSERT_TRUE(reference.ok());
  auto weights = WeightModel::Parse("");
  ASSERT_TRUE(weights.ok());
  AutoLeakage engine;
  std::ptrdiff_t argmax = -1;
  auto expected = SetLeakage(*db, *reference, *weights, engine, &argmax);
  ASSERT_TRUE(expected.ok());

  LeakageService service = MakeService();
  JsonValue out = Handle(service, std::string(R"({"verb":"set-leak",)") +
                                      "\"reference\":" + JsonQuote(kReference) +
                                      "}");
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  EXPECT_EQ(out.GetNumber("leakage", -1), *expected);  // exact, not approx
  EXPECT_EQ(out.GetNumber("argmax", -2), static_cast<double>(argmax));
}

TEST(LeakageServiceTest, RecordLeakByIdMatchesOfflineApi) {
  auto db = LoadDatabaseCsv(kDbCsv);
  ASSERT_TRUE(db.ok());
  auto reference = ParseRecord(kReference);
  ASSERT_TRUE(reference.ok());
  auto weights = WeightModel::Parse("");
  ASSERT_TRUE(weights.ok());
  AutoLeakage engine;
  auto expected = engine.RecordLeakage((*db)[1], *reference, *weights);
  ASSERT_TRUE(expected.ok());

  LeakageService service = MakeService();
  JsonValue out = Handle(service, std::string(R"({"verb":"leak",)") +
                                      "\"record_id\":1,\"reference\":" +
                                      JsonQuote(kReference) + "}");
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  EXPECT_EQ(out.GetNumber("leakage", -1), *expected);
}

TEST(LeakageServiceTest, InlineRecordLeak) {
  LeakageService service = MakeService();
  JsonValue out = Handle(
      service, std::string(R"({"verb":"leak","record":)") +
                   JsonQuote("{<N, Alice, 1>, <P, 123, 1>}") +
                   ",\"reference\":" + JsonQuote(kReference) + "}");
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  EXPECT_GT(out.GetNumber("leakage", -1), 0.0);
}

TEST(LeakageServiceTest, AppendGrowsStoreAndServesNewRecord) {
  LeakageService service = MakeService();
  JsonValue out = Handle(service,
                         std::string(R"({"verb":"append","record":)") +
                             JsonQuote("{<N, Carol, 0.9>, <P, 555, 1>}") + "}");
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  EXPECT_DOUBLE_EQ(out.GetNumber("appended", -1), 3.0);
  EXPECT_DOUBLE_EQ(out.GetNumber("records", -1), 4.0);

  JsonValue leak = Handle(
      service, std::string(R"({"verb":"leak","record_id":3,"reference":)") +
                   JsonQuote("{<N, Carol, 1>, <P, 555, 1>}") + "}");
  EXPECT_TRUE(leak.GetBool("ok", false)) << leak.Render();
}

TEST(LeakageServiceTest, ResolveReturnsDossierAndMembers) {
  LeakageService service = MakeService();
  JsonValue out = Handle(service,
                         std::string(R"({"verb":"resolve","query":)") +
                             JsonQuote("{<N, Alice>}") + "}");
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  EXPECT_DOUBLE_EQ(out.GetNumber("members", -1), 2.0);
  ASSERT_NE(out.Find("ids"), nullptr);
  EXPECT_EQ(out.Find("ids")->items().size(), 2u);
}

TEST(LeakageServiceTest, StatsReportsStoreAndCache) {
  LeakageService service = MakeService();
  Handle(service, std::string(R"({"verb":"set-leak","reference":)") +
                      JsonQuote(kReference) + "}");
  JsonValue out = Handle(service, R"({"verb":"stats"})");
  ASSERT_TRUE(out.GetBool("ok", false));
  EXPECT_DOUBLE_EQ(out.GetNumber("records", -1), 3.0);
  EXPECT_DOUBLE_EQ(out.GetNumber("cached_references", -1), 1.0);
}

TEST(LeakageServiceTest, ReferenceCacheInternsAndEvictsFifo) {
  ServiceConfig config;
  config.max_cached_references = 2;
  LeakageService service = MakeService(config);
  auto query = [&](const std::string& ref) {
    Handle(service, std::string(R"({"verb":"set-leak","reference":)") +
                        JsonQuote(ref) + "}");
  };
  query("{<N, Alice, 1>}");
  query("{<N, Alice, 1>}");  // hit: same spelling
  EXPECT_EQ(service.cached_references(), 1u);
  query("{<N, Bob, 1>}");
  query("{<P, 123, 1>}");  // evicts the Alice entry (FIFO)
  EXPECT_EQ(service.cached_references(), 2u);
}

TEST(LeakageServiceTest, ErrorsUseWireCodes) {
  LeakageService service = MakeService();
  std::string code;
  service.Handle(Req(R"({"verb":"warp"})"), {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  service.Handle(Req(R"({"verb":"leak","reference":"{<N, Alice>}","record_id":99})"),
                 {}, &code);
  EXPECT_EQ(code, "not_found");
  service.Handle(Req(R"({"verb":"leak","reference":"not a record"})"), {},
                 &code);
  EXPECT_EQ(code, "invalid_argument");
  service.Handle(Req(R"({"verb":"append","record":"{}"})"), {}, &code);
  EXPECT_EQ(code, "invalid_argument");
}

// The verb label comes from the wire, so it is clamped: invented verbs all
// count under verb="other" and never register a series of their own.
TEST(LeakageServiceTest, InventedVerbsCountAsOther) {
  LeakageService service = MakeService();
  obs::Counter& other = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_svc_requests_total", {{"verb", "other"}});
  const uint64_t before = other.Value();
  for (const char* verb : {"warp1", "warp2", "warp3"}) {
    service.Handle(Req(std::string(R"({"verb":")") + verb + R"("})"));
  }
  EXPECT_EQ(other.Value() - before, 3u);
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name != "infoleak_svc_requests_total") continue;
    for (const auto& [key, value] : c.labels) {
      EXPECT_NE(value.rfind("warp", 0), 0u) << key << "=" << value;
    }
  }
}

// `stats` reports one request count per label of the clamped vocabulary,
// so the invented verbs counted under verb="other" show up there too.
TEST(LeakageServiceTest, StatsRequestsCoverTheWholeVerbVocabulary) {
  LeakageService service = MakeService();
  auto requests = [&] {
    JsonValue stats = Handle(service, R"({"verb":"stats"})");
    const JsonValue* counts = stats.Find("requests");
    EXPECT_NE(counts, nullptr) << stats.Render();
    return counts == nullptr ? JsonValue::Object() : *counts;
  };
  const JsonValue before = requests();
  for (std::string_view label : obs::kVerbLabels) {
    EXPECT_NE(before.Find(label), nullptr) << label;
  }
  service.Handle(Req(R"({"verb":"warp1"})"));
  service.Handle(Req(R"({"verb":"warp2"})"));
  const JsonValue after = requests();
  EXPECT_DOUBLE_EQ(after.GetNumber("other", -1),
                   before.GetNumber("other", -1) + 2.0);
  EXPECT_EQ(after.Find("warp1"), nullptr);
}

// `compact` needs a durable store: on an in-memory server the request is
// well formed but cannot run in this mode, which is no server bug.
TEST(LeakageServiceTest, InMemoryCompactIsFailedPrecondition) {
  LeakageService service = MakeService();
  JsonValue out = Handle(service, R"({"verb":"compact"})");
  EXPECT_FALSE(out.GetBool("ok", true));
  EXPECT_EQ(out.GetString("code"), "failed_precondition") << out.Render();
}

// A naive evaluation past the engine's record-size cap exceeds a limit of
// the request itself; `overloaded` (retry later) would promise a retry
// that can never succeed.
TEST(LeakageServiceTest, NaiveOverCapLeakIsResourceExhausted) {
  LeakageService service = MakeService();
  Record wide;
  for (int i = 0; i < 30; ++i) {
    wide.Insert(Attribute("A" + std::to_string(i), "v", 1.0));
  }
  JsonValue out = Handle(
      service, std::string(R"({"verb":"leak","engine":"naive","record":)") +
                   JsonQuote(FormatRecord(wide)) +
                   ",\"reference\":" + JsonQuote(kReference) + "}");
  EXPECT_FALSE(out.GetBool("ok", true));
  EXPECT_EQ(out.GetString("code"), "resource_exhausted") << out.Render();
}

TEST(LeakageServiceTest, WrongTypeWeightsIsRejected) {
  LeakageService service = MakeService();
  const std::string tail =
      R"(,"weights":5,"reference":)" + JsonQuote(kReference) + "}";
  ExpectWrongTypeRejected(
      service, R"({"verb":"leak","record_id":0)" + tail, "weights");
  ExpectWrongTypeRejected(service, R"({"verb":"set-leak")" + tail, "weights");
  ExpectWrongTypeRejected(service, R"({"verb":"subscribe")" + tail,
                          "weights");
}

TEST(LeakageServiceTest, WrongTypeEngineIsRejected) {
  LeakageService service = MakeService();
  const std::string tail =
      R"(,"engine":5,"reference":)" + JsonQuote(kReference) + "}";
  ExpectWrongTypeRejected(
      service, R"({"verb":"leak","record_id":0)" + tail, "engine");
  ExpectWrongTypeRejected(service, R"({"verb":"set-leak")" + tail, "engine");
  ExpectWrongTypeRejected(service, R"({"verb":"subscribe")" + tail, "engine");
}

TEST(LeakageServiceTest, WrongTypeWaitMsIsRejected) {
  LeakageService service = MakeService();
  ExpectWrongTypeRejected(service,
                          R"({"verb":"subscribe","wait_ms":"abc","reference":)" +
                              JsonQuote(kReference) + "}",
                          "wait_ms");
}

TEST(LeakageServiceTest, WrongTypeMinMicrosIsRejected) {
  LeakageService service = MakeService();
  ExpectWrongTypeRejected(service, R"({"verb":"tail","min_micros":"5"})",
                          "min_micros");
}

TEST(LeakageServiceTest, WrongTypeSlowIsRejected) {
  LeakageService service = MakeService();
  ExpectWrongTypeRejected(service, R"({"verb":"tail","slow":1})", "slow");
}

TEST(LeakageServiceTest, WrongTypeBurnMsIsRejected) {
  LeakageService service = MakeService();
  ExpectWrongTypeRejected(service, R"({"verb":"ping","burn_ms":"10"})",
                          "burn_ms");
}

// The "measure" field follows the closed-vocabulary wire rule: unknown
// names, wrong types, and contradictory engine selections are
// invalid_argument on the wire — never a silent fall-back to the default
// measure.
TEST(LeakageServiceTest, MeasureFieldUsesClosedVocabulary) {
  LeakageService service = MakeService();
  std::string code;
  const std::string ref = "\"reference\":" + JsonQuote(kReference);
  service.Handle(
      Req(R"({"verb":"set-leak",)" + ref + R"(,"measure":"renyi"})"), {},
      &code);
  EXPECT_EQ(code, "invalid_argument");
  service.Handle(Req(R"({"verb":"set-leak",)" + ref + R"(,"measure":3})"),
                 {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  // A non-default measure has exactly one engine; naming another is a
  // contradiction, not a preference.
  service.Handle(Req(R"({"verb":"set-leak",)" + ref +
                     R"(,"measure":"pml","engine":"exact"})"),
                 {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  // The default measure spelled out composes with an engine choice.
  code.clear();
  service.Handle(Req(R"({"verb":"set-leak",)" + ref +
                     R"(,"measure":"expected-f1","engine":"exact"})"),
                 {}, &code);
  EXPECT_TRUE(code.empty()) << code;
}

TEST(LeakageServiceTest, MeasureSetLeakMatchesOfflineApiBitExactly) {
  auto db = LoadDatabaseCsv(kDbCsv);
  ASSERT_TRUE(db.ok());
  auto reference = ParseRecord(kReference);
  ASSERT_TRUE(reference.ok());
  auto weights = WeightModel::Parse("");
  ASSERT_TRUE(weights.ok());
  for (Measure m : {Measure::kPml, Measure::kGuesswork, Measure::kUnder,
                    Measure::kOver}) {
    const LeakageEngine* engine = MeasureEngineSingleton(m);
    ASSERT_NE(engine, nullptr);
    std::ptrdiff_t argmax = -1;
    auto expected =
        SetLeakage(*db, *reference, *weights, *engine, &argmax);
    ASSERT_TRUE(expected.ok()) << engine->name();

    LeakageService service = MakeService();
    JsonValue out = Handle(
        service, std::string(R"({"verb":"set-leak",)") +
                     "\"reference\":" + JsonQuote(kReference) +
                     ",\"measure\":\"" + std::string(engine->name()) + "\"}");
    ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
    EXPECT_EQ(out.GetNumber("leakage", -1), *expected) << engine->name();
    EXPECT_EQ(out.GetNumber("argmax", -2), static_cast<double>(argmax))
        << engine->name();
  }
}

// Indexes are keyed by engine identity, so a measure query after a default
// query on the same reference must answer under its own engine — a stale
// default-measure value here would be silent data corruption. The appended
// partial-confidence record makes the two answers provably different.
TEST(LeakageServiceTest, MeasureSetLeakNeverServesStaleDefaultAnswers) {
  LeakageService service = MakeService();
  JsonValue appended = Handle(
      service,
      std::string(R"({"verb":"append","record":)") +
          JsonQuote("{<N, Alice, 0.5>, <P, 123, 0.5>, <C, 999, 0.5>}") + "}");
  ASSERT_TRUE(appended.GetBool("ok", false)) << appended.Render();

  const std::string ref = "\"reference\":" + JsonQuote(kReference);
  // Warm the default-measure index first, then query pml on the same
  // reference; repeat the measure query so it can land on its own index.
  JsonValue expected =
      Handle(service, R"({"verb":"set-leak",)" + ref + "}");
  ASSERT_TRUE(expected.GetBool("ok", false)) << expected.Render();
  for (int i = 0; i < 2; ++i) {
    JsonValue pml = Handle(service, R"({"verb":"set-leak",)" + ref +
                                        R"(,"measure":"pml"})");
    ASSERT_TRUE(pml.GetBool("ok", false)) << pml.Render();
    EXPECT_GT(pml.GetNumber("leakage", -1),
              expected.GetNumber("leakage", 2.0))
        << "pml answer did not exceed the expected-F1 answer: stale index?";
    EXPECT_EQ(pml.GetNumber("argmax", -2), 3.0);  // the partial record wins
  }
}

TEST(LeakageServiceTest, CancelHookAbortsWithDeadlineExceeded) {
  LeakageService service = MakeService();
  std::string code;
  const std::string response = service.Handle(
      Req(std::string(R"({"verb":"set-leak","reference":)") +
          JsonQuote(kReference) + "}"),
      [] { return true; },  // already expired
      &code);
  EXPECT_EQ(code, "deadline_exceeded") << response;
  auto parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetBool("ok", true));
  EXPECT_EQ(parsed->GetString("code"), "deadline_exceeded");
}

TEST(LeakageServiceTest, StatsReportsEventsSlowRingAndBuildInfo) {
  obs::EventLog::Global().Clear();
  LeakageService service = MakeService();
  Handle(service, std::string(R"({"verb":"set-leak","reference":)") +
                      JsonQuote(kReference) + "}");
  JsonValue out = Handle(service, R"({"verb":"stats"})");
  ASSERT_TRUE(out.GetBool("ok", false));
  const JsonValue* events = out.Find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->GetNumber("recorded", -1), 1.0);
  const JsonValue* slow = out.Find("slow");
  ASSERT_NE(slow, nullptr);
  ASSERT_TRUE(slow->is_array());
  ASSERT_FALSE(slow->items().empty());
  EXPECT_GT(slow->items()[0].GetNumber("total_us", 0.0), 0.0);
  const JsonValue* build = out.Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->GetString("version").empty());
  EXPECT_FALSE(build->GetString("simd").empty());
}

TEST(LeakageServiceTest, HandleEmitsExactlyOneEventPerRequest) {
  auto& log = obs::EventLog::Global();
  log.Clear();
  LeakageService service = MakeService();
  Handle(service, R"({"verb":"ping"})");
  Handle(service, std::string(R"({"verb":"set-leak","reference":)") +
                      JsonQuote(kReference) + "}");
  std::string code;
  service.Handle(Req(R"({"verb":"warp"})"), {}, &code);  // error path too
  EXPECT_EQ(log.recorded(), 3u);
  const auto events = log.Recent(10);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].verb, "ping");
  EXPECT_EQ(events[0].outcome, "ok");
  EXPECT_EQ(events[1].verb, "set-leak");
  EXPECT_EQ(events[1].outcome, "ok");
  EXPECT_EQ(events[2].verb, "warp");
  EXPECT_EQ(events[2].outcome, "invalid_argument");
  // Ids are process-unique and increasing.
  EXPECT_LT(events[0].id, events[1].id);
  EXPECT_LT(events[1].id, events[2].id);
  // A caller-provided context transfers emission ownership: the service
  // must fill it in without recording it.
  obs::RequestContext ctx;
  service.Handle(Req(R"({"verb":"ping"})"), {}, nullptr, &ctx);
  EXPECT_EQ(log.recorded(), 3u);
  // ...but it still charges the phases it ran to the caller's context.
  EXPECT_GT(ctx.phase_nanos(obs::Phase::kSerialize), 0u);
}

TEST(LeakageServiceTest, SetLeakEventCarriesPhaseBreakdown) {
  auto& log = obs::EventLog::Global();
  log.Clear();
  LeakageService service = MakeService();
  Handle(service, std::string(R"({"verb":"set-leak","reference":)") +
                      JsonQuote(kReference) + "}");
  const auto events = log.Recent(1);
  ASSERT_EQ(events.size(), 1u);
  const obs::RequestEvent& event = events[0];
  EXPECT_EQ(event.verb, "set-leak");
  EXPECT_EQ(event.outcome, "ok");
  EXPECT_EQ(event.records_scanned, 3u);  // the whole store was scanned
  // Parse (reference preparation), eval (the scan), and serialize
  // (rendering) all ran, so each must carry time; the phase sum never
  // exceeds the end-to-end total.
  EXPECT_GT(event.phase_nanos[static_cast<int>(obs::Phase::kParse)], 0u);
  EXPECT_GT(event.phase_nanos[static_cast<int>(obs::Phase::kEval)], 0u);
  EXPECT_GT(event.phase_nanos[static_cast<int>(obs::Phase::kSerialize)], 0u);
  uint64_t sum = 0;
  for (uint64_t nanos : event.phase_nanos) sum += nanos;
  EXPECT_LE(sum, event.total_nanos);
}

TEST(LeakageServiceTest, TailReturnsRecentEventsAndHonorsFilters) {
  auto& log = obs::EventLog::Global();
  log.Clear();
  LeakageService service = MakeService();
  Handle(service, R"({"verb":"ping"})");
  Handle(service, std::string(R"({"verb":"set-leak","reference":)") +
                      JsonQuote(kReference) + "}");
  JsonValue out = Handle(service, R"({"verb":"tail"})");
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  const JsonValue* events = out.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // The tail request itself finishes only after its response is built, so
  // it never appears in its own window.
  ASSERT_EQ(events->items().size(), 2u);
  const JsonValue& ping = events->items()[0];
  const JsonValue& setleak = events->items()[1];
  EXPECT_EQ(ping.GetString("verb"), "ping");
  EXPECT_EQ(setleak.GetString("verb"), "set-leak");
  EXPECT_EQ(setleak.GetString("outcome"), "ok");
  EXPECT_GT(setleak.GetNumber("total_us", 0.0), 0.0);
  const JsonValue* phases = setleak.Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_GT(phases->GetNumber("eval", 0.0), 0.0);
  // Cursor filter: only events past the ping's id.
  const double ping_id = ping.GetNumber("id", 0.0);
  JsonValue after =
      Handle(service, std::string(R"({"verb":"tail","after_id":)") +
                          JsonNumber(ping_id) + "}");
  const JsonValue* after_events = after.Find("events");
  ASSERT_NE(after_events, nullptr);
  // The set-leak plus the first tail request (which finished by now).
  ASSERT_GE(after_events->items().size(), 2u);
  EXPECT_EQ(after_events->items()[0].GetString("verb"), "set-leak");
  // Slow view: the worst-retained ring renders through the same shape.
  JsonValue slow = Handle(service, R"({"verb":"tail","slow":true,"count":1})");
  const JsonValue* slow_events = slow.Find("events");
  ASSERT_NE(slow_events, nullptr);
  ASSERT_EQ(slow_events->items().size(), 1u);
}

TEST(LeakageServiceTest, TailValidatesItsArguments) {
  LeakageService service = MakeService();
  std::string code;
  service.Handle(Req(R"({"verb":"tail","count":0})"), {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  service.Handle(Req(R"({"verb":"tail","count":1001})"), {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  service.Handle(Req(R"({"verb":"tail","count":2.5})"), {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  service.Handle(Req(R"({"verb":"tail","min_micros":-1})"), {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  // The slow ring is latency-ordered: a cursor or a latency floor would be
  // silently ignored there, so either one is refused, naming the field.
  for (const char* field : {"after_id", "min_micros"}) {
    const std::string response = service.Handle(
        Req(std::string(R"({"verb":"tail","slow":true,")") + field +
            R"(":0})"),
        {}, &code);
    EXPECT_EQ(code, "invalid_argument") << response;
    EXPECT_NE(response.find(field), std::string::npos) << response;
  }
  // Both still filter the recent view, which slow:false selects.
  service.Handle(
      Req(R"({"verb":"tail","slow":false,"after_id":1,"min_micros":5})"), {},
      &code);
  EXPECT_TRUE(code.empty()) << code;
}

TEST(LeakageServiceTest, SetLeakReportsItsAnswerPath) {
  // set-leak has one path: the materialized index, which answers exactly
  // what the library's scan computes.
  LeakageService service = MakeService();
  const std::string line = std::string(R"({"verb":"set-leak",)") +
                           "\"reference\":" + JsonQuote(kReference) + "}";
  JsonValue out = Handle(service, line);
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  EXPECT_EQ(out.GetString("path"), "index");

  auto db = LoadDatabaseCsv(kDbCsv);
  ASSERT_TRUE(db.ok());
  auto reference = ParseRecord(kReference);
  ASSERT_TRUE(reference.ok());
  AutoLeakage engine;
  std::ptrdiff_t argmax = -1;
  auto expected = SetLeakage(*db, *reference, WeightModel(), engine, &argmax);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(out.GetNumber("leakage", -1.0), *expected);
  EXPECT_EQ(out.GetNumber("argmax", -1.0), static_cast<double>(argmax));
}

TEST(LeakageServiceTest, PoisonedIndexServesTheScanError) {
  // C=2 makes stored record 1 ({N, C}) non-uniform, so exact refuses it:
  // the index poisons there, and every later set-leak returns the error a
  // cold scan reports, before and after more appends.
  LeakageService service = MakeService();
  const char* reference = "{<N, Alice, 1>, <P, 123, 1>}";
  const std::string line =
      std::string(R"({"verb":"set-leak","engine":"exact","weights":"C=2",)") +
      "\"reference\":" + JsonQuote(reference) + "}";
  auto fallbacks = [&] {
    return Handle(service, R"({"verb":"stats"})")
        .Find("index")
        ->GetNumber("fallbacks", -1.0);
  };
  const double fallbacks_before = fallbacks();

  auto db = LoadDatabaseCsv(kDbCsv);
  ASSERT_TRUE(db.ok());
  auto p = ParseRecord(reference);
  ASSERT_TRUE(p.ok());
  auto weights = WeightModel::Parse("C=2");
  ASSERT_TRUE(weights.ok());
  ExactLeakage exact;
  for (int round = 0; round < 2; ++round) {
    const auto want = SetLeakage(*db, *p, *weights, exact);
    ASSERT_FALSE(want.ok());
    JsonValue out = Handle(service, line);
    EXPECT_FALSE(out.GetBool("ok", true)) << out.Render();
    EXPECT_EQ(out.GetString("code"), WireCode(want.status()));
    EXPECT_EQ(out.GetString("error"), want.status().message());

    const Record more{{"N", "Alice", 0.5}, {"P", "123", 1.0}};
    Handle(service, std::string(R"({"verb":"append","record":)") +
                        JsonQuote(FormatRecord(more)) + "}");
    db->Add(more);
  }
  EXPECT_EQ(fallbacks(), fallbacks_before + 2.0);
}

TEST(LeakageServiceTest, SubscribeStreamsAppendDeltasWithCursor) {
  LeakageService service = MakeService();
  const std::string subscribe = std::string(R"({"verb":"subscribe",)") +
                                "\"reference\":" + JsonQuote(kReference) + "}";
  // The first call primes the index over the preloaded store: one delta
  // event per record, cursor at the newest sequence.
  JsonValue first = Handle(service, subscribe);
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Render();
  const JsonValue* events = first.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(events->items().size(), 3u);
  EXPECT_EQ(first.GetNumber("cursor", -1.0), 3.0);
  EXPECT_EQ(first.GetNumber("covered", -1.0), 3.0);
  EXPECT_EQ(first.GetNumber("dropped", -1.0), 0.0);

  // An append published through the feed shows up after the cursor without
  // any intervening query.
  Handle(service, R"({"verb":"append","record":"{<N, Alice, 1>}"})");
  JsonValue next = Handle(
      service, std::string(R"({"verb":"subscribe","after_seq":3,)") +
                   "\"reference\":" + JsonQuote(kReference) + "}");
  ASSERT_TRUE(next.GetBool("ok", false)) << next.Render();
  const JsonValue* delta = next.Find("events");
  ASSERT_NE(delta, nullptr);
  ASSERT_EQ(delta->items().size(), 1u);
  EXPECT_EQ(delta->items()[0].GetNumber("seq", -1.0), 4.0);
  EXPECT_EQ(delta->items()[0].GetNumber("record_id", -1.0), 3.0);
  EXPECT_EQ(next.GetNumber("cursor", -1.0), 4.0);
}

// A long-poll that finds no event sleeps until the feed counts an append
// past the sequence it read before looking; an append landing between the
// look and the wait must still wake it, long before `wait_ms` runs out.
TEST(LeakageServiceTest, SubscribeLongPollWakesOnAppend) {
  LeakageService service = MakeService();
  const std::string ref = "\"reference\":" + JsonQuote(kReference) + "}";
  JsonValue primed = Handle(service, R"({"verb":"subscribe",)" + ref);
  ASSERT_TRUE(primed.GetBool("ok", false)) << primed.Render();
  ASSERT_EQ(primed.GetNumber("cursor", -1.0), 3.0);

  std::thread appender([&service] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Handle(service, R"({"verb":"append","record":"{<N, Alice, 1>}"})");
  });
  WallTimer timer;
  JsonValue polled = Handle(
      service, R"({"verb":"subscribe","after_seq":3,"wait_ms":5000,)" + ref);
  const double waited_ms = timer.ElapsedMillis();
  appender.join();
  ASSERT_TRUE(polled.GetBool("ok", false)) << polled.Render();
  const JsonValue* events = polled.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 1u) << polled.Render();
  EXPECT_EQ(events->items()[0].GetNumber("seq", -1.0), 4.0);
  EXPECT_LT(waited_ms, 2000.0);
}

TEST(LeakageServiceTest, SubscribeNeedsTheIndexAndValidatesItsArguments) {
  LeakageService service = MakeService();
  std::string code;
  service.Handle(Req(std::string(R"({"verb":"subscribe","max_events":0,)") +
                     "\"reference\":" + JsonQuote(kReference) + "}"),
                 {}, &code);
  EXPECT_EQ(code, "invalid_argument");
  service.Handle(Req(std::string(R"({"verb":"subscribe","wait_ms":20000,)") +
                     "\"reference\":" + JsonQuote(kReference) + "}"),
                 {}, &code);
  EXPECT_EQ(code, "invalid_argument");
}

TEST(LeakageServiceTest, IndexRebuildsAfterCacheEviction) {
  // An index lives inside its prepared-cache entry, so FIFO eviction kills
  // it; re-querying the evicted reference must mint a fresh entry whose
  // rebuilt index answers identically, still off the index path.
  ServiceConfig config;
  config.max_cached_references = 1;
  LeakageService service = MakeService(config);
  const std::string line_a = std::string(R"({"verb":"set-leak",)") +
                             "\"reference\":" + JsonQuote(kReference) + "}";
  const std::string line_b =
      R"({"verb":"set-leak","reference":"{<N, Bob, 1>, <P, 987, 1>}"})";
  JsonValue first = Handle(service, line_a);
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Render();
  EXPECT_EQ(first.GetString("path"), "index");

  JsonValue other = Handle(service, line_b);  // evicts A's entry and index
  ASSERT_TRUE(other.GetBool("ok", false)) << other.Render();

  JsonValue again = Handle(service, line_a);
  ASSERT_TRUE(again.GetBool("ok", false)) << again.Render();
  EXPECT_EQ(again.GetString("path"), "index");
  EXPECT_EQ(again.GetNumber("leakage", -1.0), first.GetNumber("leakage", -2.0));
  EXPECT_EQ(again.GetNumber("argmax", -1.0), first.GetNumber("argmax", -2.0));

  // The feed prunes the dead sink: only the live entry's index remains.
  JsonValue stats = Handle(service, R"({"verb":"stats"})");
  const JsonValue* index = stats.Find("index");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->GetNumber("registered", -1.0), 1.0);
}

TEST(LeakageServiceTest, FreshReferenceOnALargeStoreAnswersFromTheIndex) {
  // A first query's index starts more than 4,096 records behind the store;
  // it catches up inline and answers off the index, never the scan.
  Database db;
  for (int i = 0; i < 5000; ++i) {
    const std::string n = std::to_string(i % 97);
    db.Add(Record{{"N", "name" + n, 0.25 + 0.5 * ((i % 3) / 2.0)},
                  {"P", "p" + std::to_string(i % 13), 0.5},
                  {"C", "c" + std::to_string(i % 7), 1.0}});
  }
  LeakageService service(RecordStore::FromDatabase(db));
  const double fallbacks_before =
      Handle(service, R"({"verb":"stats"})").Find("index")->GetNumber(
          "fallbacks", -1.0);
  const char* reference = "{<N, name5, 1>, <P, p5, 1>, <C, c5, 1>}";
  JsonValue out = Handle(service, std::string(R"({"verb":"set-leak",)") +
                                      "\"reference\":" + JsonQuote(reference) +
                                      "}");
  ASSERT_TRUE(out.GetBool("ok", false)) << out.Render();
  EXPECT_EQ(out.GetString("path"), "index");
  EXPECT_EQ(out.GetNumber("records", -1.0), 5000.0);

  auto p = ParseRecord(reference);
  ASSERT_TRUE(p.ok());
  AutoLeakage engine;
  std::ptrdiff_t argmax = -1;
  auto expected = SetLeakage(db, *p, WeightModel(), engine, &argmax);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(out.GetNumber("leakage", -1.0), *expected);
  EXPECT_EQ(out.GetNumber("argmax", -2.0), static_cast<double>(argmax));

  JsonValue stats = Handle(service, R"({"verb":"stats"})");
  EXPECT_EQ(stats.Find("index")->GetNumber("fallbacks", -2.0),
            fallbacks_before);
}

TEST(LeakageServiceTest, StatsReportsIndexAccounting) {
  LeakageService service = MakeService();
  const std::string line = std::string(R"({"verb":"set-leak",)") +
                           "\"reference\":" + JsonQuote(kReference) + "}";
  Handle(service, line);
  JsonValue stats = Handle(service, R"({"verb":"stats"})");
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Render();
  const JsonValue* index = stats.Find("index");
  ASSERT_NE(index, nullptr) << stats.Render();
  EXPECT_EQ(index->GetNumber("registered", -1.0), 1.0);
  // hit/fallback counters are process-global (other tests in this binary
  // also serve), so only demand they moved, not an exact value.
  EXPECT_GE(index->GetNumber("hits", -1.0), 1.0);
}

// Compaction rewrites the snapshot and resets the WAL but changes no stored
// record, so the indexes that summarize the records are left alone: the
// same answers without one evaluation or bank build, and no event replayed
// to a subscriber, whose cursor keeps counting from where it was.
TEST(LeakageServiceTest, CompactLeavesIndexesAndEventsUntouched) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "infoleak-svc-compact-test").string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  persist::DurableStore::Options options;
  options.fsync = persist::FsyncMode::kNever;
  auto durable = persist::DurableStore::Open(dir, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  {
    LeakageService service(durable->get());
    for (int i = 0; i < 40; ++i) {
      const Record r{{"N", "Alice", 0.25 + 0.5 * (i % 2)},
                     {"P", std::to_string(120 + i % 5), 1.0},
                     {"C", "999", 0.5}};
      ASSERT_TRUE(Handle(service, AppendLine(r)).GetBool("ok", false));
    }
    const std::string ref = "\"reference\":" + JsonQuote(kReference) + "}";
    std::vector<std::string> lines, before;
    for (const char* engine : {"auto", "exact", "approx"}) {
      lines.push_back(std::string(R"({"verb":"set-leak","engine":")") +
                      engine + "\"," + ref);
      before.push_back(service.Handle(Req(lines.back())));
      ASSERT_NE(before.back().find("\"ok\":true"), std::string::npos)
          << before.back();
    }
    JsonValue primed = Handle(service, R"({"verb":"subscribe",)" + ref);
    const double cursor = primed.GetNumber("cursor", -1.0);
    ASSERT_EQ(cursor, 40.0) << primed.Render();
    const uint64_t evals = CounterTotal("infoleak_leakage_evaluations_total");
    const uint64_t builds = CounterTotal("infoleak_column_bank_builds_total");

    JsonValue compacted = Handle(service, R"({"verb":"compact"})");
    ASSERT_TRUE(compacted.GetBool("ok", false)) << compacted.Render();
    EXPECT_EQ(compacted.GetNumber("records", -1.0), 40.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(service.Handle(Req(lines[i])), before[i]);
    }
    EXPECT_EQ(CounterTotal("infoleak_leakage_evaluations_total"), evals);
    EXPECT_EQ(CounterTotal("infoleak_column_bank_builds_total"), builds);

    const std::string after_cursor =
        R"({"verb":"subscribe","after_seq":40,)" + ref;
    JsonValue quiet = Handle(service, after_cursor);
    ASSERT_TRUE(quiet.GetBool("ok", false)) << quiet.Render();
    EXPECT_TRUE(quiet.Find("events")->items().empty()) << quiet.Render();

    ASSERT_TRUE(Handle(service, AppendLine(Record{{"N", "Alice", 1.0}}))
                    .GetBool("ok", false));
    JsonValue next = Handle(service, after_cursor);
    const JsonValue* events = next.Find("events");
    ASSERT_NE(events, nullptr) << next.Render();
    ASSERT_EQ(events->items().size(), 1u) << next.Render();
    EXPECT_EQ(events->items()[0].GetNumber("seq", -1.0), cursor + 1.0);
  }
  durable->reset();
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace infoleak::svc
