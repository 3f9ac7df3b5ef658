#include "svc/service.h"

#include <gtest/gtest.h>

#include <string>

#include "core/leakage.h"
#include "core/measure_family.h"
#include "core/record_io.h"
#include "obs/log.h"
#include "obs/request.h"
#include "svc/json.h"

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
  auto expected = SetLeakageArgMax(*db, *reference, *weights, engine, &argmax);
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
        SetLeakageArgMax(*db, *reference, *weights, *engine, &argmax);
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
}

TEST(LeakageServiceTest, SetLeakReportsItsAnswerPath) {
  // With the index on (the default) set-leak answers off the materialized
  // index; with --no-index semantics every query goes to the scan. Both
  // paths are bit-identical, so only the path tag may differ.
  LeakageService indexed = MakeService();
  const std::string line = std::string(R"({"verb":"set-leak",)") +
                           "\"reference\":" + JsonQuote(kReference) + "}";
  JsonValue fast = Handle(indexed, line);
  ASSERT_TRUE(fast.GetBool("ok", false)) << fast.Render();
  EXPECT_EQ(fast.GetString("path"), "index");

  ServiceConfig config;
  config.enable_index = false;
  LeakageService scanning = MakeService(config);
  JsonValue slow = Handle(scanning, line);
  ASSERT_TRUE(slow.GetBool("ok", false)) << slow.Render();
  EXPECT_EQ(slow.GetString("path"), "scan");
  EXPECT_EQ(fast.GetNumber("leakage", -1.0), slow.GetNumber("leakage", -2.0));
  EXPECT_EQ(fast.GetNumber("argmax", -1.0), slow.GetNumber("argmax", -2.0));
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

TEST(LeakageServiceTest, SubscribeNeedsTheIndexAndValidatesItsArguments) {
  ServiceConfig config;
  config.enable_index = false;
  LeakageService disabled = MakeService(config);
  const std::string subscribe = std::string(R"({"verb":"subscribe",)") +
                                "\"reference\":" + JsonQuote(kReference) + "}";
  JsonValue refused = Handle(disabled, subscribe);
  EXPECT_FALSE(refused.GetBool("ok", true));
  EXPECT_NE(refused.GetString("error").find("--no-index"), std::string::npos);

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
  auto expected = SetLeakageArgMax(db, *p, WeightModel(), engine, &argmax);
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
  EXPECT_TRUE(index->GetBool("enabled", false));
  EXPECT_EQ(index->GetNumber("registered", -1.0), 1.0);
  // hit/fallback counters are process-global (other tests in this binary
  // also serve), so only demand they moved, not an exact value.
  EXPECT_GE(index->GetNumber("hits", -1.0), 1.0);
  EXPECT_GE(index->GetNumber("invalidations", -1.0), 0.0);
}

}  // namespace
}  // namespace infoleak::svc
