#include "svc/service.h"

#include <cmath>

#include "apps/frontier.h"
#include "core/kernels.h"
#include "core/measure_family.h"
#include "core/record_io.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "persist/durable_store.h"
#include "util/timer.h"

namespace infoleak::svc {
namespace {

obs::Counter& VerbCounter(const std::string& verb) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_svc_requests_total", {{"verb", verb}},
      "Service requests dispatched, by verb");
}

/// Span names must have static lifetime (the trace recorder keeps the
/// view), so verbs map onto literals.
std::string_view SpanName(const std::string& verb) {
  if (verb == "ping") return "svc/ping";
  if (verb == "append") return "svc/append";
  if (verb == "leak") return "svc/leak";
  if (verb == "set-leak") return "svc/set-leak";
  if (verb == "resolve") return "svc/resolve";
  if (verb == "subscribe") return "svc/subscribe";
  if (verb == "compact") return "svc/compact";
  if (verb == "stats") return "svc/stats";
  if (verb == "tail") return "svc/tail";
  if (verb == "frontier") return "svc/frontier";
  return "svc/unknown";
}

obs::Counter& IndexCounter(const char* result) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_inc_index_queries_total", {{"result", result}},
      "Index-backed set-leak attempts, by outcome (hit = answered from the "
      "materialized index, fallback = fell back to a full scan)");
}

/// One event-log entry as a response-embeddable JSON object — the same
/// schema as obs::RenderEventJsonl (durations in microseconds, zero phases
/// omitted), built through the wire JSON model so it nests in a response.
JsonValue EventJson(const obs::RequestEvent& event) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(static_cast<double>(event.id)));
  v.Set("verb", JsonValue::Str(event.verb));
  v.Set("outcome", JsonValue::Str(event.outcome));
  v.Set("total_us",
        JsonValue::Number(static_cast<double>(event.total_nanos) / 1000.0));
  JsonValue phases = JsonValue::Object();
  for (int i = 0; i < obs::kNumPhases; ++i) {
    if (event.phase_nanos[i] == 0) continue;
    phases.Set(std::string(obs::PhaseName(static_cast<obs::Phase>(i))),
               JsonValue::Number(static_cast<double>(event.phase_nanos[i]) /
                                 1000.0));
  }
  v.Set("phases", std::move(phases));
  v.Set("records",
        JsonValue::Number(static_cast<double>(event.records_scanned)));
  if (!event.kernel.empty()) {
    v.Set("kernel", JsonValue::Str(std::string(event.kernel)));
  }
  v.Set("bytes_in", JsonValue::Number(static_cast<double>(event.bytes_in)));
  v.Set("bytes_out", JsonValue::Number(static_cast<double>(event.bytes_out)));
  if (event.deadline_nanos != 0) {
    v.Set("deadline_us",
          JsonValue::Number(static_cast<double>(event.deadline_nanos) /
                            1000.0));
  }
  return v;
}

/// Extracts an optional array of non-negative integers ("ks": [2, 5]);
/// an absent field yields `fallback`, a malformed one InvalidArgument.
Result<std::vector<std::size_t>> GetSizeArray(const JsonValue& body,
                                              std::string_view key,
                                              std::vector<std::size_t> fallback) {
  const JsonValue* v = body.Find(key);
  if (v == nullptr) return fallback;
  if (v->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("field \"" + std::string(key) +
                                   "\" must be an array");
  }
  std::vector<std::size_t> values;
  for (const JsonValue& item : v->items()) {
    if (!item.is_number() || item.as_number() < 0 ||
        item.as_number() != std::floor(item.as_number())) {
      return Status::InvalidArgument(
          "field \"" + std::string(key) +
          "\" must contain non-negative integers");
    }
    values.push_back(static_cast<std::size_t>(item.as_number()));
  }
  return values;
}

Result<std::vector<double>> GetNumberArray(const JsonValue& body,
                                           std::string_view key,
                                           std::vector<double> fallback) {
  const JsonValue* v = body.Find(key);
  if (v == nullptr) return fallback;
  if (v->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("field \"" + std::string(key) +
                                   "\" must be an array");
  }
  std::vector<double> values;
  for (const JsonValue& item : v->items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument("field \"" + std::string(key) +
                                     "\" must contain numbers");
    }
    values.push_back(item.as_number());
  }
  return values;
}

/// Extracts a non-negative integral field; `required` distinguishes a
/// missing field from a malformed one.
Result<long long> GetIndex(const JsonValue& body, std::string_view key) {
  const JsonValue* v = body.Find(key);
  if (v == nullptr) return Status::NotFound("missing field");
  if (!v->is_number() || v->as_number() < 0 ||
      v->as_number() != std::floor(v->as_number())) {
    return Status::InvalidArgument("field \"" + std::string(key) +
                                   "\" must be a non-negative integer");
  }
  return static_cast<long long>(v->as_number());
}

}  // namespace

LeakageService::LeakageService(RecordStore store, ServiceConfig config)
    : store_(std::move(store)), config_(std::move(config)) {
  if (config_.max_cached_references == 0) config_.max_cached_references = 1;
  if (config_.enable_index) ActiveStore().SetChangeFeed(&feed_);
}

LeakageService::LeakageService(persist::DurableStore* durable,
                               ServiceConfig config)
    : durable_(durable), config_(std::move(config)) {
  if (config_.max_cached_references == 0) config_.max_cached_references = 1;
  if (config_.enable_index) ActiveStore().SetChangeFeed(&feed_);
}

LeakageService::~LeakageService() {
  // Unhook first (no new publishes), then stop the maintenance thread: a
  // live index borrows the engines and — through its maintainer — the
  // store, both of which die with this object.
  ActiveStore().SetChangeFeed(nullptr);
  feed_.Shutdown();
}

std::shared_ptr<inc::LeakageIndex> LeakageService::GetOrCreateIndex(
    const PreparedEntry& entry, const LeakageEngine* engine) {
  std::lock_guard<std::mutex> lock(entry.index_mu);
  for (const auto& [eng, index] : entry.indexes) {
    if (eng == engine) return index;
  }
  inc::IndexOptions options;
  options.top_k = config_.index_top_k;
  auto index = std::make_shared<inc::LeakageIndex>(
      entry.reference, entry.weights, engine, options,
      [store = &ActiveStore()](inc::LeakageIndex& idx) {
        return store->MaintainIndex(idx);
      });
  feed_.Register(index);
  entry.indexes.emplace_back(engine, index);
  return index;
}

RecordStore& LeakageService::ActiveStore() {
  return durable_ != nullptr ? durable_->store() : store_;
}

std::size_t LeakageService::cached_references() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return reference_cache_.size();
}

Result<const LeakageEngine*> LeakageService::PickEngine(
    const JsonValue& body) const {
  // The optional "measure" field selects an adversary model from the closed
  // measure vocabulary; unknown names are rejected, never defaulted (the
  // wire rule every field follows). A non-default measure has exactly one
  // engine, so combining it with an explicit "engine" is a contradiction we
  // refuse rather than silently resolve.
  if (const JsonValue* m = body.Find("measure"); m != nullptr) {
    if (!m->is_string()) {
      return Status::InvalidArgument("field \"measure\" must be a string");
    }
    auto measure = ParseMeasure(m->as_string());
    if (!measure.ok()) return measure.status();
    if (*measure != Measure::kExpectedF1) {
      if (body.Find("engine") != nullptr) {
        return Status::InvalidArgument(
            "\"engine\" only applies to the default expected-f1 measure; "
            "measure '" + m->as_string() + "' has exactly one engine");
      }
      return MeasureEngineSingleton(*measure);
    }
  }
  const std::string name = body.GetString("engine", "auto");
  if (name == "auto") return static_cast<const LeakageEngine*>(&auto_engine_);
  if (name == "naive") return static_cast<const LeakageEngine*>(&naive_engine_);
  if (name == "exact") return static_cast<const LeakageEngine*>(&exact_engine_);
  if (name == "approx") {
    return static_cast<const LeakageEngine*>(&approx_engine_);
  }
  return Status::InvalidArgument("unknown engine '" + name +
                                 "' (auto|naive|exact|approx)");
}

Result<std::shared_ptr<const LeakageService::PreparedEntry>>
LeakageService::PrepareReference(const JsonValue& body) {
  const JsonValue* ref_text = body.Find("reference");
  if (ref_text == nullptr || !ref_text->is_string()) {
    return Status::InvalidArgument(
        "missing string field \"reference\" ({<label, value, conf>, ...})");
  }
  const std::string weights_spec = body.GetString("weights");
  // Key on the raw texts: two requests spelling the same reference the
  // same way share one prepared entry, differently-spelled equivalents
  // just prepare twice (harmless).
  std::string key = ref_text->as_string() + '\x1f' + weights_spec;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = reference_cache_.find(key);
    if (it != reference_cache_.end()) {
      static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
          "infoleak_svc_reference_cache_total", {{"result", "hit"}},
          "Prepared-reference cache lookups");
      hits.Inc();
      return it->second;
    }
  }
  auto record = ParseRecord(ref_text->as_string());
  if (!record.ok()) return record.status();
  auto weights = WeightModel::Parse(weights_spec);
  if (!weights.ok()) return weights.status();
  auto entry = std::make_shared<const PreparedEntry>(
      std::move(record).value(), std::move(weights).value());
  static obs::Counter& misses = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_svc_reference_cache_total", {{"result", "miss"}},
      "Prepared-reference cache lookups");
  misses.Inc();
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [it, inserted] = reference_cache_.emplace(key, entry);
  if (!inserted) return it->second;  // racing preparer won; use theirs
  cache_order_.push_back(std::move(key));
  while (reference_cache_.size() > config_.max_cached_references) {
    reference_cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
  return entry;
}

Result<JsonValue> LeakageService::Dispatch(
    const Request& req, const std::function<bool()>& cancel,
    obs::RequestContext* ctx) {
  const JsonValue& body = req.body;
  JsonValue out = OkResponse(req.id);
  out.Set("verb", JsonValue::Str(req.verb));

  if (req.verb == "ping") {
    out.Set("pong", JsonValue::Bool(true));
    // Test/bench aid: spin for `burn_ms` so callers can fill the queue and
    // exercise shedding and deadline misses deterministically.
    const double burn_ms = body.GetNumber("burn_ms", 0.0);
    if (burn_ms > 0) {
      obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
      WallTimer timer;
      while (timer.ElapsedMillis() < burn_ms) {
        if (cancel && cancel()) {
          return Status::DeadlineExceeded("ping burn cancelled");
        }
      }
    }
    return out;
  }

  if (req.verb == "append") {
    const JsonValue* text = body.Find("record");
    if (text == nullptr || !text->is_string()) {
      return Status::InvalidArgument(
          "missing string field \"record\" ({<label, value, conf>, ...})");
    }
    auto record = [&] {
      obs::PhaseTimer parse_phase(ctx, obs::Phase::kParse);
      return ParseRecord(text->as_string());
    }();
    if (!record.ok()) return record.status();
    if (record->empty()) {
      return Status::InvalidArgument("refusing to append an empty record");
    }
    RecordId id;
    if (durable_ != nullptr) {
      // Durability before acknowledgement: the id only reaches the wire
      // after the WAL frame is down (fsynced under --fsync always).
      auto appended = durable_->Append(std::move(record).value(), ctx);
      if (!appended.ok()) return appended.status();
      id = *appended;
    } else {
      // The store attributes the apply (eval) and the change-feed fan-out
      // (publish) itself.
      id = store_.Append(std::move(record).value(), ctx);
    }
    out.Set("appended", JsonValue::Number(static_cast<double>(id)));
    out.Set("records",
            JsonValue::Number(static_cast<double>(ActiveStore().size())));
    return out;
  }

  if (req.verb == "leak") {
    auto entry = [&] {
      obs::PhaseTimer parse_phase(ctx, obs::Phase::kParse);
      return PrepareReference(body);
    }();
    if (!entry.ok()) return entry.status();
    auto engine = PickEngine(body);
    if (!engine.ok()) return engine.status();
    if (cancel && cancel()) {
      return Status::DeadlineExceeded("deadline expired before evaluation");
    }
    Result<double> leakage = 0.0;
    if (const JsonValue* text = body.Find("record"); text != nullptr) {
      if (!text->is_string()) {
        return Status::InvalidArgument("field \"record\" must be a string");
      }
      auto record = [&] {
        obs::PhaseTimer parse_phase(ctx, obs::Phase::kParse);
        return ParseRecord(text->as_string());
      }();
      if (!record.ok()) return record.status();
      obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
      if (ctx != nullptr) ctx->AddRecordsScanned(1);
      leakage = (*engine)->RecordLeakage(*record, (*entry)->reference,
                                         (*entry)->weights);
    } else {
      auto id = GetIndex(body, "record_id");
      if (!id.ok()) {
        return id.status().IsNotFound()
                   ? Status::InvalidArgument(
                         "leak needs \"record\" (inline text) or "
                         "\"record_id\" (stored id)")
                   : id.status();
      }
      leakage = ActiveStore().RecordLeak(static_cast<RecordId>(*id),
                                         (*entry)->prepared, **engine, ctx);
    }
    if (!leakage.ok()) return leakage.status();
    out.Set("leakage", JsonValue::Number(*leakage));
    return out;
  }

  if (req.verb == "set-leak") {
    auto entry = [&] {
      obs::PhaseTimer parse_phase(ctx, obs::Phase::kParse);
      return PrepareReference(body);
    }();
    if (!entry.ok()) return entry.status();
    auto engine = PickEngine(body);
    if (!engine.ok()) return engine.status();
    std::ptrdiff_t argmax = -1;
    Result<double> leakage = 0.0;
    bool answered = false;
    std::string path = "scan";
    // Fast path: the materialized index answers from its maintained maximum
    // after closing any catch-up delta inline. A poisoned index falls
    // through to the scan — which is bit-identical, including any
    // evaluation error the index is hiding — while a cancelled catch-up
    // propagates like a cancelled scan would.
    if (config_.enable_index && (*engine)->SupportsColumnar()) {
      auto index = GetOrCreateIndex(**entry, *engine);
      auto ans = ActiveStore().SetLeakIndexed(*index, cancel, ctx);
      if (ans.ok()) {
        leakage = ans->leakage;
        argmax = ans->argmax;
        answered = true;
        path = "index";
        IndexCounter("hit").Inc();
      } else if (ans.status().IsDeadlineExceeded()) {
        return ans.status();
      } else {
        IndexCounter("fallback").Inc();
      }
    }
    // Columnar-capable engines scan the entry's cached bank (extended with
    // any records appended since the last query); others fall back to the
    // record-at-a-time prepared scan. Both are bit-identical.
    if (!answered) {
      leakage =
          (*engine)->SupportsColumnar()
              ? ActiveStore().SetLeakColumnar((*entry)->bank, (*entry)->bank_mu,
                                              **engine, &argmax, cancel, ctx)
              : ActiveStore().SetLeak((*entry)->prepared, **engine, &argmax,
                                      cancel, ctx);
    }
    if (!leakage.ok()) return leakage.status();
    out.Set("leakage", JsonValue::Number(*leakage));
    out.Set("argmax", JsonValue::Number(static_cast<double>(argmax)));
    out.Set("records",
            JsonValue::Number(static_cast<double>(ActiveStore().size())));
    out.Set("path", JsonValue::Str(path));
    return out;
  }

  if (req.verb == "resolve") {
    const JsonValue* text = body.Find("query");
    if (text == nullptr || !text->is_string()) {
      return Status::InvalidArgument(
          "missing string field \"query\" ({<label, value, conf>, ...})");
    }
    auto query = [&] {
      obs::PhaseTimer parse_phase(ctx, obs::Phase::kParse);
      return ParseRecord(text->as_string());
    }();
    if (!query.ok()) return query.status();
    if (query->empty()) {
      return Status::InvalidArgument("resolve needs a non-empty query");
    }
    std::vector<std::string> labels;
    if (const JsonValue* l = body.Find("labels"); l != nullptr) {
      if (!l->is_array()) {
        return Status::InvalidArgument(
            "field \"labels\" must be an array of strings");
      }
      for (const auto& item : l->items()) {
        if (!item.is_string()) {
          return Status::InvalidArgument(
              "field \"labels\" must be an array of strings");
        }
        labels.push_back(item.as_string());
      }
    }
    std::vector<RecordId> members;
    auto dossier = [&] {
      obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
      return ActiveStore().Dossier(*query, labels, &members);
    }();
    if (!dossier.ok()) return dossier.status();
    if (ctx != nullptr) ctx->AddRecordsScanned(members.size());
    out.Set("dossier", JsonValue::Str(FormatRecord(*dossier)));
    out.Set("members",
            JsonValue::Number(static_cast<double>(members.size())));
    JsonValue ids = JsonValue::Array();
    for (RecordId id : members) {
      ids.Push(JsonValue::Number(static_cast<double>(id)));
    }
    out.Set("ids", std::move(ids));
    return out;
  }

  if (req.verb == "subscribe") {
    if (!config_.enable_index) {
      return Status::FailedPrecondition(
          "subscribe needs the incremental index (the service runs with "
          "--no-index)");
    }
    auto entry = [&] {
      obs::PhaseTimer parse_phase(ctx, obs::Phase::kParse);
      return PrepareReference(body);
    }();
    if (!entry.ok()) return entry.status();
    auto engine = PickEngine(body);
    if (!engine.ok()) return engine.status();
    if (!(*engine)->SupportsColumnar()) {
      return Status::InvalidArgument(
          "subscribe needs a columnar-capable engine (auto|naive|exact|"
          "approx all qualify; got an engine without a columnar path)");
    }
    long long max_events = 64;
    if (body.Find("max_events") != nullptr) {
      auto parsed = GetIndex(body, "max_events");
      if (!parsed.ok()) return parsed.status();
      if (*parsed < 1 || *parsed > 1000) {
        return Status::InvalidArgument("\"max_events\" must be in [1, 1000]");
      }
      max_events = *parsed;
    }
    uint64_t after_seq = 0;
    if (body.Find("after_seq") != nullptr) {
      auto parsed = GetIndex(body, "after_seq");
      if (!parsed.ok()) return parsed.status();
      after_seq = static_cast<uint64_t>(*parsed);
    }
    const double wait_ms = body.GetNumber("wait_ms", 0.0);
    if (wait_ms < 0 || wait_ms > 10000) {
      return Status::InvalidArgument("\"wait_ms\" must be in [0, 10000]");
    }
    auto index = GetOrCreateIndex(**entry, *engine);
    // Prime the index so the first batch reflects the current store; a
    // poisoned index still streams whatever the ring holds.
    auto primed = ActiveStore().SetLeakIndexed(*index, cancel, ctx);
    if (!primed.ok() && primed.status().IsDeadlineExceeded()) {
      return primed.status();
    }
    // Long-poll: one response line per call (the protocol stays
    // one-request/one-line; `infoleak subscribe` loops with the cursor).
    auto batch = index->EventsAfter(after_seq, static_cast<std::size_t>(max_events));
    WallTimer timer;
    while (batch.events.empty() && timer.ElapsedMillis() < wait_ms) {
      if (cancel && cancel()) break;  // deadline: return an empty batch
      feed_.WaitForSequence(
          feed_.sequence(),
          static_cast<int>(wait_ms - timer.ElapsedMillis()), cancel);
      batch = index->EventsAfter(after_seq,
                                 static_cast<std::size_t>(max_events));
    }
    obs::PhaseTimer serialize_phase(ctx, obs::Phase::kSerialize);
    JsonValue arr = JsonValue::Array();
    uint64_t cursor = after_seq;
    for (const inc::DeltaEvent& e : batch.events) {
      JsonValue v = JsonValue::Object();
      v.Set("seq", JsonValue::Number(static_cast<double>(e.seq)));
      v.Set("epoch", JsonValue::Number(static_cast<double>(e.epoch)));
      v.Set("record_id",
            JsonValue::Number(static_cast<double>(e.record_id)));
      v.Set("leakage", JsonValue::Number(e.leakage));
      if (e.skipped) v.Set("skipped", JsonValue::Bool(true));
      v.Set("set_leakage", JsonValue::Number(e.set_leakage));
      v.Set("argmax", JsonValue::Number(static_cast<double>(e.argmax)));
      arr.Push(std::move(v));
      cursor = e.seq;
    }
    out.Set("events", std::move(arr));
    out.Set("cursor", JsonValue::Number(static_cast<double>(cursor)));
    out.Set("epoch", JsonValue::Number(static_cast<double>(batch.epoch)));
    out.Set("covered", JsonValue::Number(static_cast<double>(batch.covered)));
    out.Set("dropped", JsonValue::Number(static_cast<double>(batch.dropped)));
    return out;
  }

  if (req.verb == "compact") {
    if (durable_ == nullptr) {
      return Status::FailedPrecondition(
          "compact needs a durable store (serve --data-dir)");
    }
    obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
    INFOLEAK_RETURN_IF_ERROR(durable_->Compact());
    out.Set("records",
            JsonValue::Number(static_cast<double>(ActiveStore().size())));
    out.Set("epoch", JsonValue::Number(static_cast<double>(feed_.epoch())));
    return out;
  }

  if (req.verb == "stats") {
    RecordStore& store = ActiveStore();
    out.Set("records", JsonValue::Number(static_cast<double>(store.size())));
    out.Set("postings", JsonValue::Number(
                            static_cast<double>(store.index().num_postings())));
    if (durable_ != nullptr) {
      out.Set("wal_offset", JsonValue::Number(
                                static_cast<double>(durable_->wal_offset())));
      out.Set("fsync", JsonValue::Str(std::string(
                           FsyncModeName(durable_->options().fsync))));
    }
    out.Set("cached_references",
            JsonValue::Number(static_cast<double>(cached_references())));
    JsonValue verbs = JsonValue::Object();
    for (const char* verb :
         {"ping", "append", "leak", "set-leak", "resolve", "subscribe",
          "compact", "stats", "tail", "frontier"}) {
      verbs.Set(verb, JsonValue::Number(
                          static_cast<double>(VerbCounter(verb).Value())));
    }
    out.Set("requests", std::move(verbs));
    // Incremental-plane accounting: registered indexes plus the process
    // counters that prove the fast path and its safety valves fire.
    JsonValue index = JsonValue::Object();
    index.Set("enabled", JsonValue::Bool(config_.enable_index));
    index.Set("registered",
              JsonValue::Number(static_cast<double>(feed_.registered())));
    index.Set("epoch", JsonValue::Number(static_cast<double>(feed_.epoch())));
    index.Set("appends",
              JsonValue::Number(static_cast<double>(feed_.sequence())));
    index.Set("hits", JsonValue::Number(
                          static_cast<double>(IndexCounter("hit").Value())));
    index.Set("fallbacks",
              JsonValue::Number(
                  static_cast<double>(IndexCounter("fallback").Value())));
    static obs::Counter& skips = obs::MetricsRegistry::Global().GetCounter(
        "infoleak_inc_bound_skips_total", {},
        "Delta evaluations skipped because the leakage upper bound proved "
        "the top-k unchanged");
    index.Set("bound_skips",
              JsonValue::Number(static_cast<double>(skips.Value())));
    static obs::Counter& invalidations =
        obs::MetricsRegistry::Global().GetCounter(
            "infoleak_inc_invalidations_total", {},
            "Epoch bumps published through the change feed (WAL resets)");
    index.Set("invalidations",
              JsonValue::Number(static_cast<double>(invalidations.Value())));
    out.Set("index", std::move(index));
    auto& log = obs::EventLog::Global();
    JsonValue events = JsonValue::Object();
    events.Set("recorded",
               JsonValue::Number(static_cast<double>(log.recorded())));
    events.Set("overwritten",
               JsonValue::Number(static_cast<double>(log.overwritten())));
    out.Set("events", std::move(events));
    // Slow-query summary: worst retained requests, slowest first.
    JsonValue slow = JsonValue::Array();
    for (const obs::RequestEvent& event : log.Slowest(5)) {
      JsonValue entry = JsonValue::Object();
      entry.Set("id", JsonValue::Number(static_cast<double>(event.id)));
      entry.Set("verb", JsonValue::Str(event.verb));
      entry.Set("total_us",
                JsonValue::Number(static_cast<double>(event.total_nanos) /
                                  1000.0));
      slow.Push(std::move(entry));
    }
    out.Set("slow", std::move(slow));
    obs::RegisterBuildInfo(kern::Active().name);
    JsonValue build = JsonValue::Object();
    build.Set("version", JsonValue::Str(std::string(obs::BuildVersion())));
    build.Set("simd", JsonValue::Str(std::string(kern::Active().name)));
    build.Set("tracing", JsonValue::Bool(INFOLEAK_TRACING_ENABLED != 0));
    out.Set("build", std::move(build));
    return out;
  }

  if (req.verb == "frontier") {
    FrontierConfig config;
    auto seed = GetIndex(body, "seed");
    if (seed.ok()) {
      config.registry.seed = static_cast<uint64_t>(*seed);
    } else if (!seed.status().IsNotFound()) {
      return seed.status();
    }
    auto rows = GetIndex(body, "rows");
    if (rows.ok()) {
      // Served sweeps are bounded: the evaluation is O(points · rows²)
      // through ER, and a request must not pin a worker for minutes.
      if (*rows < 1 || *rows > 500) {
        return Status::InvalidArgument("\"rows\" must be in [1, 500]");
      }
      config.registry.rows = static_cast<std::size_t>(*rows);
    } else if (!rows.status().IsNotFound()) {
      return rows.status();
    }
    auto ks = GetSizeArray(body, "ks", {2, 5});
    if (!ks.ok()) return ks.status();
    config.grid.ks = std::move(*ks);
    auto ls = GetSizeArray(body, "ls", {1});
    if (!ls.ok()) return ls.status();
    config.grid.ls = std::move(*ls);
    auto ts = GetNumberArray(body, "ts", {1.0});
    if (!ts.ok()) return ts.status();
    config.grid.ts = std::move(*ts);
    auto budgets = GetSizeArray(body, "suppress", {0});
    if (!budgets.ok()) return budgets.status();
    config.grid.suppressions = std::move(*budgets);
    const std::size_t points = config.grid.ks.size() * config.grid.ls.size() *
                               config.grid.ts.size() *
                               config.grid.suppressions.size();
    if (points > 64) {
      return Status::InvalidArgument(
          "grid has " + std::to_string(points) +
          " points; served sweeps are capped at 64 (run the CLI for more)");
    }
    if (const JsonValue* m = body.Find("measure"); m != nullptr) {
      if (!m->is_string()) {
        return Status::InvalidArgument("field \"measure\" must be a string");
      }
      auto measure = ParseMeasure(m->as_string());
      if (!measure.ok()) return measure.status();
      config.measure = *measure;
    }
    config.num_threads = 1;  // the server's worker pool is the parallelism
    config.cancel = cancel;
    auto result = RunFrontier(config);
    if (!result.ok()) return result.status();
    // Roll the per-point attribution up onto this request, so the event
    // log's "frontier" entry splits its latency anonymize/resolve/eval.
    JsonValue arr = JsonValue::Array();
    for (const FrontierPoint& point : result->points) {
      if (ctx != nullptr) {
        ctx->AddPhaseNanos(obs::Phase::kAnonymize, point.anonymize_nanos);
        ctx->AddPhaseNanos(obs::Phase::kResolve, point.resolve_nanos);
        ctx->AddPhaseNanos(obs::Phase::kEval, point.eval_nanos);
      }
      auto parsed = ParseJson(FrontierPointLine(point, config));
      if (!parsed.ok()) return parsed.status();
      arr.Push(std::move(parsed).value());
    }
    obs::PhaseTimer serialize_phase(ctx, obs::Phase::kSerialize);
    out.Set("rows", JsonValue::Number(static_cast<double>(result->rows)));
    out.Set("points", std::move(arr));
    return out;
  }

  if (req.verb == "tail") {
    auto& log = obs::EventLog::Global();
    long long count = 20;
    if (body.Find("count") != nullptr) {
      auto parsed = GetIndex(body, "count");
      if (!parsed.ok()) return parsed.status();
      if (*parsed < 1 || *parsed > 1000) {
        return Status::InvalidArgument("\"count\" must be in [1, 1000]");
      }
      count = *parsed;
    }
    uint64_t after_id = 0;
    if (body.Find("after_id") != nullptr) {
      auto parsed = GetIndex(body, "after_id");
      if (!parsed.ok()) return parsed.status();
      after_id = static_cast<uint64_t>(*parsed);
    }
    const double min_micros = body.GetNumber("min_micros", 0.0);
    if (min_micros < 0) {
      return Status::InvalidArgument("\"min_micros\" must be >= 0");
    }
    const bool slow = body.GetBool("slow", false);
    // One response line with an `events` array — the protocol stays
    // one-request/one-line; the CLI unfolds the array into NDJSON.
    std::vector<obs::RequestEvent> events =
        slow ? log.Slowest(static_cast<std::size_t>(count))
             : log.Recent(static_cast<std::size_t>(count), after_id,
                          static_cast<uint64_t>(min_micros * 1000.0));
    obs::PhaseTimer serialize_phase(ctx, obs::Phase::kSerialize);
    JsonValue arr = JsonValue::Array();
    for (const obs::RequestEvent& event : events) {
      arr.Push(EventJson(event));
    }
    out.Set("events", std::move(arr));
    out.Set("recorded",
            JsonValue::Number(static_cast<double>(log.recorded())));
    out.Set("overwritten",
            JsonValue::Number(static_cast<double>(log.overwritten())));
    return out;
  }

  return Status::InvalidArgument("unknown verb '" + req.verb + "'");
}

std::string LeakageService::Handle(const Request& req,
                                   const std::function<bool()>& cancel,
                                   std::string* wire_code,
                                   obs::RequestContext* ctx) {
  // Whoever creates the context emits it: a caller-provided context (the
  // server's worker loop) is only filled in here, while a null one means
  // this call is the request's entire life and the event is emitted before
  // returning.
  obs::RequestContext local;
  const bool owned = (ctx == nullptr);
  obs::RequestContext* rc = owned ? &local : ctx;
  rc->set_verb(req.verb);

  obs::TraceSpan span(SpanName(req.verb));
  VerbCounter(req.verb).Inc();
  auto result = Dispatch(req, cancel, rc);
  std::string response;
  if (!result.ok()) {
    rc->set_outcome(WireCode(result.status()));
    if (wire_code != nullptr) *wire_code = WireCode(result.status());
    obs::PhaseTimer serialize_phase(rc, obs::Phase::kSerialize);
    response = StatusResponse(req.id, result.status());
  } else {
    rc->set_outcome("ok");
    if (wire_code != nullptr) wire_code->clear();
    obs::PhaseTimer serialize_phase(rc, obs::Phase::kSerialize);
    response = result->Render();
  }
  rc->set_bytes_out(response.size());
  if (owned) obs::EventLog::Global().Record(rc->Finish());
  return response;
}

}  // namespace infoleak::svc
