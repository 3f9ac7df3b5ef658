#include "check/selfcheck.h"

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <system_error>
#include <utility>

#include "check/case_gen.h"
#include "check/corpus.h"
#include "check/shrink.h"
#include "core/column_bank.h"
#include "core/database.h"
#include "core/leakage.h"
#include "core/measure_family.h"
#include "core/record_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "persist/durable_store.h"
#include "svc/json.h"
#include "svc/loopback.h"
#include "util/string_util.h"

namespace infoleak::check {
namespace {

namespace fs = std::filesystem;

std::string RenderValue(const Result<double>& v) {
  if (!v.ok()) return "<error: " + v.status().message() + ">";
  return FormatDoubleRoundTrip(*v);
}

bool SameOutcome(const Result<double>& a, const Result<double>& b) {
  if (a.ok() != b.ok()) return false;
  return !a.ok() || *a == *b;  // both failing counts as agreement
}

/// Served-path oracle: the case is also asked over the wire (a loopback
/// `infoleak serve`) with the record and reference inlined as text, and each
/// engine's served answer must be bit-identical to its offline one —
/// including agreeing on *failing*. The wire renders doubles with
/// round-trip precision, so bit-identity across the text hop is a fair
/// demand.
class ServedChecker {
 public:
  explicit ServedChecker(const OracleConfig& oracle)
      : server_(RecordStore()),
        naive_max_(oracle.naive_max),
        check_pml_(oracle.check_pml),
        check_guesswork_(oracle.check_guesswork),
        check_overunder_(oracle.check_overunder) {}

  Status Start() {
    INFOLEAK_RETURN_IF_ERROR(server_.Start());
    INFOLEAK_ASSIGN_OR_RETURN(client_, server_.NewClient());
    // Event-log accounting baseline: the loopback server shares the
    // process-global EventLog, and nothing else in a selfcheck run serves
    // requests, so every recorded event past this point is one of ours.
    baseline_recorded_ = obs::EventLog::Global().recorded();
    return Status::OK();
  }

  Status Stop() { return server_.Stop(); }

  /// Observability invariants over the whole served run, checked once at
  /// the end: every completed wire request must have produced exactly one
  /// event-log record (the server emits before it responds, so a received
  /// reply guarantees the event is already recorded), and the ids the log
  /// hands back must be unique and strictly increasing. These findings are
  /// not case-reproducible, so the caller must not shrink them or write
  /// them to the corpus.
  void CheckObs(std::size_t* comparisons, std::vector<Finding>* findings) {
    ++*comparisons;
    const uint64_t delta =
        obs::EventLog::Global().recorded() - baseline_recorded_;
    if (delta != calls_) {
      findings->push_back(
          Finding{"obs",
                  "event-log accounting broke: " + std::to_string(calls_) +
                      " served request(s) but " + std::to_string(delta) +
                      " event(s) recorded (exactly one per request expected)",
                  CheckCase{}});
    }
    // Unique ids: pull the freshest window the wire allows and demand the
    // served ids come back strictly increasing (Recent sorts by id, so a
    // duplicate would surface as a non-increasing neighbor).
    ++*comparisons;
    svc::JsonValue body = svc::JsonValue::Object();
    body.Set("count", svc::JsonValue::Number(1000.0));
    Result<svc::JsonValue> response = client_.CallVerb("tail", std::move(body));
    if (!response.ok()) {
      findings->push_back(Finding{
          "obs", "tail over loopback failed: " + response.status().message(),
          CheckCase{}});
      return;
    }
    const svc::JsonValue* events = response->Find("events");
    if (events == nullptr || !events->is_array()) {
      findings->push_back(Finding{
          "obs", "tail response carries no \"events\" array", CheckCase{}});
      return;
    }
    double prev_id = 0;
    for (const svc::JsonValue& event : events->items()) {
      const double id = event.GetNumber("id", 0.0);
      if (id <= prev_id) {
        findings->push_back(
            Finding{"obs",
                    "request ids not unique/increasing in the event log: id " +
                        std::to_string(static_cast<uint64_t>(id)) +
                        " follows id " +
                        std::to_string(static_cast<uint64_t>(prev_id)),
                    CheckCase{}});
        return;
      }
      prev_id = id;
    }
  }

  void Check(const CheckCase& c, std::size_t* comparisons,
             std::vector<Finding>* findings) {
    for (const auto& v : OfflineValues(c)) {
      ++*comparisons;
      const Result<double> served = Served(c, v.name, v.is_measure);
      if (!SameOutcome(v.offline, served)) {
        findings->push_back(Finding{
            "served",
            std::string(v.name) + ": offline " + RenderValue(v.offline) +
                " vs served " + RenderValue(served),
            c});
      }
    }
  }

  /// Shrink predicate: does any served/offline mismatch remain?
  bool Disagrees(const CheckCase& c) {
    for (const auto& v : OfflineValues(c)) {
      if (!SameOutcome(v.offline, Served(c, v.name, v.is_measure))) {
        return true;
      }
    }
    return false;
  }

 private:
  /// One wire comparison: `name` is either an engine name (is_measure
  /// false, sent as the request's "engine") or a measure name (sent as
  /// "measure" — the field the serving layer resolves to its singleton).
  struct WireValue {
    const char* name;
    bool is_measure;
    Result<double> offline;
  };

  std::vector<WireValue> OfflineValues(const CheckCase& c) {
    std::vector<WireValue> values;
    values.push_back({"auto", false, auto_.RecordLeakage(c.r, c.p, c.wm)});
    values.push_back({"approx", false, approx_.RecordLeakage(c.r, c.p, c.wm)});
    values.push_back({"exact", false, exact_.RecordLeakage(c.r, c.p, c.wm)});
    // The service's naive engine has a larger enumeration cap than the
    // oracle's; compare only where both sides are comfortably inside it.
    if (c.r.size() <= naive_max_) {
      values.push_back({"naive", false, naive_.RecordLeakage(c.r, c.p, c.wm)});
    }
    auto add_measure = [&](Measure m) {
      const LeakageEngine* e = MeasureEngineSingleton(m);
      values.push_back({MeasureName(m).data(), true,
                        e->RecordLeakage(c.r, c.p, c.wm)});
    };
    if (check_pml_) add_measure(Measure::kPml);
    if (check_guesswork_) add_measure(Measure::kGuesswork);
    if (check_overunder_) {
      add_measure(Measure::kUnder);
      add_measure(Measure::kOver);
    }
    return values;
  }

  Result<double> Served(const CheckCase& c, const std::string& name,
                        bool is_measure) {
    svc::JsonValue body = svc::JsonValue::Object();
    body.Set("record", svc::JsonValue::Str(FormatRecord(c.r)));
    body.Set("reference", svc::JsonValue::Str(FormatRecord(c.p)));
    const std::string weights = FormatWeights(c.wm);
    if (!weights.empty()) body.Set("weights", svc::JsonValue::Str(weights));
    body.Set(is_measure ? "measure" : "engine", svc::JsonValue::Str(name));
    ++calls_;
    INFOLEAK_ASSIGN_OR_RETURN(svc::JsonValue response,
                              client_.CallVerb("leak", std::move(body)));
    const svc::JsonValue* leakage = response.Find("leakage");
    if (leakage == nullptr || !leakage->is_number()) {
      return Status::Internal("leak response carries no \"leakage\" number");
    }
    return leakage->as_number();
  }

  svc::LoopbackServer server_;
  svc::Client client_;
  NaiveLeakage naive_;
  ExactLeakage exact_;
  ApproxLeakage approx_;
  AutoLeakage auto_;
  std::size_t naive_max_;
  bool check_pml_;
  bool check_guesswork_;
  bool check_overunder_;
  uint64_t baseline_recorded_ = 0;
  uint64_t calls_ = 0;  ///< wire requests issued through Served()
};

/// Recovery oracle: every generated record is appended to a real
/// DurableStore (WAL + one midpoint snapshot); at the end of the run the
/// store is closed and recovered, and each stored record must come back
/// textually identical and answer its case's leakage query bit-identically
/// to the pre-recovery evaluation.
class DurableChecker {
 public:
  explicit DurableChecker(std::string dir) : dir_(std::move(dir)) {}

  Status Open() {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // stale scratch from a killed run
    persist::DurableStore::Options options;
    options.fsync = persist::FsyncMode::kNever;  // correctness, not crashes
    INFOLEAK_ASSIGN_OR_RETURN(
        store_, persist::DurableStore::Open(dir_, options));
    return Status::OK();
  }

  Status Add(const CheckCase& c) {
    INFOLEAK_ASSIGN_OR_RETURN(RecordId id, store_->Append(c.r));
    Entry e{id, c, {}};
    for (const auto& [name, engine] : Engines()) {
      e.before.emplace_back(name, engine->RecordLeakage(c.r, c.p, c.wm));
    }
    entries_.push_back(std::move(e));
    return Status::OK();
  }

  /// Mid-run snapshot, so recovery exercises snapshot + WAL tail rather
  /// than a pure log replay.
  Status SnapshotNow() { return store_->Snapshot(); }

  Status Finish(std::size_t* comparisons, std::vector<Finding>* findings) {
    INFOLEAK_ASSIGN_OR_RETURN(
        store_, persist::DurableStore::Reopen(std::move(store_)));
    if (!store_->recovery().wal_damage.ok()) {
      findings->push_back(Finding{
          "durable-recovery",
          "recovery reported WAL damage on an uncrashed store: " +
              store_->recovery().wal_damage.message(),
          CheckCase{}});
    }
    for (const Entry& e : entries_) {
      ++*comparisons;
      const Result<Record> rec = store_->store().Get(e.id);
      if (!rec.ok()) {
        findings->push_back(Finding{
            "durable-recovery",
            "record " + std::to_string(e.id) +
                " lost in recovery: " + rec.status().message(),
            e.c});
        continue;
      }
      if (FormatRecord(*rec) != FormatRecord(e.c.r)) {
        findings->push_back(Finding{
            "durable-recovery",
            "record " + std::to_string(e.id) + " recovered as " +
                FormatRecord(*rec) + " but was appended as " +
                FormatRecord(e.c.r),
            e.c});
        continue;
      }
      for (const auto& [name, before] : e.before) {
        ++*comparisons;
        const LeakageEngine* engine = nullptr;
        for (const auto& [n2, eng] : Engines()) {
          if (n2 == name) engine = eng;
        }
        const Result<double> after =
            engine->RecordLeakage(*rec, e.c.p, e.c.wm);
        if (!SameOutcome(before, after)) {
          findings->push_back(Finding{
              "durable-recovery",
              std::string(name) + " leakage changed across recovery: before " +
                  RenderValue(before) + " vs after " + RenderValue(after),
              e.c});
        }
      }
    }
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    return Status::OK();
  }

 private:
  struct Entry {
    RecordId id;
    CheckCase c;
    /// Pre-recovery answer per engine: auto plus the whole measure family
    /// (a recovered record must answer identically under every adversary
    /// model, not just the default one).
    std::vector<std::pair<const char*, Result<double>>> before;
  };

  std::vector<std::pair<const char*, const LeakageEngine*>> Engines() const {
    return {{"auto", &auto_},
            {"pml", MeasureEngineSingleton(Measure::kPml)},
            {"guesswork", MeasureEngineSingleton(Measure::kGuesswork)},
            {"under", MeasureEngineSingleton(Measure::kUnder)},
            {"over", MeasureEngineSingleton(Measure::kOver)}};
  }

  std::string dir_;
  std::unique_ptr<persist::DurableStore> store_;
  std::vector<Entry> entries_;
  AutoLeakage auto_;
};

/// Interleaving checker for the incremental plane: drives a seeded
/// append/query/compact interleaving through a served durable store — the
/// index-backed `set-leak` path — and after every query demands the wire
/// answer be bit-identical (leakage, argmax, covered count) to a cold
/// columnar rescan of a mirror database held offline. The materialized
/// view must never drift from the scan it stands in for, on any prefix of
/// the interleaving, including across WAL resets (`compact` → epoch bump →
/// rebuild) and across engines the index refuses (poisoned → scan
/// fallback must still match).
class IncChecker {
 public:
  explicit IncChecker(std::string dir) : dir_(std::move(dir)) {}

  Status Run(uint64_t seed, std::size_t ops, std::size_t* comparisons,
             std::vector<Finding>* findings) {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // stale scratch from a killed run
    persist::DurableStore::Options options;
    options.fsync = persist::FsyncMode::kNever;  // correctness, not crashes
    INFOLEAK_ASSIGN_OR_RETURN(std::unique_ptr<persist::DurableStore> store,
                              persist::DurableStore::Open(dir_, options));
    {
      // Compacts bump the epoch, which starts a background rebuild on the
      // feed's maintenance thread that races the next query's inline
      // catch-up; both must land on the cold rescan's answer.
      svc::LoopbackServer server(store.get());
      INFOLEAK_RETURN_IF_ERROR(server.Start());
      INFOLEAK_ASSIGN_OR_RETURN(svc::Client client, server.NewClient());

      // Query pool: a handful of generated references, each pinned to one
      // engine so every columnar engine sees the interleaving — including
      // naive/exact, whose structural errors must poison the index into
      // the bit-identical scan fallback rather than a wrong answer, and the
      // measure family, whose per-engine indexes must never leak a stale
      // default-measure answer. The last four names are measures and travel
      // as the wire's "measure" field.
      static constexpr const char* kEngines[] = {
          "auto", "approx", "exact",     "naive",
          "pml",  "guesswork", "under", "over"};
      constexpr std::size_t kNumEngines = 8;
      CaseGenerator gen(seed ^ 0x1c5e11c8ec4ULL);
      std::vector<CheckCase> pool;
      while (pool.size() < kNumEngines) {
        Result<CheckCase> c = Canonicalize(gen.Next());
        if (c.ok()) pool.push_back(std::move(c).value());
      }

      Rng rng(seed);
      Database mirror;
      std::size_t appends = 0, compacts = 0;
      auto check_query = [&](std::size_t step, std::size_t which) -> Status {
        const CheckCase& c = pool[which];
        const char* engine_name = kEngines[which % kNumEngines];
        const bool is_measure = (which % kNumEngines) >= 4;
        ++*comparisons;
        // Wire answer through the served, index-backed path.
        svc::JsonValue body = svc::JsonValue::Object();
        body.Set("reference", svc::JsonValue::Str(FormatRecord(c.p)));
        const std::string weights = FormatWeights(c.wm);
        if (!weights.empty()) {
          body.Set("weights", svc::JsonValue::Str(weights));
        }
        body.Set(is_measure ? "measure" : "engine",
                 svc::JsonValue::Str(engine_name));
        Result<svc::JsonValue> wire =
            client.CallVerb("set-leak", std::move(body));
        // Cold rescan of the mirror prefix, built from scratch every time.
        const PreparedReference prep(c.p, c.wm);
        ColumnBank bank(prep);
        for (const Record& r : mirror) bank.Append(r);
        std::ptrdiff_t want_argmax = -1;
        const Result<double> rescan =
            SetLeakageColumnar(bank, Engine(engine_name), &want_argmax);
        const std::string at = "step " + std::to_string(step) + " (" +
                               std::to_string(appends) + " append(s), " +
                               std::to_string(compacts) +
                               " compact(s), engine " + engine_name + ")";
        if (wire.ok() != rescan.ok()) {
          findings->push_back(Finding{
              "inc-interleave",
              at + ": wire " +
                  (wire.ok() ? "answered" : wire.status().message()) +
                  " but cold rescan " +
                  (rescan.ok() ? "answered" : rescan.status().message()),
              c});
          return Status::OK();
        }
        if (!wire.ok()) return Status::OK();  // both failing is agreement
        const double got = wire->GetNumber("leakage", -1.0);
        const double got_argmax = wire->GetNumber("argmax", -2.0);
        const double got_records = wire->GetNumber("records", -1.0);
        if (got != *rescan ||
            got_argmax != static_cast<double>(want_argmax) ||
            got_records != static_cast<double>(mirror.size())) {
          findings->push_back(Finding{
              "inc-interleave",
              at + ": wire (leakage " + FormatDoubleRoundTrip(got) +
                  ", argmax " +
                  std::to_string(static_cast<long long>(got_argmax)) +
                  ", records " +
                  std::to_string(static_cast<long long>(got_records)) +
                  ") vs cold rescan (leakage " + FormatDoubleRoundTrip(*rescan) +
                  ", argmax " + std::to_string(want_argmax) + ", records " +
                  std::to_string(mirror.size()) + ")",
              c});
        }
        return Status::OK();
      };

      for (std::size_t step = 0; step < ops; ++step) {
        const uint64_t draw = rng.NextBounded(100);
        if (draw < 50) {
          // Append one generated record through the wire (WAL + change-feed
          // publish) and mirror it offline. The wire refuses empty records,
          // so skip the generator's empty shape.
          Record r = gen.Next().r;
          while (r.empty()) r = gen.Next().r;
          svc::JsonValue body = svc::JsonValue::Object();
          body.Set("record", svc::JsonValue::Str(FormatRecord(r)));
          Result<svc::JsonValue> response =
              client.CallVerb("append", std::move(body));
          if (!response.ok()) {
            return Status::Internal("inc interleaving append failed: " +
                                    response.status().message());
          }
          mirror.Add(r);
          ++appends;
        } else if (draw < 95) {
          INFOLEAK_RETURN_IF_ERROR(
              check_query(step, rng.NextBounded(pool.size())));
        } else {
          // Served compact: snapshot + WAL reset + epoch bump, with the
          // server live. Every index must re-fence and rebuild.
          Result<svc::JsonValue> response =
              client.CallVerb("compact", svc::JsonValue::Object());
          if (!response.ok()) {
            return Status::Internal("inc interleaving compact failed: " +
                                    response.status().message());
          }
          ++compacts;
        }
      }
      // Final full-prefix pass: every pool reference answers over the
      // complete interleaving, whatever state its index ended up in.
      for (std::size_t which = 0; which < pool.size(); ++which) {
        INFOLEAK_RETURN_IF_ERROR(check_query(ops, which));
      }
      INFOLEAK_RETURN_IF_ERROR(server.Stop());
    }
    store.reset();
    fs::remove_all(dir_, ec);
    return Status::OK();
  }

 private:
  const LeakageEngine& Engine(std::string_view name) const {
    if (name == "naive") return naive_;
    if (name == "exact") return exact_;
    if (name == "approx") return approx_;
    if (Result<Measure> m = ParseMeasure(name);
        m.ok() && *m != Measure::kExpectedF1) {
      return *MeasureEngineSingleton(*m);
    }
    return auto_;
  }

  std::string dir_;
  NaiveLeakage naive_;
  ExactLeakage exact_;
  ApproxLeakage approx_;
  AutoLeakage auto_;
};

std::string DefaultScratchDir(uint64_t seed) {
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / ("infoleak-selfcheck-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seed)))
      .string();
}

}  // namespace

std::string SelfCheckReport::Summary() const {
  std::string out = "selfcheck: corpus " + std::to_string(corpus_cases) +
                    " case(s), generated " + std::to_string(generated_cases) +
                    " case(s), " + std::to_string(comparisons) +
                    " comparison(s), " + std::to_string(disagreements) +
                    " disagreement(s)\n";
  for (const Finding& f : findings) {
    out += "disagreement [" + f.kind + "] " + f.c.name + "\n";
    out += "  " + f.detail + "\n";
    for (const auto& line : Split(FormatCase(f.c), '\n')) {
      if (!line.empty()) out += "  | " + line + "\n";
    }
  }
  if (disagreements > findings.size()) {
    out += "(+" + std::to_string(disagreements - findings.size()) +
           " further disagreement(s) not minimized; raise the report cap)\n";
  }
  return out;
}

Result<SelfCheckReport> RunSelfCheck(const SelfCheckConfig& config) {
  static obs::Counter& cases_total = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_selfcheck_cases_total", {},
      "Cases evaluated by the differential selfcheck harness");
  static obs::Counter& comparisons_total =
      obs::MetricsRegistry::Global().GetCounter(
          "infoleak_selfcheck_comparisons_total", {},
          "Cross-engine comparisons performed by selfcheck");
  static obs::Counter& disagreements_total =
      obs::MetricsRegistry::Global().GetCounter(
          "infoleak_selfcheck_disagreements_total", {},
          "Cross-engine disagreements found by selfcheck");

  SelfCheckReport report;
  const Oracle oracle(config.oracle);

  ServedChecker served(config.oracle);
  if (config.check_served) INFOLEAK_RETURN_IF_ERROR(served.Start());
  DurableChecker durable(config.scratch_dir.empty()
                             ? DefaultScratchDir(config.seed)
                             : config.scratch_dir);
  if (config.check_durable) INFOLEAK_RETURN_IF_ERROR(durable.Open());

  // Accepts raw findings: counts them all, minimizes and (optionally)
  // records the first `max_reported`. `shrinker` may be empty for findings
  // whose reproduction needs an environment (durable recovery) — those are
  // reported as found.
  auto handle = [&](std::vector<Finding>&& found,
                    const std::function<bool(const CheckCase&)>& shrinker) {
    for (Finding& f : found) {
      ++report.disagreements;
      disagreements_total.Inc();
      if (report.findings.size() >= config.max_reported) continue;
      Finding minimized = std::move(f);
      if (shrinker) minimized.c = Shrink(minimized.c, shrinker);
      if (!config.corpus_dir.empty() && config.extend_corpus) {
        Result<std::string> path =
            WriteCorpusEntry(config.corpus_dir, minimized);
        if (path.ok()) report.corpus_written.push_back(*path);
      }
      report.findings.push_back(std::move(minimized));
    }
  };

  // Shrink predicate for an oracle finding: the candidate still triggers a
  // finding of the same kind under the same seed.
  auto oracle_shrinker = [&oracle](std::string kind, uint64_t case_seed) {
    return [&oracle, kind = std::move(kind),
            case_seed](const CheckCase& candidate) {
      const OracleOutcome o = oracle.Evaluate(candidate, case_seed);
      for (const Finding& f : o.findings) {
        if (f.kind == kind) return true;
      }
      return false;
    };
  };

  auto served_shrinker = [&served](const CheckCase& candidate) {
    return served.Disagrees(candidate);
  };

  // Runs every enabled path on one canonical case.
  auto run_case = [&](const CheckCase& c, uint64_t case_seed) -> Status {
    OracleOutcome o = oracle.Evaluate(c, case_seed);
    report.comparisons += o.comparisons;
    for (Finding& f : o.findings) {
      const std::string kind = f.kind;
      std::vector<Finding> one;
      one.push_back(std::move(f));
      handle(std::move(one), oracle_shrinker(kind, case_seed));
    }
    if (config.check_served) {
      std::vector<Finding> found;
      served.Check(c, &report.comparisons, &found);
      handle(std::move(found), served_shrinker);
    }
    if (config.check_durable) INFOLEAK_RETURN_IF_ERROR(durable.Add(c));
    return Status::OK();
  };

  // ---- 1. Replay the regression corpus -----------------------------------
  if (!config.corpus_dir.empty()) {
    INFOLEAK_ASSIGN_OR_RETURN(std::vector<CheckCase> corpus,
                              LoadCorpus(config.corpus_dir));
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      // Corpus case seeds live far above the generated index range so
      // replay determinism survives --cases changes.
      const uint64_t case_seed =
          CaseGenerator::CaseSeed(config.seed, (1ULL << 32) + i);
      INFOLEAK_ASSIGN_OR_RETURN(const CheckCase c, Canonicalize(corpus[i]));
      ++report.corpus_cases;
      cases_total.Inc();
      INFOLEAK_RETURN_IF_ERROR(run_case(c, case_seed));
    }
  }

  // ---- 2. Generate adversarial cases -------------------------------------
  CaseGenerator gen(config.seed);
  for (std::size_t i = 0; i < config.cases; ++i) {
    const uint64_t case_seed = CaseGenerator::CaseSeed(config.seed, i);
    const CheckCase raw = gen.Next();
    ++report.generated_cases;
    cases_total.Inc();
    ++report.comparisons;
    Result<CheckCase> canonical = Canonicalize(raw);
    if (!canonical.ok()) {
      // A generated case that does not survive its own text form is a
      // serialization bug — the exact class the served path would trip on.
      std::vector<Finding> one;
      one.push_back(Finding{"canonicalize",
                            "case does not round-trip through its text form: " +
                                canonical.status().message(),
                            raw});
      handle(std::move(one), {});
      continue;
    }
    const CheckCase& c = *canonical;
    ++report.comparisons;
    if (FormatCase(c) != FormatCase(raw)) {
      std::vector<Finding> one;
      one.push_back(Finding{
          "canonicalize",
          "text form is not a fixpoint: parsing and re-rendering changed "
          "the case (lossy double rendering?)",
          raw});
      handle(std::move(one), {});
    }
    INFOLEAK_RETURN_IF_ERROR(run_case(c, case_seed));
    if (config.check_durable && i + 1 == config.cases / 2) {
      INFOLEAK_RETURN_IF_ERROR(durable.SnapshotNow());
    }
  }

  // ---- 3. Recover the durable store and re-verify ------------------------
  if (config.check_durable) {
    std::vector<Finding> found;
    INFOLEAK_RETURN_IF_ERROR(durable.Finish(&report.comparisons, &found));
    handle(std::move(found), {});  // recovery needs the env; no shrinking
  }
  // ---- 4. Observability invariants on the served path --------------------
  if (config.check_served) {
    // Not case-reproducible (no shrinking, never written to the corpus):
    // these findings are about the serving run as a whole.
    std::vector<Finding> obs_found;
    served.CheckObs(&report.comparisons, &obs_found);
    for (Finding& f : obs_found) {
      ++report.disagreements;
      disagreements_total.Inc();
      if (report.findings.size() < config.max_reported) {
        report.findings.push_back(std::move(f));
      }
    }
    INFOLEAK_RETURN_IF_ERROR(served.Stop());
  }
  // ---- 5. Incremental-plane interleaving ---------------------------------
  // Runs after the served obs check: the interleaving drives its own
  // loopback server, and its requests land in the process-global EventLog
  // the served checker's exactly-one-event-per-request accounting watches.
  if (config.check_inc && config.cases > 0) {
    IncChecker inc((config.scratch_dir.empty()
                        ? DefaultScratchDir(config.seed)
                        : config.scratch_dir) +
                   "-inc");
    std::vector<Finding> found;
    // Scale the interleaving with --cases; past a few thousand steps the
    // O(prefix) cold rescans dominate the whole selfcheck run.
    const std::size_t ops = std::min<std::size_t>(config.cases, 4000);
    INFOLEAK_RETURN_IF_ERROR(
        inc.Run(config.seed, ops, &report.comparisons, &found));
    handle(std::move(found), {});  // interleaving state isn't case-shrinkable
  }

  comparisons_total.Inc(report.comparisons);
  return report;
}

}  // namespace infoleak::check
