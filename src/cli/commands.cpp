#include "cli/commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <thread>

#include "anon/hierarchy.h"
#include "check/selfcheck.h"
#include "apps/disinformation.h"
#include "apps/enhancement.h"
#include "apps/frontier.h"
#include "apps/incremental.h"
#include "apps/population.h"
#include "anon/kanonymity.h"
#include "anon/ldiversity.h"
#include "anon/tcloseness.h"
#include "core/bounds.h"
#include "core/fbeta_leakage.h"
#include "core/kernels.h"
#include "core/leakage.h"
#include "core/measure_family.h"
#include "core/record_io.h"
#include "er/blocking.h"
#include "er/dipping.h"
#include "er/swoosh.h"
#include "er/transitive.h"
#include "gen/generator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "ops/operator.h"
#include "persist/durable_store.h"
#include "store/record_store.h"
#include "svc/client.h"
#include "svc/server.h"
#include "util/file.h"
#include "util/string_util.h"

namespace infoleak::cli {
namespace {

void Append(std::string* out, const std::string& line) {
  *out += line;
  *out += '\n';
}

/// One flag in a command's vocabulary. The registry below is the single
/// source of truth: `CheckFlags` validates against it and
/// `infoleak <command> --help` prints it, so the two can never drift.
struct FlagDoc {
  std::string_view name;
  std::string_view help;
};

/// Observability riders accepted by every command in addition to its own
/// flag vocabulary.
constexpr FlagDoc kObsFlags[] = {
    {"stats", "append a metrics report to the command output"},
    {"stats-format", "metrics report format: prometheus|json"},
    {"trace", "append a timing summary to the command output"},
};

constexpr FlagDoc kLeakageFlags[] = {
    {"db", "CSV database file"},
    {"db-csv", "inline CSV database text (file-less scripting)"},
    {"reference", "reference record file"},
    {"reference-text", "inline reference record \"{<label, value, conf>, ...}\""},
    {"weights", "weight spec \"Label=2,Other=0.5\" (default: all 1)"},
    {"engine", "leakage engine: auto|naive|exact|approx"},
    {"measure", "adversary model: expected-f1|pml|guesswork|under|over "
                "(non-default measures exclude --engine and --beta)"},
    {"beta", "F-beta recall/precision trade-off (default 1.0)"},
    {"bounds", "also print closed-form per-record leakage bounds"},
    {"resolve", "run entity resolution before measuring"},
    {"match-rules", "disjunctive match rules, e.g. \"N+C|N+P\""},
    {"resolver", "ER algorithm: swoosh|transitive|blocked"},
    {"block-labels", "comma-separated blocking labels for --resolver blocked"},
};

constexpr FlagDoc kErFlags[] = {
    {"db", "CSV database file"},
    {"db-csv", "inline CSV database text"},
    {"match-rules", "disjunctive match rules, e.g. \"N+C|N+P\""},
    {"resolver", "ER algorithm: swoosh|transitive|blocked"},
    {"block-labels", "comma-separated blocking labels for --resolver blocked"},
};

constexpr FlagDoc kIncrementalFlags[] = {
    {"db", "CSV database file"},
    {"db-csv", "inline CSV database text"},
    {"reference", "reference record file"},
    {"reference-text", "inline reference record \"{...}\""},
    {"weights", "weight spec \"Label=2,...\""},
    {"engine", "leakage engine: auto|naive|exact|approx"},
    {"measure", "adversary model: expected-f1|pml|guesswork|under|over "
                "(non-default measures exclude --engine)"},
    {"release-text", "candidate record whose release is being evaluated"},
    {"match-rules", "run ER with these rules before both measurements"},
    {"resolver", "ER algorithm: swoosh|transitive|blocked"},
    {"block-labels", "comma-separated blocking labels for --resolver blocked"},
};

constexpr FlagDoc kGenerateFlags[] = {
    {"n", "attribute-domain size (Table 4's n)"},
    {"records", "number of records to synthesize"},
    {"seed", "PRNG seed"},
    {"pc", "copy probability"},
    {"pp", "perturb probability"},
    {"pb", "bogus probability"},
    {"m", "maximum confidence"},
    {"random-weights", "draw per-label weights at random"},
    {"emit-reference", "print the hidden reference record as a comment"},
};

constexpr FlagDoc kAnonymizeFlags[] = {
    {"table", "CSV table file"},
    {"table-csv", "inline CSV table text"},
    {"k", "anonymity parameter k (default 2)"},
    {"qi", "quasi-identifiers \"Col:suffix:L,Col:interval:W[:clamp],...\""},
    {"sensitive", "sensitive column to report l-diversity/t-closeness for"},
};

constexpr FlagDoc kFrontierFlags[] = {
    {"seed", "registry PRNG seed (default 1)"},
    {"rows", "registry rows swept (default 60)"},
    {"zip-prefixes", "distinct leading zip prefixes in the registry "
                     "(default 6)"},
    {"diseases", "sensitive-vocabulary size (default 5)"},
    {"ks", "comma list of k values to sweep (default 2,5)"},
    {"ls", "comma list of l-diversity values; 1 disables (default 1)"},
    {"ts", "comma list of t-closeness values in [0,1]; 1 disables "
           "(default 1)"},
    {"suppress", "comma list of suppression budgets (default 0)"},
    {"measure", "leakage measure pricing each point: "
                "expected-f1|pml|guesswork|under|over"},
    {"threads", "worker threads fanning grid points; 0 = hardware "
                "(default 1)"},
    {"phases", "append '#' comment lines with per-point "
               "anonymize/resolve/eval phase micros"},
};

constexpr FlagDoc kDippingFlags[] = {
    {"db", "CSV database file"},
    {"db-csv", "inline CSV database text"},
    {"query-text", "query record \"{...}\" to resolve into a dossier"},
    {"match-rules", "disjunctive match rules, e.g. \"N+C|N+P\""},
    {"resolver", "ER algorithm: swoosh|transitive|blocked"},
    {"block-labels", "comma-separated blocking labels for --resolver blocked"},
};

constexpr FlagDoc kEnhanceFlags[] = {
    {"db", "CSV database file"},
    {"db-csv", "inline CSV database text"},
    {"weights", "weight spec \"Label=2,...\""},
    {"budget", "verification budget; 0 ranks all options instead"},
};

constexpr FlagDoc kDisinfoFlags[] = {
    {"db", "CSV database file"},
    {"db-csv", "inline CSV database text"},
    {"reference", "reference record file"},
    {"reference-text", "inline reference record \"{...}\""},
    {"weights", "weight spec \"Label=2,...\""},
    {"match-rules", "adversary's match rules"},
    {"budget", "publication budget (default 8)"},
    {"max-size", "largest candidate disinformation record (default 4)"},
    {"max-bogus", "bogus attributes allowed per candidate (default 2)"},
    {"exhaustive", "exact subset search instead of the greedy planner"},
    {"resolver", "ER algorithm: swoosh|transitive|blocked"},
    {"block-labels", "comma-separated blocking labels for --resolver blocked"},
};

constexpr FlagDoc kReidentifyFlags[] = {
    {"db", "CSV database file"},
    {"db-csv", "inline CSV database text"},
    {"weights", "weight spec \"Label=2,...\""},
    {"references", "file with one reference record per line"},
    {"references-text", "inline references, one record per line"},
};

constexpr FlagDoc kStatsFlags[] = {
    {"format", "output format: prometheus|json"},
    {"skip-zero", "omit zero-valued series"},
    {"skip-histograms", "omit histogram series"},
};

constexpr FlagDoc kServeFlags[] = {
    {"host", "bind address (default 127.0.0.1)"},
    {"port", "TCP port; 0 picks an ephemeral port (default 0)"},
    {"workers", "worker threads draining the request queue (default 4)"},
    {"queue-depth", "bounded queue size; beyond it requests are shed "
                    "with `overloaded` (default 128)"},
    {"deadline-ms", "per-request deadline from admission; 0 disables "
                    "(default 10000)"},
    {"idle-timeout-ms", "close connections idle this long; 0 disables "
                        "(default 30000)"},
    {"max-frame-bytes", "largest accepted request line (default 1048576)"},
    {"cache-refs", "prepared-reference cache capacity (default 64)"},
    {"db", "CSV database file preloaded into the store"},
    {"db-csv", "inline CSV database text preloaded into the store"},
    {"data-dir", "durable mode: recover the store from this directory and "
                 "write-ahead-log every append"},
    {"fsync", "WAL durability: always|interval|never (default always)"},
    {"fsync-interval-ms", "background fsync cadence for --fsync interval "
                          "(default 25)"},
    {"snapshot-every", "background-snapshot every N appends; 0 disables "
                       "(default 0)"},
};

constexpr FlagDoc kCallFlags[] = {
    {"host", "server address (default 127.0.0.1)"},
    {"port", "server port (required)"},
    {"timeout-ms", "connect/receive timeout (default 30000)"},
    {"request", "raw request line to send verbatim, e.g. "
                "'{\"verb\":\"ping\"}'"},
    {"verb", "request verb: ping|append|leak|set-leak|resolve|subscribe|"
             "compact|stats|frontier"},
    {"body", "JSON object merged into the request built from --verb"},
};

constexpr FlagDoc kTailFlags[] = {
    {"host", "server address (default 127.0.0.1)"},
    {"port", "server port (required)"},
    {"timeout-ms", "connect/receive timeout (default 30000)"},
    {"count", "events per fetch, newest first (default 20, max 1000)"},
    {"slow", "show the slow-query ring (worst retained requests) instead "
             "of recent events"},
    {"after-id", "only events with request id greater than this"},
    {"min-micros", "only events at least this slow end to end"},
    {"follow", "keep polling for new events until the server goes away"},
    {"poll-ms", "polling cadence for --follow (default 500)"},
};

constexpr FlagDoc kSubscribeFlags[] = {
    {"host", "server address (default 127.0.0.1)"},
    {"port", "server port (required)"},
    {"timeout-ms", "connect/receive timeout (default 30000)"},
    {"reference", "reference record file"},
    {"reference-text", "inline reference record \"{...}\""},
    {"weights", "weight spec \"Label=2,...\""},
    {"engine", "leakage engine the index maintains: auto|naive|exact|approx "
               "(default auto)"},
    {"measure", "adversary model the index maintains: expected-f1|pml|"
                "guesswork|under|over (non-default measures exclude --engine)"},
    {"max-events", "events per fetch, oldest first (default 64, max 1000)"},
    {"after-seq", "resume after this delta cursor (default 0: from the "
                  "oldest retained event)"},
    {"wait-ms", "server-side long-poll when no events are pending "
                "(default 0, max 10000)"},
    {"follow", "keep polling for new deltas until the server goes away"},
};

constexpr FlagDoc kTopFlags[] = {
    {"host", "server address (default 127.0.0.1)"},
    {"port", "server port (required)"},
    {"timeout-ms", "connect/receive timeout (default 30000)"},
    {"count", "slow-query entries shown (default 10)"},
};

constexpr FlagDoc kCompactFlags[] = {
    {"data-dir", "durable store directory to compact (required)"},
};

constexpr FlagDoc kSelfCheckFlags[] = {
    {"cases", "generated adversarial cases (default 1000)"},
    {"seed", "deterministic run seed; a (seed, case) pair always "
             "reproduces (default 1)"},
    {"engines", "comma list of checks to run: naive,exact,approx,mc,"
                "bounds,batch,auto,served,durable,inc (default all)"},
    {"measures", "measure-family checks: all|none|comma list of "
                 "pml,guesswork,overunder (default all)"},
    {"corpus", "regression corpus directory: replay every *.case before "
               "generating, write new minimized findings back"},
    {"no-corpus-write", "replay the corpus but do not add new entries"},
    {"naive-max", "largest record the O(2^|r|) truth oracle enumerates "
                  "(default 12)"},
    {"mc-samples", "Monte-Carlo samples per estimate (default 4000)"},
    {"max-reported", "findings minimized and reported in full; further "
                     "ones are only counted (default 20)"},
    {"scratch-dir", "durable-check scratch directory (default: under the "
                    "system temp dir, removed afterwards)"},
};

struct CommandDoc {
  std::string_view name;
  std::string_view summary;
  std::span<const FlagDoc> flags;
  Status (*run)(const FlagSet&, std::string*);
};

constexpr CommandDoc kCommands[] = {
    {"leakage", "record/set leakage of a database against a reference",
     kLeakageFlags, RunLeakage},
    {"er", "run entity resolution over a database", kErFlags, RunEr},
    {"incremental", "incremental leakage of releasing one record",
     kIncrementalFlags, RunIncremental},
    {"generate", "synthesize a Table-4 workload as CSV", kGenerateFlags,
     RunGenerate},
    {"anonymize", "k-anonymize a table (minimal full-domain search)",
     kAnonymizeFlags, RunAnonymize},
    {"frontier", "sweep anonymization grids, charting leakage vs utility",
     kFrontierFlags, RunFrontier},
    {"dipping", "resolve a query record against a database (dossier)",
     kDippingFlags, RunDipping},
    {"enhance", "rank attribute verifications by gain/cost", kEnhanceFlags,
     RunEnhance},
    {"disinfo", "plan budgeted disinformation against an adversary",
     kDisinfoFlags, RunDisinfo},
    {"reidentify", "attribute each record to its best-matching reference",
     kReidentifyFlags, RunReidentify},
    {"stats", "dump the process metrics registry", kStatsFlags, RunStats},
    {"serve", "serve leakage queries over TCP (newline-delimited JSON)",
     kServeFlags, RunServe},
    {"call", "send one request to a running `infoleak serve`", kCallFlags,
     RunCall},
    {"tail", "stream a server's request event log as NDJSON", kTailFlags,
     RunTail},
    {"subscribe", "stream a server's per-append leakage deltas as NDJSON",
     kSubscribeFlags, RunSubscribe},
    {"top", "show a server's slowest requests, phase by phase", kTopFlags,
     RunTop},
    {"compact", "rewrite a durable store's snapshot and reset its WAL",
     kCompactFlags, RunCompact},
    {"selfcheck", "differential cross-engine check: fuzz, compare, shrink",
     kSelfCheckFlags, RunSelfCheck},
};

const CommandDoc* FindCommand(std::string_view name) {
  for (const CommandDoc& doc : kCommands) {
    if (doc.name == name) return &doc;
  }
  return nullptr;
}

bool HasFlag(std::span<const FlagDoc> docs, std::string_view name) {
  return std::any_of(docs.begin(), docs.end(),
                     [&](const FlagDoc& d) { return d.name == name; });
}

/// Rejects any set flag outside the command's registered vocabulary + the
/// common observability riders. FlagSet stores names sorted, so the flag
/// named in the error is the alphabetically first unknown one —
/// deterministic for tests.
Status CheckFlags(const FlagSet& flags, std::string_view command) {
  const CommandDoc* doc = FindCommand(command);
  for (const std::string& name : flags.FlagNames()) {
    if (HasFlag(kObsFlags, name)) continue;
    if (doc != nullptr && HasFlag(doc->flags, name)) continue;
    return Status::InvalidArgument(
        "unknown flag '--" + name + "' for command '" + std::string(command) +
        "' (see infoleak " + std::string(command) + " --help)");
  }
  return Status::OK();
}

/// `infoleak <command> --help`: the command's one-liner plus its full
/// CheckFlags vocabulary, flag by flag, then the riders every command
/// accepts. Generated from the same registry CheckFlags validates against.
std::string HelpText(const CommandDoc& doc) {
  std::size_t width = 0;
  for (const FlagDoc& f : doc.flags) width = std::max(width, f.name.size());
  for (const FlagDoc& f : kObsFlags) width = std::max(width, f.name.size());
  auto flag_line = [width](const FlagDoc& f) {
    std::string line = "  --" + std::string(f.name);
    line.append(width + 2 - f.name.size(), ' ');
    line += f.help;
    line += '\n';
    return line;
  };
  std::string out = "usage: infoleak " + std::string(doc.name) + " [flags]\n\n";
  out += "  " + std::string(doc.summary) + "\n\nflags:\n";
  for (const FlagDoc& f : doc.flags) out += flag_line(f);
  out += "\nobservability riders (accepted by every command):\n";
  for (const FlagDoc& f : kObsFlags) out += flag_line(f);
  return out;
}

/// Appends the `--stats` / `--trace` rider reports after a successful
/// command. The `--stats` rendering skips zero-valued series and
/// histograms so the report is a deterministic function of the workload,
/// not of wall-clock timings.
Status MaybeAppendStats(const FlagSet& flags, std::string* out) {
  if (flags.Has("trace")) {
    *out += "--- trace ---\n";
    *out += obs::RenderTimingSummary(
        obs::MetricsRegistry::Global().Snapshot());
  }
  if (!flags.Has("stats")) return Status::OK();
  const std::string format = flags.GetString("stats-format", "prometheus");
  if (format != "prometheus" && format != "json") {
    return Status::InvalidArgument("unknown --stats-format '" + format +
                                   "' (prometheus|json)");
  }
  // Idempotent: the build-info gauge is identity-in-labels, value 1, so
  // re-registering on every report is a cheap Set(1.0).
  obs::RegisterBuildInfo(kern::Active().name);
  obs::ExportOptions opts;
  opts.skip_zero = true;
  opts.skip_histograms = true;
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global()
                                            .Snapshot();
  *out += "--- metrics ---\n";
  *out += format == "json" ? obs::RenderJson(snapshot, opts)
                           : obs::RenderPrometheus(snapshot, opts);
  return Status::OK();
}

Result<Database> LoadDb(const FlagSet& flags) {
  if (flags.Has("db-csv")) {
    return LoadDatabaseCsv(flags.GetString("db-csv"));
  }
  std::string path = flags.GetString("db");
  if (path.empty()) {
    return Status::InvalidArgument("missing --db <csv-file> (or --db-csv)");
  }
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return LoadDatabaseCsv(*text);
}

Result<Record> LoadReference(const FlagSet& flags) {
  if (flags.Has("reference-text")) {
    return ParseRecord(flags.GetString("reference-text"));
  }
  std::string path = flags.GetString("reference");
  if (path.empty()) {
    return Status::InvalidArgument(
        "missing --reference <file> (or --reference-text \"{...}\")");
  }
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseRecord(*text);
}

Result<WeightModel> LoadWeights(const FlagSet& flags) {
  return WeightModel::Parse(flags.GetString("weights"));
}

/// Parses "N+C|N+P" into rules {{N,C},{N,P}}; "N,P" (commas) is accepted as
/// shorthand for singleton disjuncts.
Result<MatchRules> ParseRules(const std::string& spec) {
  if (Trim(spec).empty()) {
    return Status::InvalidArgument("empty --match-rules");
  }
  MatchRules rules;
  char disjunct_sep = spec.find('|') != std::string::npos ? '|' : ',';
  for (const auto& rule_text : Split(spec, disjunct_sep)) {
    std::vector<std::string> labels;
    for (const auto& label : Split(rule_text, '+')) {
      std::string trimmed(Trim(label));
      if (trimmed.empty()) {
        return Status::InvalidArgument("empty label in --match-rules '" +
                                       spec + "'");
      }
      labels.push_back(std::move(trimmed));
    }
    rules.push_back(std::move(labels));
  }
  return rules;
}

/// The engine a command evaluates through: --measure and --engine resolved
/// together by LookupEngine (a process singleton, borrowed not owned).
Result<const LeakageEngine*> PickEngine(const FlagSet& flags) {
  INFOLEAK_ASSIGN_OR_RETURN(
      const Measure measure,
      ParseMeasure(flags.GetString("measure", "expected-f1")));
  const std::string engine = flags.GetString("engine");
  return LookupEngine(measure, flags.Has("engine")
                                   ? std::optional<std::string_view>(engine)
                                   : std::nullopt);
}

/// One number of a `--qi` entry, read strictly: the whole field must be an
/// integer in [min, INT_MAX] (the hierarchies take int levels), or the
/// entry is refused by name.
Result<long long> QiNumber(std::string_view field, long long min,
                           std::string_view what, const std::string& entry) {
  const std::string token(Trim(field));
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (token.empty() || *end != '\0' || errno == ERANGE || v < min ||
      v > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "bad --qi entry '" + entry + "': " + std::string(what) +
        " must be an integer >= " + std::to_string(min) + ", got '" + token +
        "'");
  }
  return v;
}

/// Owns the pieces of a configured resolver so callers get one object.
struct ResolverBundle {
  std::unique_ptr<MatchFunction> match;
  std::unique_ptr<MergeFunction> merge;
  std::unique_ptr<BlockingKey> blocking;
  std::unique_ptr<EntityResolver> resolver;
};

Result<ResolverBundle> MakeResolver(const FlagSet& flags) {
  auto rules = ParseRules(flags.GetString("match-rules"));
  if (!rules.ok()) return rules.status();
  ResolverBundle bundle;
  bundle.match = std::make_unique<RuleMatch>(*rules);
  bundle.merge = std::make_unique<UnionMerge>();
  std::string kind = flags.GetString("resolver", "swoosh");
  if (kind == "swoosh") {
    bundle.resolver =
        std::make_unique<SwooshResolver>(*bundle.match, *bundle.merge);
  } else if (kind == "transitive") {
    bundle.resolver = std::make_unique<TransitiveClosureResolver>(
        *bundle.match, *bundle.merge);
  } else if (kind == "blocked") {
    std::string labels_spec = flags.GetString("block-labels");
    std::vector<std::string> labels;
    if (labels_spec.empty()) {
      // Default: block on every label mentioned by the match rules.
      for (const auto& rule : *rules) {
        for (const auto& label : rule) labels.push_back(label);
      }
    } else {
      for (const auto& label : Split(labels_spec, ',')) {
        labels.emplace_back(Trim(label));
      }
    }
    bundle.blocking = std::make_unique<LabelValueBlocking>(std::move(labels));
    bundle.resolver = std::make_unique<BlockedResolver>(
        *bundle.blocking, *bundle.match, *bundle.merge);
  } else {
    return Status::InvalidArgument("unknown --resolver '" + kind +
                                   "' (swoosh|transitive|blocked)");
  }
  return bundle;
}

}  // namespace

Status RunLeakage(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "leakage");
  if (!ok.ok()) return ok;
  auto db = LoadDb(flags);
  if (!db.ok()) return db.status();
  auto reference = LoadReference(flags);
  if (!reference.ok()) return reference.status();
  auto weights = LoadWeights(flags);
  if (!weights.ok()) return weights.status();

  Database analyzed = *db;
  if (flags.Has("resolve")) {
    auto bundle = MakeResolver(flags);
    if (!bundle.ok()) return bundle.status();
    ErStats stats;
    auto resolved = bundle->resolver->Resolve(*db, &stats);
    if (!resolved.ok()) return resolved.status();
    analyzed = std::move(resolved).value();
    Append(out, "entity resolution: " + std::to_string(db->size()) +
                    " records -> " + std::to_string(analyzed.size()) +
                    " entities (" + std::to_string(stats.match_calls) +
                    " match calls, " + std::to_string(stats.merge_calls) +
                    " merges)");
  }

  auto beta = flags.GetDouble("beta", 1.0);
  if (!beta.ok()) return beta.status();
  auto fbeta = FBetaLeakage::Create(*beta);
  if (!fbeta.ok()) {
    return Status::InvalidArgument("bad --beta '" + flags.GetString("beta") +
                                   "': must be positive and finite");
  }
  if (*beta != 1.0) {
    if (flags.GetString("measure", "expected-f1") != "expected-f1") {
      return Status::InvalidArgument(
          "--beta only applies to the default expected-f1 measure (F-beta "
          "reweights the expectation; the other measures have no beta)");
    }
    auto l = fbeta->SetLeakage(analyzed, *reference, *weights);
    if (!l.ok()) return l.status();
    Append(out, "F-beta leakage (beta=" + FormatDouble(*beta, 3) +
                    "): " + FormatDouble(*l, 7));
    return Status::OK();
  }

  auto picked = PickEngine(flags);
  if (!picked.ok()) return picked.status();
  const LeakageEngine& engine = **picked;
  const bool show_bounds = flags.Has("bounds");
  // One scan of one bank: the per-record report, and its running maximum
  // is the set leakage (the same first strictly-greater argmax a set scan
  // reports).
  const PreparedReference prepared(*reference, *weights);
  const ColumnBank bank = ColumnBank::FromDatabase(analyzed, prepared);
  auto per_record = BatchLeakageColumnar(bank, engine);
  if (!per_record.ok()) return per_record.status();
  RunningMax total;
  for (std::size_t i = 0; i < analyzed.size(); ++i) {
    total.Offer((*per_record)[i], static_cast<std::ptrdiff_t>(i));
    std::string line = "record " + std::to_string(i) + ": L = " +
                       FormatDouble((*per_record)[i], 7);
    if (show_bounds) {
      LeakageBounds b = BoundRecordLeakage(analyzed[i], *reference, *weights);
      line += " in [" + FormatDouble(b.lower, 5) + ", " +
              FormatDouble(b.upper, 5) + "]";
    }
    line += "  " + analyzed[i].ToString();
    Append(out, line);
  }
  Append(out, "set leakage L0(R, p) = " + FormatDouble(total.value(), 7) +
                  " (record " + std::to_string(total.index()) + ")");
  return Status::OK();
}

Status RunEr(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "er");
  if (!ok.ok()) return ok;
  auto db = LoadDb(flags);
  if (!db.ok()) return db.status();
  auto bundle = MakeResolver(flags);
  if (!bundle.ok()) return bundle.status();
  ErStats stats;
  auto resolved = bundle->resolver->Resolve(*db, &stats);
  if (!resolved.ok()) return resolved.status();
  Append(out, "resolver: " + std::string(bundle->resolver->name()));
  Append(out, "records: " + std::to_string(db->size()) + " -> entities: " +
                  std::to_string(resolved->size()));
  Append(out, "match calls: " + std::to_string(stats.match_calls) +
                  ", merges: " + std::to_string(stats.merge_calls));
  *out += SaveDatabaseCsv(*resolved);
  return Status::OK();
}

Status RunIncremental(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "incremental");
  if (!ok.ok()) return ok;
  auto db = LoadDb(flags);
  if (!db.ok()) return db.status();
  auto reference = LoadReference(flags);
  if (!reference.ok()) return reference.status();
  auto weights = LoadWeights(flags);
  if (!weights.ok()) return weights.status();
  auto release = ParseRecord(flags.GetString("release-text"));
  if (!release.ok()) return release.status();
  auto engine = PickEngine(flags);
  if (!engine.ok()) return engine.status();

  std::unique_ptr<AnalysisOperator> op;
  ResolverBundle bundle;
  if (flags.Has("match-rules")) {
    auto made = MakeResolver(flags);
    if (!made.ok()) return made.status();
    bundle = std::move(made).value();
    op = std::make_unique<ErOperator>(*bundle.resolver);
  } else {
    op = std::make_unique<IdentityOperator>();
  }

  Result<IncrementalReport> report = IncrementalLeakageReport(
      *db, *reference, *op, *release, *weights, **engine);
  if (!report.ok()) return report.status();
  Append(out, "before:      " + FormatDouble(report->before, 7));
  Append(out, "after:       " + FormatDouble(report->after, 7));
  Append(out, "incremental: " + FormatDouble(report->incremental, 7));
  return Status::OK();
}

Status RunGenerate(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "generate");
  if (!ok.ok()) return ok;
  GeneratorConfig config;
  auto n = flags.GetInt("n", static_cast<long long>(config.n));
  if (!n.ok()) return n.status();
  auto records =
      flags.GetInt("records", static_cast<long long>(config.num_records));
  if (!records.ok()) return records.status();
  auto seed = flags.GetInt("seed", static_cast<long long>(config.seed));
  if (!seed.ok()) return seed.status();
  if (*n <= 0 || *records < 0 || *seed < 0) {
    return Status::InvalidArgument("--n/--records/--seed must be positive");
  }
  // Sanity caps: a generate request is an in-memory synthesis, and strtoll
  // saturates absurd inputs to LLONG_MAX rather than failing.
  constexpr long long kMaxN = 1000000;
  constexpr long long kMaxRecords = 10000000;
  if (*n > kMaxN || *records > kMaxRecords) {
    return Status::InvalidArgument(
        "--n capped at " + std::to_string(kMaxN) + " and --records at " +
        std::to_string(kMaxRecords));
  }
  config.n = static_cast<std::size_t>(*n);
  config.num_records = static_cast<std::size_t>(*records);
  config.seed = static_cast<uint64_t>(*seed);
  auto pc = flags.GetDouble("pc", config.copy_prob);
  auto pp = flags.GetDouble("pp", config.perturb_prob);
  auto pb = flags.GetDouble("pb", config.bogus_prob);
  auto m = flags.GetDouble("m", config.max_confidence);
  if (!pc.ok()) return pc.status();
  if (!pp.ok()) return pp.status();
  if (!pb.ok()) return pb.status();
  if (!m.ok()) return m.status();
  config.copy_prob = *pc;
  config.perturb_prob = *pp;
  config.bogus_prob = *pb;
  config.max_confidence = *m;
  config.random_weights = flags.Has("random-weights");

  auto data = GenerateDataset(config);
  if (!data.ok()) return data.status();
  Append(out, "# " + config.ToString());
  if (flags.Has("emit-reference")) {
    Append(out, "# reference: " + FormatRecord(data->reference));
  }
  *out += SaveDatabaseCsv(data->records);
  return Status::OK();
}

Status RunAnonymize(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "anonymize");
  if (!ok.ok()) return ok;
  Result<Table> table = [&]() -> Result<Table> {
    if (flags.Has("table-csv")) {
      return Table::FromCsv(flags.GetString("table-csv"));
    }
    std::string path = flags.GetString("table");
    if (path.empty()) {
      return Status::InvalidArgument(
          "missing --table <csv-file> (or --table-csv)");
    }
    auto text = ReadFileToString(path);
    if (!text.ok()) return text.status();
    return Table::FromCsv(*text);
  }();
  if (!table.ok()) return table.status();

  auto k = flags.GetInt("k", 2);
  if (!k.ok()) return k.status();
  if (*k < 1) return Status::InvalidArgument("--k must be >= 1");

  // --qi "Zip:suffix:3,Age:interval:10[:clamp]"
  std::string qi_spec = flags.GetString("qi");
  if (qi_spec.empty()) {
    return Status::InvalidArgument(
        "missing --qi \"Col:suffix:L,Col:interval:W[:clamp],...\"");
  }
  std::vector<std::unique_ptr<Hierarchy>> hierarchies;
  std::vector<QuasiIdentifier> qis;
  std::vector<std::string> qi_columns;
  for (const auto& entry : Split(qi_spec, ',')) {
    auto parts = Split(entry, ':');
    if (parts.size() < 3) {
      return Status::InvalidArgument("bad --qi entry '" + entry +
                                     "' (want Col:kind:arg)");
    }
    std::string column(Trim(parts[0]));
    std::string kind(Trim(parts[1]));
    if (kind == "suffix") {
      if (parts.size() > 3) {
        return Status::InvalidArgument("bad --qi entry '" + entry +
                                       "' (want Col:suffix:levels)");
      }
      auto levels = QiNumber(parts[2], 1, "levels", entry);
      if (!levels.ok()) return levels.status();
      hierarchies.push_back(std::make_unique<SuffixSuppressionHierarchy>(
          static_cast<int>(*levels)));
    } else if (kind == "interval") {
      if (parts.size() > 4) {
        return Status::InvalidArgument("bad --qi entry '" + entry +
                                       "' (want Col:interval:width[:clamp])");
      }
      auto width = QiNumber(parts[2], 1, "width", entry);
      if (!width.ok()) return width.status();
      Result<long long> clamp = -1;  // no clamp
      if (parts.size() == 4) clamp = QiNumber(parts[3], 0, "clamp", entry);
      if (!clamp.ok()) return clamp.status();
      hierarchies.push_back(std::make_unique<IntervalHierarchy>(
          std::vector<long long>{*width}, *clamp));
    } else {
      return Status::InvalidArgument("unknown hierarchy kind '" + kind +
                                     "' (suffix|interval)");
    }
    qis.push_back(QuasiIdentifier{column, hierarchies.back().get()});
    qi_columns.push_back(column);
  }

  auto result = MinimalGeneralization(
      *table, qis, static_cast<std::size_t>(*k), /*max_suppressed=*/0);
  if (!result.ok()) return result.status();
  std::string levels;
  for (std::size_t i = 0; i < qis.size(); ++i) {
    if (i > 0) levels += ", ";
    levels += qis[i].column + "=" + std::to_string(result->levels[i]);
  }
  Append(out, "minimal " + std::to_string(*k) +
                  "-anonymous generalization: " + levels);
  std::string sensitive = flags.GetString("sensitive");
  if (!sensitive.empty()) {
    auto distinct =
        MinDistinctSensitive(result->table, qi_columns, sensitive);
    if (!distinct.ok()) return distinct.status();
    Append(out, "distinct l-diversity of '" + sensitive +
                    "': " + std::to_string(*distinct));
    auto distance =
        MaxSensitiveDistance(result->table, qi_columns, sensitive);
    if (!distance.ok()) return distance.status();
    Append(out, "t-closeness (max TV distance): " +
                    FormatDouble(*distance, 4));
  }
  *out += result->table.ToCsv();
  return Status::OK();
}

namespace {

/// "2,5,10" → {2, 5, 10}; empty entries are skipped, non-numeric ones are
/// InvalidArgument (naming the flag so the message is actionable).
Result<std::vector<std::size_t>> ParseSizeList(const std::string& spec,
                                               std::string_view flag) {
  std::vector<std::size_t> values;
  for (const auto& entry : Split(spec, ',')) {
    std::string token(Trim(entry));
    if (token.empty()) continue;
    if (token.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("bad --" + std::string(flag) +
                                     " entry '" + token + "'");
    }
    values.push_back(static_cast<std::size_t>(std::atoll(token.c_str())));
  }
  if (values.empty()) {
    return Status::InvalidArgument("--" + std::string(flag) +
                                   " needs at least one value");
  }
  return values;
}

Result<std::vector<double>> ParseDoubleList(const std::string& spec,
                                            std::string_view flag) {
  std::vector<double> values;
  for (const auto& entry : Split(spec, ',')) {
    std::string token(Trim(entry));
    if (token.empty()) continue;
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad --" + std::string(flag) +
                                     " entry '" + token + "'");
    }
    values.push_back(v);
  }
  if (values.empty()) {
    return Status::InvalidArgument("--" + std::string(flag) +
                                   " needs at least one value");
  }
  return values;
}

}  // namespace

Status RunFrontier(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "frontier");
  if (!ok.ok()) return ok;
  FrontierConfig config;
  auto seed = flags.GetInt("seed", 1);
  if (!seed.ok()) return seed.status();
  config.registry.seed = static_cast<uint64_t>(*seed);
  auto rows = flags.GetInt("rows", 60);
  if (!rows.ok()) return rows.status();
  if (*rows < 1) return Status::InvalidArgument("--rows must be >= 1");
  config.registry.rows = static_cast<std::size_t>(*rows);
  auto zips = flags.GetInt("zip-prefixes", 6);
  if (!zips.ok()) return zips.status();
  config.registry.zip_prefixes = static_cast<std::size_t>(*zips);
  auto diseases = flags.GetInt("diseases", 5);
  if (!diseases.ok()) return diseases.status();
  config.registry.diseases = static_cast<std::size_t>(*diseases);

  auto ks = ParseSizeList(flags.GetString("ks", "2,5"), "ks");
  if (!ks.ok()) return ks.status();
  config.grid.ks = std::move(*ks);
  auto ls = ParseSizeList(flags.GetString("ls", "1"), "ls");
  if (!ls.ok()) return ls.status();
  config.grid.ls = std::move(*ls);
  auto ts = ParseDoubleList(flags.GetString("ts", "1"), "ts");
  if (!ts.ok()) return ts.status();
  config.grid.ts = std::move(*ts);
  auto budgets = ParseSizeList(flags.GetString("suppress", "0"), "suppress");
  if (!budgets.ok()) return budgets.status();
  config.grid.suppressions = std::move(*budgets);

  if (flags.Has("measure")) {
    auto measure = ParseMeasure(flags.GetString("measure"));
    if (!measure.ok()) return measure.status();
    config.measure = *measure;
  }
  auto threads = flags.GetInt("threads", 1);
  if (!threads.ok()) return threads.status();
  if (*threads < 0) return Status::InvalidArgument("--threads must be >= 0");
  config.num_threads = static_cast<std::size_t>(*threads);
  config.log_points = true;  // the tail/top plane sees the sweep

  auto result = ::infoleak::RunFrontier(config);
  if (!result.ok()) return result.status();
  const bool phases = flags.Has("phases");
  for (const FrontierPoint& point : result->points) {
    Append(out, FrontierPointLine(point, config));
    if (phases) {
      Append(out,
             "# phases k=" + std::to_string(point.k) +
                 " l=" + std::to_string(point.l) +
                 " suppress=" + std::to_string(point.max_suppressed) +
                 " anonymize_us=" + std::to_string(point.anonymize_nanos / 1000) +
                 " resolve_us=" + std::to_string(point.resolve_nanos / 1000) +
                 " eval_us=" + std::to_string(point.eval_nanos / 1000));
    }
  }
  return Status::OK();
}

Status RunDipping(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "dipping");
  if (!ok.ok()) return ok;
  auto db = LoadDb(flags);
  if (!db.ok()) return db.status();
  auto query = ParseRecord(flags.GetString("query-text"));
  if (!query.ok()) return query.status();
  if (query->empty()) {
    return Status::InvalidArgument("missing --query-text \"{...}\"");
  }
  auto bundle = MakeResolver(flags);
  if (!bundle.ok()) return bundle.status();
  ErStats stats;
  auto dossier = DippingResult(*db, *bundle->resolver, *query, &stats);
  if (!dossier.ok()) return dossier.status();
  Append(out, "query:   " + query->ToString());
  Append(out, "dossier: " + dossier->ToString());
  Append(out, "cost: " + std::to_string(stats.match_calls) +
                  " match calls, " + std::to_string(stats.merge_calls) +
                  " merges");
  return Status::OK();
}

Status RunEnhance(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "enhance");
  if (!ok.ok()) return ok;
  auto db = LoadDb(flags);
  if (!db.ok()) return db.status();
  auto weights = LoadWeights(flags);
  if (!weights.ok()) return weights.status();
  NaiveLeakage engine;
  auto budget = flags.GetDouble("budget", 0.0);
  if (!budget.ok()) return budget.status();

  Record rc = ComposeAll(*db);
  Record rp = rc.WithFullConfidence();
  auto base = engine.RecordLeakage(rc, rp, *weights);
  if (!base.ok()) return base.status();
  Append(out, "composite rc: " + rc.ToString());
  Append(out, "certainty L(rc, rp) = " + FormatDouble(*base, 7));

  if (*budget > 0.0) {
    auto plan = GreedyEnhancementPlan(*db, *budget, *weights, engine);
    if (!plan.ok()) return plan.status();
    Append(out, "greedy plan (budget " + FormatDouble(*budget, 4) + "): " +
                    std::to_string(plan->steps.size()) + " step(s), cost " +
                    FormatDouble(plan->total_cost, 4) + ", certainty " +
                    FormatDouble(plan->certainty_before, 5) + " -> " +
                    FormatDouble(plan->certainty_after, 5));
    for (const auto& step : plan->steps) {
      Append(out, "  verify " + step.attribute.ToString() + " (gain " +
                      FormatDouble(step.gain, 6) + ")");
    }
    return Status::OK();
  }
  auto ranked = RankEnhancements(*db, *weights, engine);
  if (!ranked.ok()) return ranked.status();
  for (const auto& opt : *ranked) {
    Append(out, "verify " + opt.attribute.ToString() + ": gain " +
                    FormatDouble(opt.gain, 6) + " cost " +
                    FormatDouble(opt.cost, 4) + " ratio " +
                    FormatDouble(opt.ratio, 6));
  }
  return Status::OK();
}

Status RunDisinfo(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "disinfo");
  if (!ok.ok()) return ok;
  auto db = LoadDb(flags);
  if (!db.ok()) return db.status();
  auto reference = LoadReference(flags);
  if (!reference.ok()) return reference.status();
  auto weights = LoadWeights(flags);
  if (!weights.ok()) return weights.status();
  auto rules = ParseRules(flags.GetString("match-rules"));
  if (!rules.ok()) return rules.status();
  auto budget = flags.GetDouble("budget", 8.0);
  if (!budget.ok()) return budget.status();
  auto max_size = flags.GetInt("max-size", 4);
  if (!max_size.ok()) return max_size.status();
  auto max_bogus = flags.GetInt("max-bogus", 2);
  if (!max_bogus.ok()) return max_bogus.status();
  if (*max_size <= 0 || *max_bogus < 0) {
    return Status::InvalidArgument("--max-size/--max-bogus must be positive");
  }

  auto bundle = MakeResolver(flags);
  if (!bundle.ok()) return bundle.status();
  ErOperator adversary(*bundle->resolver);
  RuleMatchFactory factory(*rules);
  DisinformationOptimizer optimizer(factory);
  AutoLeakage engine;

  auto candidates = optimizer.GenerateCandidates(
      *db, *reference, static_cast<std::size_t>(*max_size),
      static_cast<std::size_t>(*max_bogus));
  if (!candidates.ok()) return candidates.status();
  Append(out, "candidates: " + std::to_string(candidates->size()));

  Result<DisinfoPlan> plan = Status::Internal("unset");
  if (flags.Has("exhaustive")) {
    plan = optimizer.OptimizeExhaustive(*db, *reference, adversary,
                                        *candidates, *budget, *weights,
                                        engine);
  } else {
    plan = optimizer.OptimizeGreedy(*db, *reference, adversary, *candidates,
                                    *budget, *weights, engine);
  }
  if (!plan.ok()) return plan.status();
  Append(out, "leakage: " + FormatDouble(plan->leakage_before, 6) + " -> " +
                  FormatDouble(plan->leakage_after, 6) + " (cost " +
                  FormatDouble(plan->total_cost, 4) + " of budget " +
                  FormatDouble(*budget, 4) + ")");
  for (const auto& chosen : plan->chosen) {
    Append(out, "  publish [" + chosen.strategy + "] " +
                    chosen.record.ToString());
  }
  return Status::OK();
}

Status RunReidentify(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "reidentify");
  if (!ok.ok()) return ok;
  auto db = LoadDb(flags);
  if (!db.ok()) return db.status();
  auto weights = LoadWeights(flags);
  if (!weights.ok()) return weights.status();
  // References: one record text per line, from a file or inline.
  std::string text;
  if (flags.Has("references-text")) {
    text = flags.GetString("references-text");
  } else {
    std::string path = flags.GetString("references");
    if (path.empty()) {
      return Status::InvalidArgument(
          "missing --references <file> (one record per line) or "
          "--references-text");
    }
    auto contents = ReadFileToString(path);
    if (!contents.ok()) return contents.status();
    text = std::move(contents).value();
  }
  std::vector<Record> references;
  for (const auto& line : Split(text, '\n')) {
    if (Trim(line).empty()) continue;
    auto record = ParseRecord(line);
    if (!record.ok()) return record.status();
    references.push_back(std::move(record).value());
  }
  if (references.empty()) {
    return Status::InvalidArgument("no reference records supplied");
  }
  AutoLeakage engine;
  auto report = ReidentifyRecords(*db, references, *weights, engine);
  if (!report.ok()) return report.status();
  for (const auto& reid : report->results) {
    Append(out, "record " + std::to_string(reid.record_index) + " -> " +
                    (reid.predicted_person < 0
                         ? std::string("(unattributed)")
                         : "person " + std::to_string(reid.predicted_person)) +
                    " score " + FormatDouble(reid.score, 5) +
                    " (runner-up " + FormatDouble(reid.runner_up, 5) + ")");
  }
  Append(out, "attributed: " + std::to_string(report->attributed) + "/" +
                  std::to_string(db->size()));
  return Status::OK();
}

Status RunStats(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "stats");
  if (!ok.ok()) return ok;
  const std::string format = flags.GetString("format", "prometheus");
  if (format != "prometheus" && format != "json") {
    return Status::InvalidArgument("unknown --format '" + format +
                                   "' (prometheus|json)");
  }
  obs::RegisterBuildInfo(kern::Active().name);
  obs::ExportOptions opts;
  opts.skip_zero = flags.Has("skip-zero");
  opts.skip_histograms = flags.Has("skip-histograms");
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  *out += format == "json" ? obs::RenderJson(snapshot, opts)
                           : obs::RenderPrometheus(snapshot, opts);
  return Status::OK();
}

namespace {

/// The server instance the signal handlers forward to. `RequestShutdown`
/// is async-signal-safe (one write to a self-pipe), so the handler may
/// call it directly.
std::atomic<svc::Server*> g_serving{nullptr};

extern "C" void HandleShutdownSignal(int) {
  if (svc::Server* server = g_serving.load(std::memory_order_acquire)) {
    server->RequestShutdown();
  }
}

Result<std::size_t> GetSize(const FlagSet& flags, std::string_view name,
                            std::size_t fallback) {
  auto v = flags.GetInt(name, static_cast<long long>(fallback));
  if (!v.ok()) return v.status();
  if (*v < 0) {
    return Status::InvalidArgument("--" + std::string(name) +
                                   " must be non-negative");
  }
  return static_cast<std::size_t>(*v);
}

}  // namespace

Status RunServe(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "serve");
  if (!ok.ok()) return ok;
  // Export build identity from process start, not first stats scrape.
  obs::RegisterBuildInfo(kern::Active().name);

  const std::string data_dir = flags.GetString("data-dir");
  if (data_dir.empty()) {
    // The durability riders silently doing nothing would be worse than an
    // error: a caller asking for fsync semantics must be in durable mode.
    for (const char* rider : {"fsync", "fsync-interval-ms", "snapshot-every"}) {
      if (flags.Has(rider)) {
        return Status::InvalidArgument("--" + std::string(rider) +
                                       " requires --data-dir <dir>");
      }
    }
  } else if (flags.Has("db") || flags.Has("db-csv")) {
    return Status::InvalidArgument(
        "--data-dir recovers the store from disk; it cannot be combined "
        "with --db/--db-csv");
  }

  RecordStore store;
  if (flags.Has("db") || flags.Has("db-csv")) {
    auto db = LoadDb(flags);
    if (!db.ok()) return db.status();
    store = RecordStore::FromDatabase(*db);
  }

  std::unique_ptr<persist::DurableStore> durable;
  if (!data_dir.empty()) {
    persist::DurableStore::Options opts;
    auto mode = persist::ParseFsyncMode(flags.GetString("fsync", "always"));
    if (!mode.ok()) return mode.status();
    opts.fsync = *mode;
    auto interval = flags.GetInt("fsync-interval-ms", opts.fsync_interval_ms);
    if (!interval.ok()) return interval.status();
    if (*interval <= 0) {
      return Status::InvalidArgument("--fsync-interval-ms must be >= 1");
    }
    opts.fsync_interval_ms = static_cast<int>(*interval);
    auto every = GetSize(flags, "snapshot-every", 0);
    if (!every.ok()) return every.status();
    opts.snapshot_every = *every;
    auto opened = persist::DurableStore::Open(data_dir, opts);
    if (!opened.ok()) return opened.status();
    durable = std::move(opened).value();
    std::printf("infoleak serve: %s from %s (fsync %s)\n",
                durable->recovery().Summary().c_str(), data_dir.c_str(),
                std::string(persist::FsyncModeName(opts.fsync)).c_str());
  }

  svc::ServiceConfig service_config;
  auto cache_refs = GetSize(flags, "cache-refs",
                            service_config.max_cached_references);
  if (!cache_refs.ok()) return cache_refs.status();
  service_config.max_cached_references = *cache_refs;

  svc::ServerConfig config;
  config.host = flags.GetString("host", config.host);
  auto port = flags.GetInt("port", config.port);
  if (!port.ok()) return port.status();
  if (*port < 0 || *port > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }
  config.port = static_cast<int>(*port);
  auto workers = GetSize(flags, "workers", config.workers);
  if (!workers.ok()) return workers.status();
  if (*workers == 0) return Status::InvalidArgument("--workers must be >= 1");
  config.workers = *workers;
  auto queue_depth = GetSize(flags, "queue-depth", config.queue_depth);
  if (!queue_depth.ok()) return queue_depth.status();
  if (*queue_depth == 0) {
    return Status::InvalidArgument("--queue-depth must be >= 1");
  }
  config.queue_depth = *queue_depth;
  auto deadline = flags.GetInt("deadline-ms", config.deadline_ms);
  if (!deadline.ok()) return deadline.status();
  auto idle = flags.GetInt("idle-timeout-ms", config.idle_timeout_ms);
  if (!idle.ok()) return idle.status();
  if (*deadline < 0 || *idle < 0) {
    return Status::InvalidArgument(
        "--deadline-ms/--idle-timeout-ms must be >= 0 (0 disables)");
  }
  config.deadline_ms = static_cast<int>(*deadline);
  config.idle_timeout_ms = static_cast<int>(*idle);
  auto max_frame = GetSize(flags, "max-frame-bytes", config.max_frame_bytes);
  if (!max_frame.ok()) return max_frame.status();
  if (*max_frame == 0) {
    return Status::InvalidArgument("--max-frame-bytes must be >= 1");
  }
  config.max_frame_bytes = *max_frame;

  std::unique_ptr<svc::LeakageService> service;
  if (durable != nullptr) {
    service =
        std::make_unique<svc::LeakageService>(durable.get(), service_config);
  } else {
    service = std::make_unique<svc::LeakageService>(std::move(store),
                                                    service_config);
  }
  svc::Server server(*service, config);
  Status started = server.Start();
  if (!started.ok()) return started;

  // Dispatch buffers `out` until the command returns, but scripts need the
  // port before the (blocking) serve loop ends — print it directly.
  std::printf("infoleak serve: listening on %s:%d (%zu workers, queue %zu, "
              "deadline %d ms)\n",
              config.host.c_str(), server.port(), config.workers,
              config.queue_depth, config.deadline_ms);
  std::fflush(stdout);

  g_serving.store(&server, std::memory_order_release);
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  Status ran = server.Run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serving.store(nullptr, std::memory_order_release);
  if (!ran.ok()) return ran;

  Append(out, "infoleak serve: drained; " + server.StatsSummary());
  return Status::OK();
}

Status RunCall(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "call");
  if (!ok.ok()) return ok;
  auto port = flags.GetInt("port", 0);
  if (!port.ok()) return port.status();
  if (*port <= 0 || *port > 65535) {
    return Status::InvalidArgument("missing --port <server port>");
  }
  auto timeout = flags.GetInt("timeout-ms", 30000);
  if (!timeout.ok()) return timeout.status();
  auto client = svc::Client::Connect(flags.GetString("host", "127.0.0.1"),
                                     static_cast<int>(*port),
                                     static_cast<int>(*timeout));
  if (!client.ok()) return client.status();

  if (flags.Has("request")) {
    auto response = client->CallRaw(flags.GetString("request"));
    if (!response.ok()) return response.status();
    Append(out, *response);
    return Status::OK();
  }

  const std::string verb = flags.GetString("verb");
  if (verb.empty()) {
    return Status::InvalidArgument(
        "call needs --request '<json line>' or --verb <verb> "
        "[--body '{...}']");
  }
  svc::JsonValue body = svc::JsonValue::Object();
  if (flags.Has("body")) {
    auto parsed = svc::ParseJson(flags.GetString("body"));
    if (!parsed.ok()) return parsed.status();
    if (!parsed->is_object()) {
      return Status::InvalidArgument("--body must be a JSON object");
    }
    body = std::move(parsed).value();
  }
  auto response = client->CallVerb(verb, std::move(body));
  if (!response.ok()) return response.status();
  Append(out, response->Render());
  return Status::OK();
}

namespace {

/// Connection parameters shared by the tail/top introspection commands.
struct TailTarget {
  std::string host;
  int port = 0;
  int timeout_ms = 0;
};

Result<TailTarget> ParseTailTarget(const FlagSet& flags) {
  auto port = flags.GetInt("port", 0);
  if (!port.ok()) return port.status();
  if (*port <= 0 || *port > 65535) {
    return Status::InvalidArgument("missing --port <server port>");
  }
  auto timeout = flags.GetInt("timeout-ms", 30000);
  if (!timeout.ok()) return timeout.status();
  TailTarget target;
  target.host = flags.GetString("host", "127.0.0.1");
  target.port = static_cast<int>(*port);
  target.timeout_ms = static_cast<int>(*timeout);
  return target;
}

/// One `tail` round trip on a fresh connection. Follow mode reconnects per
/// poll rather than holding a connection open, so the server's idle timeout
/// never kills a quiet tail.
Result<svc::JsonValue> FetchTail(const TailTarget& target, long long count,
                                 bool slow, uint64_t after_id,
                                 double min_micros) {
  auto client =
      svc::Client::Connect(target.host, target.port, target.timeout_ms);
  if (!client.ok()) return client.status();
  svc::JsonValue body = svc::JsonValue::Object();
  body.Set("count", svc::JsonValue::Number(static_cast<double>(count)));
  if (slow) body.Set("slow", svc::JsonValue::Bool(true));
  if (after_id > 0) {
    body.Set("after_id",
             svc::JsonValue::Number(static_cast<double>(after_id)));
  }
  if (min_micros > 0) {
    body.Set("min_micros", svc::JsonValue::Number(min_micros));
  }
  auto response = client->CallVerb("tail", std::move(body));
  if (!response.ok()) return response.status();
  const svc::JsonValue* events = response->Find("events");
  if (events == nullptr || !events->is_array()) {
    return Status::Internal("tail response missing \"events\" array");
  }
  return std::move(response).value();
}

/// Micros for one phase out of an event's `phases` object (0 when the
/// server omitted the phase because it never ran).
double PhaseMicros(const svc::JsonValue& event, std::string_view phase) {
  const svc::JsonValue* phases = event.Find("phases");
  if (phases == nullptr) return 0.0;
  const svc::JsonValue* v = phases->Find(phase);
  return (v != nullptr && v->is_number()) ? v->as_number() : 0.0;
}

}  // namespace

Status RunTail(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "tail");
  if (!ok.ok()) return ok;
  auto target = ParseTailTarget(flags);
  if (!target.ok()) return target.status();
  auto count = flags.GetInt("count", 20);
  if (!count.ok()) return count.status();
  if (*count < 1 || *count > 1000) {
    return Status::InvalidArgument("--count must be in [1, 1000]");
  }
  auto after = flags.GetInt("after-id", 0);
  if (!after.ok()) return after.status();
  if (*after < 0) return Status::InvalidArgument("--after-id must be >= 0");
  auto min_micros = flags.GetDouble("min-micros", 0.0);
  if (!min_micros.ok()) return min_micros.status();
  if (*min_micros < 0) {
    return Status::InvalidArgument("--min-micros must be >= 0");
  }
  auto poll_ms = flags.GetInt("poll-ms", 500);
  if (!poll_ms.ok()) return poll_ms.status();
  if (*poll_ms < 1) return Status::InvalidArgument("--poll-ms must be >= 1");
  const bool slow = flags.Has("slow");
  const bool follow = flags.Has("follow");
  if (slow && follow) {
    return Status::InvalidArgument(
        "--follow tails recent events; it cannot combine with --slow");
  }

  uint64_t cursor = static_cast<uint64_t>(*after);
  bool first = true;
  while (true) {
    auto response = FetchTail(*target, *count, slow, cursor, *min_micros);
    if (!response.ok()) {
      // First fetch failing is a user-facing error (bad port, server not
      // up). Later failures in follow mode mean the server went away —
      // that's the documented way a tail ends, not an error.
      if (first || !follow) return response.status();
      return Status::OK();
    }
    first = false;
    for (const svc::JsonValue& event : response->Find("events")->items()) {
      const double id = event.GetNumber("id", 0.0);
      if (id > 0 && static_cast<uint64_t>(id) > cursor) {
        cursor = static_cast<uint64_t>(id);
      }
      if (follow) {
        // Stream directly so `tail --follow | jq` sees events live.
        std::fputs((event.Render() + "\n").c_str(), stdout);
        std::fflush(stdout);
      } else {
        Append(out, event.Render());
      }
    }
    if (!follow) return Status::OK();
    std::this_thread::sleep_for(std::chrono::milliseconds(*poll_ms));
  }
}

Status RunSubscribe(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "subscribe");
  if (!ok.ok()) return ok;
  auto target = ParseTailTarget(flags);
  if (!target.ok()) return target.status();
  std::string reference;
  if (flags.Has("reference-text")) {
    reference = flags.GetString("reference-text");
  } else {
    const std::string path = flags.GetString("reference");
    if (path.empty()) {
      return Status::InvalidArgument(
          "missing --reference <file> (or --reference-text \"{...}\")");
    }
    auto text = ReadFileToString(path);
    if (!text.ok()) return text.status();
    reference = *text;
  }
  while (!reference.empty() &&
         (reference.back() == '\n' || reference.back() == '\r')) {
    reference.pop_back();
  }
  auto max_events = flags.GetInt("max-events", 64);
  if (!max_events.ok()) return max_events.status();
  if (*max_events < 1 || *max_events > 1000) {
    return Status::InvalidArgument("--max-events must be in [1, 1000]");
  }
  auto after = flags.GetInt("after-seq", 0);
  if (!after.ok()) return after.status();
  if (*after < 0) return Status::InvalidArgument("--after-seq must be >= 0");
  auto wait_ms = flags.GetInt("wait-ms", 0);
  if (!wait_ms.ok()) return wait_ms.status();
  if (*wait_ms < 0 || *wait_ms > 10000) {
    return Status::InvalidArgument("--wait-ms must be in [0, 10000]");
  }
  const bool follow = flags.Has("follow");
  // Follow mode long-polls server-side so a quiet feed does not spin;
  // a single fetch defaults to "whatever the ring holds right now".
  const long long poll_wait = *wait_ms > 0 ? *wait_ms : 500;

  uint64_t cursor = static_cast<uint64_t>(*after);
  bool first = true;
  while (true) {
    // Reconnect per poll (like `tail --follow`) so the server's idle
    // timeout never kills a quiet subscription.
    auto response = [&]() -> Result<svc::JsonValue> {
      auto client =
          svc::Client::Connect(target->host, target->port, target->timeout_ms);
      if (!client.ok()) return client.status();
      svc::JsonValue body = svc::JsonValue::Object();
      body.Set("reference", svc::JsonValue::Str(reference));
      if (flags.Has("weights")) {
        body.Set("weights", svc::JsonValue::Str(flags.GetString("weights")));
      }
      // Forwarded as given: the server resolves the pair and refuses an
      // engine beside a non-default measure.
      for (const char* field : {"measure", "engine"}) {
        if (flags.Has(field)) {
          body.Set(field, svc::JsonValue::Str(flags.GetString(field)));
        }
      }
      body.Set("max_events",
               svc::JsonValue::Number(static_cast<double>(*max_events)));
      if (cursor > 0) {
        body.Set("after_seq",
                 svc::JsonValue::Number(static_cast<double>(cursor)));
      }
      const long long wait = follow ? poll_wait : *wait_ms;
      if (wait > 0) {
        body.Set("wait_ms", svc::JsonValue::Number(static_cast<double>(wait)));
      }
      auto r = client->CallVerb("subscribe", std::move(body));
      if (!r.ok()) return r.status();
      const svc::JsonValue* events = r->Find("events");
      if (events == nullptr || !events->is_array()) {
        return Status::Internal("subscribe response missing \"events\" array");
      }
      return std::move(r).value();
    }();
    if (!response.ok()) {
      // First fetch failing is a user-facing error; later failures in
      // follow mode mean the server went away — the documented way a
      // subscription ends, not an error.
      if (first || !follow) return response.status();
      return Status::OK();
    }
    first = false;
    for (const svc::JsonValue& event : response->Find("events")->items()) {
      if (follow) {
        std::fputs((event.Render() + "\n").c_str(), stdout);
        std::fflush(stdout);
      } else {
        Append(out, event.Render());
      }
    }
    const double next = response->GetNumber("cursor", 0.0);
    if (next > 0 && static_cast<uint64_t>(next) > cursor) {
      cursor = static_cast<uint64_t>(next);
    }
    if (!follow) return Status::OK();
  }
}

Status RunTop(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "top");
  if (!ok.ok()) return ok;
  auto target = ParseTailTarget(flags);
  if (!target.ok()) return target.status();
  auto count = flags.GetInt("count", 10);
  if (!count.ok()) return count.status();
  if (*count < 1 || *count > 1000) {
    return Status::InvalidArgument("--count must be in [1, 1000]");
  }
  auto response = FetchTail(*target, *count, /*slow=*/true, /*after_id=*/0,
                            /*min_micros=*/0.0);
  if (!response.ok()) return response.status();

  const auto& events = response->Find("events")->items();
  Append(out, "slow-query ring: " + std::to_string(events.size()) +
                  " retained (recorded " +
                  std::to_string(static_cast<uint64_t>(
                      response->GetNumber("recorded", 0.0))) +
                  ", overwritten " +
                  std::to_string(static_cast<uint64_t>(
                      response->GetNumber("overwritten", 0.0))) +
                  ")");
  if (events.empty()) return Status::OK();
  char line[256];
  std::snprintf(line, sizeof(line),
                "%8s %-9s %-18s %10s %9s %9s %9s %9s %9s %8s %s", "id",
                "verb", "outcome", "total_ms", "queue", "parse", "eval",
                "fsync", "serial", "records", "kernel");
  Append(out, line);
  for (const svc::JsonValue& event : events) {
    std::snprintf(
        line, sizeof(line),
        "%8llu %-9s %-18s %10.3f %9.1f %9.1f %9.1f %9.1f %9.1f %8llu %s",
        static_cast<unsigned long long>(event.GetNumber("id", 0.0)),
        event.GetString("verb", "?").c_str(),
        event.GetString("outcome", "?").c_str(),
        event.GetNumber("total_us", 0.0) / 1000.0, PhaseMicros(event, "queue"),
        PhaseMicros(event, "parse"), PhaseMicros(event, "eval"),
        PhaseMicros(event, "fsync"),
        PhaseMicros(event, "serialize"),
        static_cast<unsigned long long>(event.GetNumber("records", 0.0)),
        event.GetString("kernel", "-").c_str());
    Append(out, line);
  }
  return Status::OK();
}

Status RunCompact(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "compact");
  if (!ok.ok()) return ok;
  const std::string data_dir = flags.GetString("data-dir");
  if (data_dir.empty()) {
    return Status::InvalidArgument("missing --data-dir <dir>");
  }
  // Offline maintenance: recover exactly as serve would, then fold the
  // whole state into one snapshot and an empty WAL.
  auto durable = persist::DurableStore::Open(data_dir);
  if (!durable.ok()) return durable.status();
  Append(out, "recovery: " + (*durable)->recovery().Summary());
  Status compacted = (*durable)->Compact();
  if (!compacted.ok()) return compacted;
  Append(out, "compacted: " + std::to_string((*durable)->store().size()) +
                  " record(s) in one snapshot, wal reset to empty");
  return Status::OK();
}

Status RunSelfCheck(const FlagSet& flags, std::string* out) {
  Status ok = CheckFlags(flags, "selfcheck");
  if (!ok.ok()) return ok;
  check::SelfCheckConfig config;
  auto cases = flags.GetInt("cases", 1000);
  if (!cases.ok()) return cases.status();
  if (*cases < 0) return Status::InvalidArgument("--cases must be >= 0");
  config.cases = static_cast<std::size_t>(*cases);
  auto seed = flags.GetInt("seed", 1);
  if (!seed.ok()) return seed.status();
  config.seed = static_cast<uint64_t>(*seed);
  auto naive_max = flags.GetInt("naive-max", 12);
  if (!naive_max.ok()) return naive_max.status();
  if (*naive_max < 1 || *naive_max > 16) {
    return Status::InvalidArgument(
        "--naive-max must be in [1, 16] (the truth oracle enumerates "
        "2^naive-max worlds)");
  }
  config.oracle.naive_max = static_cast<std::size_t>(*naive_max);
  auto mc_samples = flags.GetInt("mc-samples", 4000);
  if (!mc_samples.ok()) return mc_samples.status();
  if (*mc_samples < 2) {
    return Status::InvalidArgument("--mc-samples must be >= 2");
  }
  config.oracle.mc_samples = static_cast<std::size_t>(*mc_samples);
  auto max_reported = flags.GetInt("max-reported", 20);
  if (!max_reported.ok()) return max_reported.status();
  config.max_reported = static_cast<std::size_t>(std::max(0LL, *max_reported));
  config.corpus_dir = flags.GetString("corpus");
  config.extend_corpus = !flags.Has("no-corpus-write");
  config.scratch_dir = flags.GetString("scratch-dir");

  if (flags.Has("engines")) {
    config.oracle.check_naive = false;
    config.oracle.check_exact = false;
    config.oracle.check_approx = false;
    config.oracle.check_mc = false;
    config.oracle.check_bounds = false;
    config.oracle.check_batch = false;
    config.oracle.check_auto = false;
    // --engines narrows to the named set; the measure family rides along
    // only when --measures asks for it (or "all" resets everything).
    config.oracle.check_pml = false;
    config.oracle.check_guesswork = false;
    config.oracle.check_overunder = false;
    config.check_served = false;
    config.check_durable = false;
    config.check_inc = false;
    for (const std::string& engine :
         Split(flags.GetString("engines"), ',')) {
      if (engine == "naive") config.oracle.check_naive = true;
      else if (engine == "exact") config.oracle.check_exact = true;
      else if (engine == "approx") config.oracle.check_approx = true;
      else if (engine == "mc") config.oracle.check_mc = true;
      else if (engine == "bounds") config.oracle.check_bounds = true;
      else if (engine == "batch") config.oracle.check_batch = true;
      else if (engine == "auto") config.oracle.check_auto = true;
      else if (engine == "served") config.check_served = true;
      else if (engine == "durable") config.check_durable = true;
      else if (engine == "inc") config.check_inc = true;
      else if (engine == "all") {
        config.oracle = check::OracleConfig();
        config.oracle.naive_max = static_cast<std::size_t>(*naive_max);
        config.oracle.mc_samples = static_cast<std::size_t>(*mc_samples);
        config.check_served = true;
        config.check_durable = true;
        config.check_inc = true;
      } else {
        return Status::InvalidArgument(
            "unknown --engines entry '" + engine +
            "' (naive,exact,approx,mc,bounds,batch,auto,served,durable,inc,"
            "all)");
      }
    }
  }

  // --measures selects the measure-family oracle properties independently
  // of --engines (parsed after it, so "--engines naive --measures all"
  // composes). Spellings: all | none | comma list.
  if (flags.Has("measures")) {
    config.oracle.check_pml = false;
    config.oracle.check_guesswork = false;
    config.oracle.check_overunder = false;
    const std::string spec = flags.GetString("measures");
    if (spec != "none") {
      for (const std::string& m : Split(spec, ',')) {
        if (m == "pml") config.oracle.check_pml = true;
        else if (m == "guesswork") config.oracle.check_guesswork = true;
        else if (m == "overunder") config.oracle.check_overunder = true;
        else if (m == "all") {
          config.oracle.check_pml = true;
          config.oracle.check_guesswork = true;
          config.oracle.check_overunder = true;
        } else {
          return Status::InvalidArgument(
              "unknown --measures entry '" + m +
              "' (pml,guesswork,overunder,all,none)");
        }
      }
    }
  }

  auto report = check::RunSelfCheck(config);
  if (!report.ok()) return report.status();
  *out += report->Summary();
  for (const std::string& path : report->corpus_written) {
    Append(out, "corpus entry written: " + path);
  }
  if (!report->clean()) {
    return Status::Internal("selfcheck found " +
                            std::to_string(report->disagreements) +
                            " disagreement(s)");
  }
  Append(out, "selfcheck: all engines and paths agree");
  return Status::OK();
}

std::string UsageText() {
  std::size_t width = 4;  // "help"
  for (const CommandDoc& doc : kCommands) {
    width = std::max(width, doc.name.size());
  }
  std::string out =
      "infoleak — quantify information leakage (Whang & Garcia-Molina, "
      "VLDB 2012)\n"
      "\n"
      "usage: infoleak <command> [flags]\n"
      "\n"
      "commands:\n";
  auto command_line = [&](std::string_view name, std::string_view summary) {
    out += "  " + std::string(name);
    out.append(width + 2 - name.size(), ' ');
    out += summary;
    out += '\n';
  };
  for (const CommandDoc& doc : kCommands) {
    command_line(doc.name, doc.summary);
  }
  command_line("help", "this text; `help <command>` for one command");
  out +=
      "\n"
      "every command also accepts --stats [--stats-format prometheus|json]\n"
      "to append a metrics report, and --trace to append a timing summary.\n"
      "\n"
      "run `infoleak <command> --help` for the command's flags.\n";
  return out;
}

Status Dispatch(const std::vector<std::string>& args, std::string* out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    if (args.size() >= 2) {
      if (const CommandDoc* doc = FindCommand(args[1]); doc != nullptr) {
        *out += HelpText(*doc);
        return Status::OK();
      }
    }
    *out += UsageText();
    return Status::OK();
  }
  auto flags = FlagSet::Parse(
      std::vector<std::string>(args.begin() + 1, args.end()));
  if (!flags.ok()) return flags.status();
  const std::string& command = args[0];
  const CommandDoc* doc = FindCommand(command);
  if (doc == nullptr) {
    *out += UsageText();
    return Status::InvalidArgument("unknown command '" + command + "'");
  }
  if (flags->Has("help")) {
    *out += HelpText(*doc);
    return Status::OK();
  }
  obs::MetricsRegistry::Global()
      .GetCounter("infoleak_cli_commands_total", {{"command", command}},
                  "CLI commands dispatched")
      .Inc();
  Status status = doc->run(*flags, out);
  if (!status.ok()) return status;
  return MaybeAppendStats(*flags, out);
}

}  // namespace infoleak::cli
