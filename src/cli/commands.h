#pragma once

#include <string>
#include <vector>

#include "cli/flags.h"
#include "util/status.h"

namespace infoleak::cli {

/// The `infoleak` command-line tool, exposed as a library so tests can
/// drive it without spawning processes. Each command renders its report
/// into `out` and returns a Status; `Dispatch` routes `args[0]` to the
/// matching command.
///
/// Commands:
///   leakage     --db <csv> --reference <file|--reference-text "{...}">
///               [--weights N=2,..] [--engine auto|naive|exact|approx]
///               [--beta B] [--resolve --match-rules "N|N+P" ...]
///   er          --db <csv> --match-rules "N+C|N+P"
///               [--resolver swoosh|transitive|blocked] [--block-labels N,P]
///   incremental --db <csv> --reference ... --release-text "{...}"
///               --match-rules ...
///   generate    [--n 100] [--records 1000] [--pc ...] [--pp ...] [--pb ...]
///               [--m ...] [--seed S] [--random-weights] [--emit-reference]
///   anonymize   --table <csv> --qi "Zip:suffix:3,Age:interval:10:50"
///               --k K [--sensitive Disease]
///   frontier    [--seed S] [--rows N] [--ks 2,5] [--ls 1] [--ts 1]
///               [--suppress 0] [--measure M] [--threads N] [--phases]
///               (sweep anonymization grids; one NDJSON line per point)
///   dipping     --db <csv> --query-text "{...}" --match-rules ...
///   enhance     --db <csv> [--budget B]
///   disinfo     --db <csv> --reference ... --match-rules ...
///               [--budget B] [--max-size S] [--max-bogus K] [--exhaustive]
///   reidentify  --db <csv> --references <file with one record per line>
///   stats       [--format prometheus|json] [--skip-zero]
///               [--skip-histograms]
///   serve       [--port P] [--workers N] [--queue-depth D]
///               [--deadline-ms MS] [--idle-timeout-ms MS]
///               [--max-frame-bytes B] [--cache-refs N] [--db <csv>]
///               [--data-dir DIR [--fsync always|interval|never]
///                [--fsync-interval-ms MS] [--snapshot-every N]]
///   call        --port P [--host H] [--timeout-ms MS]
///               (--request '<json line>' | --verb V [--body '{...}'])
///   tail        --port P [--host H] [--count N] [--slow] [--after-id ID]
///               [--min-micros US] [--follow [--poll-ms MS]]
///               (stream a server's request event log as NDJSON)
///   subscribe   --port P --reference <file|--reference-text "{...}">
///               [--weights N=2,..] [--engine auto|naive|exact|approx]
///               [--max-events N] [--after-seq S] [--wait-ms MS] [--follow]
///               (stream a server's per-append leakage deltas as NDJSON)
///   top         --port P [--host H] [--count N]
///               (table of the server's slowest requests, phase by phase)
///   compact     --data-dir DIR  (offline snapshot + WAL reset)
///   selfcheck   [--cases N] [--seed S] [--engines naive,exact,...]
///               [--corpus DIR [--no-corpus-write]] [--naive-max K]
///               [--mc-samples N] [--max-reported N] [--scratch-dir DIR]
///
/// `infoleak <command> --help` (or `infoleak help <command>`) prints the
/// command's full flag vocabulary; the same registry backs unknown-flag
/// rejection, so help and validation cannot drift apart.
///
/// Every command additionally accepts the observability riders
/// `--stats [--stats-format prometheus|json]` (append a metrics report to
/// the command output) and `--trace` (append a timing summary). Flags
/// outside a command's vocabulary are rejected with InvalidArgument.
///
/// File-less variants for scripting/tests: --db-csv and --table-csv accept
/// the document inline.

Status Dispatch(const std::vector<std::string>& args, std::string* out);

Status RunLeakage(const FlagSet& flags, std::string* out);
Status RunEr(const FlagSet& flags, std::string* out);
Status RunIncremental(const FlagSet& flags, std::string* out);
Status RunGenerate(const FlagSet& flags, std::string* out);
Status RunAnonymize(const FlagSet& flags, std::string* out);
Status RunFrontier(const FlagSet& flags, std::string* out);
Status RunDipping(const FlagSet& flags, std::string* out);
Status RunEnhance(const FlagSet& flags, std::string* out);
Status RunDisinfo(const FlagSet& flags, std::string* out);
Status RunReidentify(const FlagSet& flags, std::string* out);
Status RunStats(const FlagSet& flags, std::string* out);
Status RunServe(const FlagSet& flags, std::string* out);
Status RunCall(const FlagSet& flags, std::string* out);
Status RunTail(const FlagSet& flags, std::string* out);
Status RunSubscribe(const FlagSet& flags, std::string* out);
Status RunTop(const FlagSet& flags, std::string* out);
Status RunCompact(const FlagSet& flags, std::string* out);
Status RunSelfCheck(const FlagSet& flags, std::string* out);

/// Usage text for `infoleak help` / bad invocations.
std::string UsageText();

}  // namespace infoleak::cli
