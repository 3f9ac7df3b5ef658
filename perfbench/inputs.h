// Workload inputs for the served-leakage benchmark: the store, the
// references, and each connection's request stream, all derived from the
// benchmark seed through the Table-4 generator, plus the answers the
// library computes offline for every request the streams can send.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/record.h"
#include "util/result.h"

namespace perfbench {

using infoleak::Database;
using infoleak::Record;
using infoleak::Result;
using infoleak::Status;

inline constexpr std::size_t kBaseRecords = 10000;     ///< store size
inline constexpr std::size_t kAttributes = 20;         ///< Table 4's n
inline constexpr std::size_t kHotReferences = 16;      ///< fits the cache
inline constexpr std::size_t kColdReferences = 256;    ///< 4x the cache
inline constexpr std::size_t kFrontierRows = 500;
inline constexpr std::size_t kFrontierSeeds = 32;
/// Requests pre-generated per connection; a stream repeats after this many.
inline constexpr std::size_t kStreamLength = 1 << 15;
/// ingest-durable appends this many records per second of --seconds, so
/// every run with the same --seconds ends at the same store size.
inline constexpr std::size_t kAppendsPerSecond = 3000;

enum class Workload { kAuditHot, kAuditCold, kIngestDurable, kFrontierSweep };

inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::kAuditHot, Workload::kAuditCold, Workload::kIngestDurable,
    Workload::kFrontierSweep};

std::string_view WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);

enum class Verb { kSetLeak, kLeak, kAppend, kFrontier };

std::string_view VerbName(Verb v);

/// One request of a stream, with the keys its expected answer is filed by.
struct Request {
  Verb verb = Verb::kSetLeak;
  std::string line;    ///< the wire line, without the newline
  /// Reference (set-leak, leak) or registry seed index (frontier).
  uint32_t ref = 0;
  /// Record id (leak), appended record (append) or grid point (frontier).
  uint32_t item = 0;
};

struct Reference {
  std::string text;     ///< the record literal sent on the wire
  Record record;        ///< `text` parsed back, as the server sees it
  /// Sent with "engine":"approx"; with the default engine otherwise.
  bool approx = false;
};

/// The frontier grid: rows = 500, ks = {2, 5, 10} x ls = {1, 2}. Each request
/// asks for one point, so a run holds hundreds of frontier requests.
inline constexpr std::array<std::size_t, 3> kFrontierKs = {2, 5, 10};
inline constexpr std::array<std::size_t, 2> kFrontierLs = {1, 2};
inline constexpr std::size_t kFrontierPoints =
    kFrontierKs.size() * kFrontierLs.size();

struct Inputs {
  Workload workload = Workload::kAuditHot;
  uint64_t seed = 0;
  std::string store_csv;        ///< the store as `serve --db` loads it
  Database base;                ///< `store_csv` parsed back
  std::vector<Record> appended; ///< ingest-durable: records the stream appends
  std::vector<Reference> refs;
  std::vector<uint64_t> frontier_seeds;
  /// One request stream per driver connection.
  std::vector<std::vector<Request>> streams;
};

/// Builds a workload's inputs. Deterministic in (workload, seed, seconds):
/// the same arguments give a byte-identical store and request streams.
Result<Inputs> MakeInputs(Workload workload, uint64_t seed, double seconds);

struct SetLeakAnswer {
  double leakage = 0.0;
  std::ptrdiff_t argmax = -1;
  bool operator==(const SetLeakAnswer&) const = default;
};

/// Library answers for every request the streams can send.
struct Answers {
  /// Per reference: set leakage over the base store.
  std::vector<SetLeakAnswer> set_leak;
  /// Per (reference, record id) pair some leak request asks for, keyed by
  /// LeakKey.
  std::unordered_map<uint64_t, double> leak;
  /// ingest-durable, per reference: prefix[n] is the answer over the first
  /// n records of base + appended.
  std::vector<std::vector<SetLeakAnswer>> prefix;
  /// frontier-sweep, per seed index and grid point: the point's NDJSON line.
  std::vector<std::vector<std::string>> frontier;
};

inline uint64_t LeakKey(uint32_t ref, uint32_t record) {
  return (static_cast<uint64_t>(ref) << 32) | record;
}

/// Computes the answers with the library (SetLeakageColumnar, the engines'
/// RecordLeakage, RunFrontier) on a few threads.
Result<Answers> ComputeAnswers(const Inputs& inputs);

/// What a response is checked against beyond the request itself.
struct CheckContext {
  /// ingest-durable set-leak: store size when the request was sent (records
  /// acknowledged before it); the answer may cover any later prefix up to
  /// the size the response reports.
  std::size_t min_records = 0;
};

/// Checks one response line against the offline answer; "" when it
/// matches, otherwise why not. Leakage values are compared as exact doubles
/// parsed from the %.17g wire text.
std::string CheckResponse(const Inputs& inputs, const Answers& answers,
                          const Request& request, std::string_view response,
                          const CheckContext& ctx);

}  // namespace perfbench
