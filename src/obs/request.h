#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace infoleak::obs {

/// Steady-clock nanoseconds (monotonic; same epoch across threads) — the
/// clock every request phase and total is read from.
uint64_t TraceNowNanos();

/// \brief Where a request's wall time went. The taxonomy is deliberately
/// coarse — one bucket per architectural layer a request crosses — so the
/// sum of phases accounts for (nearly) all of the end-to-end latency and a
/// slow request points at exactly one layer to blame:
///
///   kQueue     waiting in the server's admission queue before a worker
///              picked the request up
///   kParse     wire-line JSON parsing plus request-body resolution
///              (record/reference parsing, prepared-reference builds)
///   kEval      the evaluation proper (kernel scan, record leakage,
///              dossier expansion, in-memory store apply)
///   kFsync     WAL append + fsync on the durable append path
///   kPublish   change-feed fan-out on the append path: pushing the delta
///              into every registered leakage index
///   kSerialize rendering the response line
///   kAnonymize mechanism application on the frontier path: the lattice
///              search that generalizes/suppresses a table for one
///              (k, l, t, budget) grid point
///   kResolve   adversary entity resolution on the frontier path: ER over
///              the published table before leakage is measured
enum class Phase : int {
  kQueue = 0,
  kParse,
  kEval,
  kFsync,
  kPublish,
  kSerialize,
  kAnonymize,
  kResolve,
};

inline constexpr int kNumPhases = 8;

/// Stable lowercase name ("queue", "parse", ...) used as the `phase` label
/// and the event-log JSON key.
std::string_view PhaseName(Phase phase);

/// \brief One finished request, as the event log stores it. Everything is
/// by value (the verb/outcome strings are copied) except `kernel`, a
/// static-lifetime view (a `kern::KernelTable::name`) or empty.
struct RequestEvent {
  uint64_t id = 0;                ///< process-unique, strictly increasing
  std::string verb;               ///< "set-leak", ... ("invalid" on parse failure)
  std::string outcome;            ///< "ok" or the wire error code
  uint64_t total_nanos = 0;       ///< end-to-end latency incl. queue wait
  std::array<uint64_t, kNumPhases> phase_nanos{};
  uint64_t records_scanned = 0;   ///< records the evaluation touched
  std::string_view kernel;        ///< SIMD variant used; empty when no bank scan ran
  uint64_t bytes_in = 0;          ///< request line bytes
  uint64_t bytes_out = 0;         ///< response line bytes
  uint64_t deadline_nanos = 0;    ///< deadline budget at admission; 0 = none
};

/// \brief Request-scoped accumulator threaded (by pointer) from the server
/// worker through the service, store, persistence, and columnar engines.
/// Construction assigns a process-unique id and stamps the start of
/// processing; `Finish()` closes the clock and yields the RequestEvent for
/// the log. Every mutator is cheap (no locks, no allocation beyond the
/// verb/outcome strings) and the whole plane is optional: layers take a
/// `RequestContext*` defaulting to nullptr, and `PhaseTimer` no-ops on a
/// null context, so un-instrumented callers pay a single branch.
///
/// A context belongs to one request on one logical thread of control; it is
/// not synchronized. The columnar scan's worker threads are joined before
/// the scan returns, so attributing the scan from the calling thread stays
/// race-free.
class RequestContext {
 public:
  /// Assigns the next request id and stamps the processing start time.
  RequestContext();

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  uint64_t id() const { return event_.id; }

  void set_verb(std::string_view verb) { event_.verb.assign(verb); }
  void set_outcome(std::string_view outcome) { event_.outcome.assign(outcome); }
  void set_bytes_in(uint64_t n) { event_.bytes_in = n; }
  void set_bytes_out(uint64_t n) { event_.bytes_out = n; }
  void set_deadline_nanos(uint64_t n) { event_.deadline_nanos = n; }

  /// `name` must have static lifetime (kernel-table names do).
  void set_kernel_variant(std::string_view name) { event_.kernel = name; }

  void AddPhaseNanos(Phase phase, uint64_t nanos) {
    event_.phase_nanos[static_cast<int>(phase)] += nanos;
  }
  void AddRecordsScanned(uint64_t n) { event_.records_scanned += n; }

  uint64_t phase_nanos(Phase phase) const {
    return event_.phase_nanos[static_cast<int>(phase)];
  }

  /// Closes the end-to-end clock and returns the finished event. Total
  /// latency is queue wait plus time since construction — the queue phase
  /// happened before this context existed, so it is added back explicitly.
  RequestEvent Finish() const;

 private:
  RequestEvent event_;
  uint64_t start_ns_ = 0;  ///< TraceNowNanos() at construction
};

/// \brief RAII phase attribution: adds the scope's wall time to one phase
/// of `ctx`. Null-safe — with no context it reads no clock and costs one
/// branch, which is what keeps instrumented layers free for callers
/// outside the serving path.
class PhaseTimer {
 public:
  PhaseTimer(RequestContext* ctx, Phase phase)
      : ctx_(ctx), phase_(phase), start_ns_(ctx ? TraceNowNanos() : 0) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (ctx_ != nullptr) {
      ctx_->AddPhaseNanos(phase_, TraceNowNanos() - start_ns_);
    }
  }

 private:
  RequestContext* ctx_;
  Phase phase_;
  uint64_t start_ns_;
};

}  // namespace infoleak::obs
