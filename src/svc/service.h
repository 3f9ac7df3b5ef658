#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/leakage.h"
#include "inc/change_feed.h"
#include "inc/leakage_index.h"
#include "store/record_store.h"
#include "svc/protocol.h"

namespace infoleak::persist {
class DurableStore;
}

namespace infoleak::obs {
class Counter;
class RequestContext;
}

namespace infoleak::svc {

struct ServiceConfig {
  /// Cap on the prepared-reference cache (FIFO eviction). Entries are
  /// shared_ptrs, so evicting one that a concurrent request still uses is
  /// safe — it dies with its last user.
  std::size_t max_cached_references = 64;
};

/// `infoleak_svc_requests_total` under one label of obs::kVerbLabels: the
/// counts `stats` reports as "requests". The service counts each parsed
/// request under its wire verb ("other" outside the dispatched verbs); the
/// server counts each line that does not parse as "invalid".
obs::Counter& RequestsCounter(std::string_view label);

/// \brief The query-service brain, free of any socket: executes one parsed
/// `Request` against a resident `RecordStore` and renders the response
/// line. The server's worker pool shares one instance; everything here is
/// thread-safe — the store has its own reader/writer lock, the engines are
/// stateless, and the prepared-reference cache takes a small mutex on
/// lookup only (evaluation runs lock-free on the cached entry).
///
/// The cache is what makes the service a serving layer rather than a CLI
/// in a loop: a repeated reference (the common case — one auditor probing
/// many releases) is interned and prepared once, and every later `leak` /
/// `set-leak` against it reuses the prepared reference.
///
/// `set-leak` has one path, the incremental plane: each cached entry
/// carries per-engine `inc::LeakageIndex` instances registered on the
/// service's `inc::ChangeFeed`, so the store pushes every append into the
/// indexes and `set-leak` is an index lookup plus a delta recompute —
/// bit-identical to a cold scan, errors included (a poisoned index returns
/// the first evaluation error a scan would report).
///
/// Verbs: `ping`, `append`, `leak`, `set-leak`, `resolve`, `subscribe`,
/// `compact`, `stats`, `tail`, `frontier` — see protocol.h for the wire
/// shapes and docs/service.md for the grammar.
class LeakageService {
 public:
  explicit LeakageService(RecordStore store, ServiceConfig config = {});

  /// Durable mode: queries read the store inside `durable` and every
  /// `append` goes through its write-ahead log *before* being acknowledged
  /// (the `infoleak serve --data-dir` path). `durable` is borrowed and must
  /// outlive the service.
  explicit LeakageService(persist::DurableStore* durable,
                          ServiceConfig config = {});

  /// Detaches the change feed from the store before the feed and the live
  /// indexes it fans into go away (a durable store outlives the service).
  ~LeakageService();

  /// Executes one request. `cancel` (optional) is polled mid-evaluation;
  /// returning true aborts with a `deadline_exceeded` response. Returns the
  /// complete response line, without the trailing newline. When `wire_code`
  /// is given it receives the error code of a failed request ("" on
  /// success) so the caller can classify without re-parsing the line.
  ///
  /// `ctx` (optional, borrowed for the call) is the request-scoped
  /// observability context. The creator of a context owns its emission:
  /// when the caller passes one (the server's worker loop, which has
  /// already charged queue wait and wire parsing to it), the caller emits
  /// the finished event into the `obs::EventLog`; when `ctx` is null the
  /// service creates a context of its own and emits it before returning —
  /// so every completed request produces exactly one event either way.
  std::string Handle(const Request& req,
                     const std::function<bool()>& cancel = {},
                     std::string* wire_code = nullptr,
                     obs::RequestContext* ctx = nullptr);

  RecordStore& store() { return ActiveStore(); }
  const RecordStore& store() const {
    return const_cast<LeakageService*>(this)->ActiveStore();
  }

  std::size_t cached_references() const;

 private:
  /// Owns the strings a cached PreparedReference points into. Constructed
  /// in place on the heap and never moved afterwards, so the interior
  /// pointers stay valid for the entry's lifetime.
  struct PreparedEntry {
    Record reference;
    WeightModel weights;
    PreparedReference prepared;
    /// Per-engine leakage indexes (lazily created on the first set-leak or
    /// subscribe; a handful at most, so a flat vector keyed by engine
    /// pointer). Mutable because indexes are evaluation caches, not entry
    /// identity, and entries are shared as pointers-to-const. When the
    /// entry is evicted and dies, its indexes die with it — the feed holds
    /// them weakly — and a re-prepared entry starts fresh
    /// (rebuild-on-eviction).
    mutable std::mutex index_mu;
    mutable std::vector<
        std::pair<const LeakageEngine*, std::shared_ptr<inc::LeakageIndex>>>
        indexes;
    PreparedEntry(Record r, WeightModel w)
        : reference(std::move(r)),
          weights(std::move(w)),
          prepared(reference, weights) {}
  };

  Result<std::shared_ptr<const PreparedEntry>> PrepareReference(
      const JsonValue& body);

  /// The entry's index for `engine`, created (and registered on the feed)
  /// on first use.
  std::shared_ptr<inc::LeakageIndex> GetOrCreateIndex(
      const PreparedEntry& entry, const LeakageEngine* engine);
  Result<JsonValue> Dispatch(const Request& req,
                             const std::function<bool()>& cancel,
                             obs::RequestContext* ctx);

  /// The store queries run against: the durable store's when in durable
  /// mode, the owned in-memory one otherwise.
  RecordStore& ActiveStore();

  persist::DurableStore* durable_ = nullptr;  // borrowed; null in-memory mode
  RecordStore store_;
  ServiceConfig config_;
  /// The incremental plane's spine: the store publishes every append here
  /// (hooked up in the constructors) and live indexes subscribe. Detached
  /// from the store in the destructor, before it and its indexes die.
  /// A `compact` publishes nothing: it changes no stored record.
  inc::ChangeFeed feed_;

  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, std::shared_ptr<const PreparedEntry>>
      reference_cache_;
  std::deque<std::string> cache_order_;  // FIFO eviction
};

}  // namespace infoleak::svc
