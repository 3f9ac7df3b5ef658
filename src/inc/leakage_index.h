#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/column_bank.h"
#include "core/leakage.h"
#include "inc/change_feed.h"
#include "util/result.h"

namespace infoleak::obs {
class RequestContext;
}

namespace infoleak::inc {

struct IndexOptions {
  /// Retained top-k structure (k largest per-record leakages with their
  /// ids). k >= 1; the k-th value is the bound-skip threshold.
  std::size_t top_k = 8;
  /// Records applied per background-maintenance chunk (epoch-bump rebuilds
  /// only). The store's writer gate is held per chunk, so this bounds
  /// append stalls during a rebuild.
  std::size_t maintenance_chunk = 2048;
  /// Delta events retained for `subscribe` consumers.
  std::size_t event_capacity = 1024;
  /// Enables the bounds-based skip (see ApplyOneLocked).
  bool bound_skip = true;
};

/// What an index-backed set-leak query returns: bit-identical to a cold
/// columnar scan of the same store snapshot.
struct IndexAnswer {
  double leakage = 0.0;
  std::ptrdiff_t argmax = -1;
  std::size_t records = 0;  ///< store records covered by the answer
};

/// One maintained append, as streamed to `subscribe` consumers. `seq` is a
/// per-index monotonic cursor that survives epoch bumps (after a rebuild
/// the same record ids are re-delivered under the new epoch with fresh
/// sequence numbers — honest CDC replay semantics).
struct DeltaEvent {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  RecordId record_id = 0;
  double leakage = 0.0;       ///< exact value, or the proven upper bound
  bool skipped = false;       ///< true when `leakage` is a bound, not exact
  double set_leakage = 0.0;   ///< running L0 after this record
  std::ptrdiff_t argmax = -1; ///< running argmax after this record
};

/// Point-in-time observability snapshot of one index.
struct IndexStats {
  uint64_t epoch = 0;
  std::size_t covered = 0;
  bool poisoned = false;
  std::string poison_detail;
  uint64_t applied = 0;
  uint64_t bound_skips = 0;
  uint64_t events_dropped = 0;
  double best = 0.0;
  std::ptrdiff_t best_index = -1;
};

/// \brief A materialized leakage view of the store against one prepared
/// reference: the per-record leakage column, the running set-leakage
/// maximum with its argmax, and a sorted top-k of the largest per-record
/// leakages. Maintained incrementally from the change feed — each append
/// extends the index's own `ColumnBank` by one record from the store's
/// interned cells and evaluates just that record through the engine's
/// columnar kernel — so an index-backed set-leak answers from the
/// maintained maximum plus whatever catch-up delta it has not seen yet,
/// instead of rescanning |R| records. A fresh index catches up inline on
/// its first query; the bounds skip makes that cheaper than the scan it
/// replaces.
///
/// Bit-identity contract: the maintained (max, argmax) equals what a cold
/// `SetLeakageColumnar` over the same records returns, bit for bit. The
/// maintainer reproduces the scan's first-strictly-greater argmax rule, and
/// the bounds-based skip only ever suppresses evaluations that provably
/// cannot enter the top-k (upper bound ≤ current k-th value — and since the
/// k-th value never exceeds the maximum, cannot change the answer). Any
/// evaluation error poisons the index permanently: every later query
/// reports it unusable and the caller's full-scan fallback reproduces the
/// scan's exact first-error behavior. The skip is additionally restricted
/// to engines whose only failure mode is non-finite arithmetic (auto,
/// approx) — such failures surface as non-finite bounds and force the exact
/// evaluation — never to engines with structural errors invisible to the
/// bounds (naive's record-size cap, exact's uniform-weight requirement).
///
/// The index owns private copies of the reference, weight model, and
/// prepared form, so its lifetime is independent of the svc cache entry
/// that created it. The engine is borrowed and must outlive the index's
/// last callback (the service guarantees this by shutting the feed down
/// before the engines die).
///
/// Thread safety: all public methods are safe under concurrent use; one
/// internal mutex serializes maintenance and queries. Epoch invalidation
/// (`OnEpochBump`) clears the materialized state without blocking readers
/// beyond that mutex hold; the rebuild then runs in background chunks on
/// the feed's maintenance thread, racing whichever query catches the index
/// up inline first.
class LeakageIndex final : public DeltaSink {
 public:
  /// Background-maintenance hook: performs one bounded catch-up chunk under
  /// the store's reader lock and returns true when fully caught up. The
  /// serving layer installs `store.MaintainIndex(...)` here; the indirection
  /// keeps this library free of a dependency on the store layer.
  using Maintainer = std::function<bool(LeakageIndex&)>;

  LeakageIndex(Record reference, WeightModel weights,
               const LeakageEngine* engine, IndexOptions options = {},
               Maintainer maintainer = {});

  LeakageIndex(const LeakageIndex&) = delete;
  LeakageIndex& operator=(const LeakageIndex&) = delete;

  const PreparedReference& prepared() const { return prepared_; }
  const LeakageEngine& engine() const { return *engine_; }

  // ----- DeltaSink (called by the change feed) -----------------------------
  void OnAppend(const AppendDelta& delta) override;
  void OnEpochBump(uint64_t epoch, std::string_view reason) override;
  bool BackgroundMaintain() override;

  // ----- Store-called entry points (store reader lock held) ----------------

  /// Answers set-leak from the materialized view over `rows` (the store's
  /// interned cells), closing any gap inline first (charged to the eval
  /// phase of `ctx` — the delta is real kernel work). Failure modes:
  /// DeadlineExceeded when `cancel` fires mid-catch-up (same contract as the
  /// scan path; records applied before the cancel stay applied), and
  /// FailedPrecondition when the index is poisoned, which the caller must
  /// treat as "fall back to a full scan".
  Result<IndexAnswer> QueryLocked(const InternedRecords& rows,
                                  const std::function<bool()>& cancel = {},
                                  obs::RequestContext* ctx = nullptr);

  /// One background catch-up chunk (at most `options.maintenance_chunk`
  /// records). Returns true when the index covers all of `rows` (or is
  /// poisoned — there is nothing more maintenance can do).
  bool MaintainChunkLocked(const InternedRecords& rows);

  // ----- Subscribe support -------------------------------------------------

  struct EventBatch {
    std::vector<DeltaEvent> events;
    uint64_t epoch = 0;
    std::size_t covered = 0;
    uint64_t dropped = 0;  ///< events evicted from the ring, ever
  };

  /// Events with seq > `after_seq`, oldest first, at most `max_events`.
  EventBatch EventsAfter(uint64_t after_seq, std::size_t max_events) const;

  IndexStats Stats() const;

 private:
  /// Extends the materialized view by record `size()` of `rows`: appends
  /// its columns, either proves it cannot enter the top-k (bounds skip) or
  /// evaluates it exactly, repairs the running max / argmax / top-k, and
  /// records the delta event. Must mirror ScanColumnRange's accumulation
  /// exactly. On evaluation error: poisons the index and returns the error.
  Status ApplyOneLocked(const InternedRecords& rows);
  void ResetLocked(uint64_t epoch);

  struct TopEntry {
    double value = 0.0;
    std::ptrdiff_t index = -1;
  };

  const Record reference_;
  const WeightModel weights_;
  const PreparedReference prepared_;
  const LeakageEngine* const engine_;  // borrowed
  const IndexOptions options_;
  const bool skip_eligible_;
  const Maintainer maintainer_;

  mutable std::mutex mu_;
  ColumnBank bank_;            // the index's own columns; borrows prepared_
  std::vector<double> leak_;   // per-record value (upper bound when !exact_)
  std::vector<uint8_t> exact_;
  std::vector<TopEntry> top_;  // sorted by (value desc, index asc)
  double best_ = 0.0;
  std::ptrdiff_t best_index_ = -1;
  uint64_t epoch_ = 0;
  bool poisoned_ = false;
  Status poison_ = Status::OK();
  std::deque<DeltaEvent> events_;
  uint64_t next_event_seq_ = 1;
  uint64_t events_dropped_ = 0;
  uint64_t applied_ = 0;
  uint64_t bound_skips_ = 0;
  LeakageWorkspace ws_;
};

}  // namespace infoleak::inc
