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
  /// Delta events retained for `subscribe` consumers.
  std::size_t event_capacity = 1024;
};

/// What an index-backed set-leak query returns: bit-identical to a cold
/// columnar scan of the same store snapshot.
struct IndexAnswer {
  double leakage = 0.0;
  std::ptrdiff_t argmax = -1;
  std::size_t records = 0;  ///< store records covered by the answer
};

/// One maintained append, as streamed to `subscribe` consumers. The index
/// applies each stored record exactly once and records events in id order
/// (a catch-up's head records none; see `LeakageIndex`), so an event's
/// cursor is its record id plus one.
struct DeltaEvent {
  RecordId record_id = 0;
  double leakage = 0.0;       ///< exact value, or the proven upper bound
  bool skipped = false;       ///< true when `leakage` is a bound, not exact
  double set_leakage = 0.0;   ///< running L0 after this record
  std::ptrdiff_t argmax = -1; ///< running argmax after this record

  uint64_t seq() const { return record_id + 1; }
};

/// Point-in-time observability snapshot of one index.
struct IndexStats {
  std::size_t covered = 0;
  bool poisoned = false;
  std::string poison_detail;
  uint64_t applied = 0;
  uint64_t bound_skips = 0;
  uint64_t events_dropped = 0;
  double best = 0.0;
  std::ptrdiff_t best_index = -1;
};

/// \brief The answer to set-leak over the store against one prepared
/// reference, kept current: the running set-leakage maximum L0 = max_r
/// L(r, p) with its argmax (§4.1), and nothing else. Maintained
/// incrementally from the change feed — each append is bounded from the
/// store's interned cells (`ColumnBank::BoundInterned`), then either proven
/// unable to beat the maximum or resolved into one reused scratch bank and
/// evaluated through the engine's columnar kernel, and dropped — so set-leak
/// answers from the maintained maximum plus whatever catch-up delta the
/// index has not seen yet. The index holds no copy of the store's columns
/// and no per-record values; a fresh index catches up inline on its first
/// query.
///
/// Catch-up (engines that can skip: auto, approx) is a two-pass scan. Pass 1
/// bounds every backlog record from its interned cells. Pass 2 splits the
/// backlog: the tail (the last `event_capacity` records) steps in id order
/// exactly as live appends do, while the head before it is visited in
/// descending upper bound and evaluated only while a bound can still beat
/// the running maximum. Head records emit no events (they are counted as
/// dropped), so the ring, `dropped` and `applied` read as if every record
/// had arrived through `OnAppend`. Engines that cannot skip step the whole
/// backlog in id order.
///
/// Bit-identity contract: the maintained (max, argmax) equals what a cold
/// `SetLeakageColumnar` over the same records returns, bit for bit, in
/// whatever order the records were visited: `RunningMax` keeps the first
/// argmax of the maximum under any visiting order, and the bounds skip (the
/// under/over bounds of core/bounds) only suppresses an evaluation that
/// `RunningMax::CannotBeat` rules out — a finite upper bound below the
/// running maximum, or equal to it at a larger index. The skip is
/// restricted to engines whose only failure mode is non-finite arithmetic
/// (auto, approx) — such failures surface as non-finite bounds and force
/// the exact evaluation, which the ordered head runs first, in id order —
/// never to engines with structural errors invisible to the bounds
/// (naive's record-size cap, exact's uniform-weight requirement). The first
/// evaluation error poisons the index permanently, and every later query
/// returns that error unchanged. Because the store is append-only and
/// failures are met in id order, it is the same first error a cold scan of
/// the store reports. The events of the tail (values, `skipped` flags and
/// running maxima) are bit-identical to those of an index fed one append at
/// a time.
///
/// The index owns private copies of the reference, weight model, and
/// prepared form, so its lifetime is independent of the svc cache entry
/// that created it. The engine is borrowed and must outlive the index's
/// last callback (the service guarantees this by detaching its feed from
/// the store before the engines die).
///
/// Nothing but an append changes the store, so nothing else touches the
/// index: compaction rewrites the snapshot and the log, not the records
/// this maximum summarizes, and the answer, argmax, coverage and event ring
/// all carry across it unchanged.
///
/// Thread safety: all public methods are safe under concurrent use; one
/// internal mutex serializes appends and queries.
class LeakageIndex {
 public:
  LeakageIndex(Record reference, WeightModel weights,
               const LeakageEngine* engine, IndexOptions options = {});

  LeakageIndex(const LeakageIndex&) = delete;
  LeakageIndex& operator=(const LeakageIndex&) = delete;

  const PreparedReference& prepared() const { return prepared_; }
  const LeakageEngine& engine() const { return *engine_; }

  /// Applies one published append (called by the change feed under the
  /// store's writer lock): one record's worth of work, and only when the
  /// delta is the next record this index covers; a gap (an index
  /// registered late) is closed by the next query instead.
  void OnAppend(const AppendDelta& delta);

  // ----- Store-called entry points (store reader lock held) ----------------

  /// Answers set-leak over `rows` (the store's interned cells), closing any
  /// gap inline first (charged to the eval phase of `ctx` — the delta is
  /// real kernel work). Failure modes: DeadlineExceeded when `cancel` fires
  /// mid-catch-up (the records bounded before the cancel are applied, and
  /// stay applied), and the poisoning evaluation error, returned unchanged
  /// — the error a cold scan of `rows` reports.
  Result<IndexAnswer> QueryLocked(const InternedRecords& rows,
                                  const std::function<bool()>& cancel = {},
                                  obs::RequestContext* ctx = nullptr);

  // ----- Subscribe support -------------------------------------------------

  struct EventBatch {
    std::vector<DeltaEvent> events;
    std::size_t covered = 0;
    uint64_t dropped = 0;  ///< events evicted from the ring, or never
                           ///< recorded (a catch-up's head), ever
  };

  /// Events with seq > `after_seq`, oldest first, at most `max_events`.
  EventBatch EventsAfter(uint64_t after_seq, std::size_t max_events) const;

  IndexStats Stats() const;

 private:
  /// Resolves record `id` of `rows` into the scratch bank and evaluates it
  /// exactly. On error: poisons the index and returns the error.
  Result<double> EvaluateLocked(const InternedRecords& rows, std::size_t id);

  /// Applies record `covered_` of `rows` in id order: either proves from
  /// `bound` (its interned-cell bound; null for engines that cannot skip)
  /// that it cannot beat the running maximum, or evaluates it exactly and
  /// offers it to the running maximum, and records the delta event.
  Status ApplyOneLocked(const InternedRecords& rows,
                        const LeakageBounds* bound);

  /// Applies the `head` records from `covered_` on, whose bounds are
  /// `bounds[0, head)`: non-finite bounds evaluated first in id order, then
  /// the rest in descending upper bound while one can beat the maximum. No
  /// events; the ring is emptied and everything counted as dropped.
  Status ApplyHeadLocked(const InternedRecords& rows,
                         const LeakageBounds* bounds, std::size_t head);

  /// Closes the gap to `rows.size`, polling `cancel` every 64 records.
  Status CatchUpLocked(const InternedRecords& rows,
                       const std::function<bool()>& cancel);

  const Record reference_;
  const WeightModel weights_;
  const PreparedReference prepared_;
  const LeakageEngine* const engine_;  // borrowed
  const IndexOptions options_;
  const bool skip_eligible_;

  mutable std::mutex mu_;
  ColumnBank scratch_;       // the record being evaluated; borrows prepared_
  std::size_t covered_ = 0;  // store records applied: the prefix [0, covered_)
  RunningMax best_;
  bool poisoned_ = false;
  Status poison_ = Status::OK();
  std::deque<DeltaEvent> events_;
  uint64_t events_dropped_ = 0;
  uint64_t applied_ = 0;
  uint64_t bound_skips_ = 0;
  LeakageWorkspace ws_;
};

}  // namespace infoleak::inc
