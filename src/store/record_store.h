#pragma once

#include <functional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/leakage.h"
#include "inc/change_feed.h"
#include "inc/leakage_index.h"
#include "store/inverted_index.h"
#include "util/result.h"

namespace infoleak::obs {
class RequestContext;
}

namespace infoleak {

/// \brief An indexed, in-memory record collection: the storage layer a
/// long-running adversary (or defender's ledger) keeps. Records live in a
/// `Database` and every attribute is posted to an inverted index on
/// insert; durability is persist::DurableStore's job (a WAL and snapshots
/// around one of these). Beside each record the store keeps its cells as
/// the (label id, value id, confidence) triples the index interned, so
/// column banks and leakage indexes extend from integers instead of
/// re-hashing strings.
///
/// The index powers `Dossier()`: the §2.4 dipping query for shared-value
/// matching, computed by graph expansion over posting lists — each hop
/// touches only the records actually sharing a value with the frontier,
/// instead of resolving the entire database. Equivalent to
/// `DippingResult` with a `RuleMatch::SharedValue` resolver (tested), at a
/// fraction of the match calls.
///
/// Thread safety: an internal `std::shared_mutex` makes one store safe to
/// share between concurrent readers (`Get`, `Lookup`, `Dossier`,
/// `SetLeakIndexed`, `RecordLeak`, `size`) and a writer (`Append`) — the
/// contract the `infoleak serve` worker pool relies on.
/// Each read holds the lock shared for its whole duration, so a set-leak
/// sees one consistent snapshot while appends queue behind it. The
/// reference accessors `database()`/`index()` are unsynchronized views:
/// callers must quiesce writers before using them. Moves are not
/// synchronized; move a store only before sharing it.
class RecordStore {
 public:
  RecordStore() = default;
  RecordStore(RecordStore&& other) noexcept;
  RecordStore& operator=(RecordStore&& other) noexcept;

  /// Builds a store from an existing database.
  static RecordStore FromDatabase(const Database& db);

  /// Appends a record, indexing its attributes; returns its id. With a
  /// change feed attached, the insert is published to every registered
  /// leakage index before the writer lock is released — feed order is id
  /// order, with no gaps. `ctx` (optional) receives the fan-out time as the
  /// publish phase.
  RecordId Append(Record record, obs::RequestContext* ctx = nullptr);

  /// Attaches (or detaches, with null) the change feed `Append` publishes
  /// to. Takes the writer lock, so it cannot race an in-flight append; the
  /// feed must outlive the store or be detached first.
  void SetChangeFeed(inc::ChangeFeed* feed);

  /// Unsynchronized views — quiesce writers before touching these.
  const Database& database() const { return db_; }
  const InvertedIndex& index() const { return index_; }
  /// Every record's cells interned into `index().symbols()`.
  InternedRecords interned() const {
    return InternedRecords{&index_.symbols(), cells_.data(),
                           cell_offsets_.data(), db_.size()};
  }

  /// Consistent copy of the stored database, taken under the read lock —
  /// what the persistence layer serializes while the store keeps serving.
  Database SnapshotDatabase() const;

  std::size_t size() const;

  /// Record by id; OutOfRange when absent.
  Result<Record> Get(RecordId id) const;

  /// Ids of records carrying (label, value) — one posting list.
  std::vector<RecordId> Lookup(std::string_view label,
                               std::string_view value) const;

  /// Index-accelerated dipping: merges every record transitively reachable
  /// from `query` by sharing a value on one of `labels` (all labels when
  /// empty). Returns the merged dossier (the query's own attributes
  /// included) and, optionally, the touched record ids.
  Result<Record> Dossier(const Record& query,
                         const std::vector<std::string>& labels = {},
                         std::vector<RecordId>* members = nullptr) const;

  /// The set-leak serving path: answers from a `LeakageIndex` under the
  /// store's read lock, so the answer covers one consistent snapshot. The
  /// index closes any gap inline from the store's interned cells; see
  /// LeakageIndex::QueryLocked for the failure contract (DeadlineExceeded =
  /// cancelled; a poisoned index returns its first evaluation error).
  /// Answers, errors included, are bit-identical to `SetLeakage` over
  /// `SnapshotDatabase()` with the same reference and engine.
  Result<inc::IndexAnswer> SetLeakIndexed(
      inc::LeakageIndex& index, const std::function<bool()>& cancel = {},
      obs::RequestContext* ctx = nullptr) const;

  /// Record leakage L(r, p) of the stored record `id` against a prepared
  /// reference: the record is filled into a one-record view and evaluated
  /// by the engine's view body.
  Result<double> RecordLeak(RecordId id, const PreparedReference& ref,
                            const LeakageEngine& engine,
                            obs::RequestContext* ctx = nullptr) const;

 private:
  mutable std::shared_mutex mu_;
  Database db_;
  InvertedIndex index_;
  std::vector<InternedCell> cells_;        // every record's cells, in order
  std::vector<uint64_t> cell_offsets_{0};  // db_.size() + 1 entries
  inc::ChangeFeed* feed_ = nullptr;  // borrowed; null = no incremental plane
};

}  // namespace infoleak
