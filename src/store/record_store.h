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

/// \brief A persistent, indexed record collection: the storage layer a
/// long-running adversary (or defender's ledger) would keep between
/// sessions. Records live in an in-memory `Database`, every attribute is
/// posted to an inverted index on insert, and the whole store round-trips
/// through the long-format CSV of `core/record_io`. Beside each record the
/// store keeps its cells as the (label id, value id, confidence) triples
/// the index interned, so column banks and leakage indexes extend from
/// integers instead of re-hashing strings.
///
/// The index powers `Dossier()`: the §2.4 dipping query for shared-value
/// matching, computed by graph expansion over posting lists — each hop
/// touches only the records actually sharing a value with the frontier,
/// instead of resolving the entire database. Equivalent to
/// `DippingResult` with a `RuleMatch::SharedValue` resolver (tested), at a
/// fraction of the match calls.
///
/// Thread safety: an internal `std::shared_mutex` makes one store safe to
/// share between concurrent readers (`Get`, `Lookup`, `Dossier`, `Leakage`,
/// `SetLeak`, `Flush`, `size`) and a writer (`Append`) — the contract the
/// `infoleak serve` worker pool relies on. Each read holds the lock shared
/// for its whole duration, so a set-leakage scan sees one consistent
/// snapshot while appends queue behind it. The reference accessors
/// `database()`/`index()` are unsynchronized views: callers must quiesce
/// writers before using them. Moves are not synchronized; move a store only
/// before sharing it.
class RecordStore {
 public:
  RecordStore() = default;
  RecordStore(RecordStore&& other) noexcept;
  RecordStore& operator=(RecordStore&& other) noexcept;

  /// Loads a store from `path` (CSV long format); a missing file yields an
  /// empty store bound to that path.
  static Result<RecordStore> Open(const std::string& path);

  /// Builds an in-memory store from an existing database (no file bound).
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
  inc::ChangeFeed* change_feed() const;

  /// Persists to the bound path (or `path` when given).
  Status Flush(const std::string& path = "") const;

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

  /// Set leakage of the stored database against person `p`: prepares `p`
  /// once and scores every stored record through the engine's prepared
  /// path (string fallback for engines without one).
  Result<double> Leakage(const Record& p, const WeightModel& wm,
                         const LeakageEngine& engine) const;

  /// Serving-path set leakage against a caller-prepared reference (reused
  /// across requests), with optional arg-max reporting and cancellation —
  /// `cancel` is polled periodically mid-scan so a deadline can abort a
  /// long evaluation with DeadlineExceeded. Holds the read lock for the
  /// whole scan: one consistent snapshot, bit-identical to `Leakage` on a
  /// quiescent store. `ctx` (optional, borrowed for the call) receives
  /// eval-phase attribution and the records-scanned count.
  Result<double> SetLeak(const PreparedReference& ref,
                         const LeakageEngine& engine,
                         std::ptrdiff_t* argmax = nullptr,
                         const std::function<bool()>& cancel = {},
                         obs::RequestContext* ctx = nullptr) const;

  /// Columnar serving path: extends the caller's `bank` from the store's
  /// interned cells with any records appended since its last use (under
  /// `bank_mu` exclusive), then scans it via SetLeakageColumnar (under
  /// `bank_mu` shared) — so repeat queries against one cached reference
  /// resolve only records new since the previous query. The bank must have
  /// been built against this store (it grows only through this method);
  /// the store's read lock is held throughout for one consistent snapshot.
  /// Results are bit-identical to `SetLeak` with the same reference. `ctx`
  /// (optional) splits the time into catch-up (bank extension) and eval
  /// (the scan) phases and reports records scanned plus the kernel variant.
  Result<double> SetLeakColumnar(ColumnBank& bank, std::shared_mutex& bank_mu,
                                 const LeakageEngine& engine,
                                 std::ptrdiff_t* argmax = nullptr,
                                 const std::function<bool()>& cancel = {},
                                 obs::RequestContext* ctx = nullptr) const;

  /// Index-backed serving path: answers set-leak from a materialized
  /// `LeakageIndex` under the store's read lock (one consistent snapshot —
  /// the same guarantee the scan paths give). The index closes any gap
  /// inline from the store's interned cells; see LeakageIndex::QueryLocked
  /// for the failure contract (FailedPrecondition = poisoned, "fall back to
  /// a scan"; DeadlineExceeded = cancelled). Answers are bit-identical to
  /// `SetLeakColumnar` with the same reference and engine.
  Result<inc::IndexAnswer> SetLeakIndexed(
      inc::LeakageIndex& index, const std::function<bool()>& cancel = {},
      obs::RequestContext* ctx = nullptr) const;

  /// One background catch-up chunk for `index` under the store's read lock;
  /// returns true when the index fully covers the store. The change feed's
  /// maintenance thread drives this through the maintainer hook.
  bool MaintainIndex(inc::LeakageIndex& index) const;

  /// Record leakage L(r, p) of the stored record `id` against a prepared
  /// reference, through the engine's prepared path (string fallback).
  Result<double> RecordLeak(RecordId id, const PreparedReference& ref,
                            const LeakageEngine& engine,
                            obs::RequestContext* ctx = nullptr) const;

 private:
  mutable std::shared_mutex mu_;
  Database db_;
  InvertedIndex index_;
  std::vector<InternedCell> cells_;        // every record's cells, in order
  std::vector<uint64_t> cell_offsets_{0};  // db_.size() + 1 entries
  std::string path_;
  inc::ChangeFeed* feed_ = nullptr;  // borrowed; null = no incremental plane
};

}  // namespace infoleak
