#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "persist/wal.h"
#include "store/record_store.h"
#include "util/result.h"

namespace infoleak::obs {
class RequestContext;
}

namespace infoleak::persist {

/// \brief A `RecordStore` with a durability contract: every `Append` is
/// written (and, under `FsyncMode::kAlways`, fsynced) to the write-ahead
/// log *before* it is applied in memory and acknowledged, so a `kill -9`
/// at any instant never loses an acknowledged record. Recovery is
/// snapshot + log replay:
///
///   1. load the newest snapshot that passes checksum validation
///      (half-written or damaged snapshot files are skipped, never fatal);
///   2. replay the WAL from the snapshot's covered offset, truncating at
///      the first torn or corrupt frame instead of failing;
///   3. resume appending at the truncated tail.
///
/// Because records are re-appended in their original order, the recovered
/// store rebuilds its inverted index and interned symbols deterministically
/// and answers every leakage query bit-identically to the never-restarted
/// store (asserted by tests/persist_roundtrip_test.cpp).
///
/// Snapshots run on a background thread (`Options::snapshot_every`):
/// the appender is paused only while the database is copied in memory,
/// readers are never blocked, and the file lands via the atomic
/// temp → fsync → rename rotation. `Compact` additionally resets the WAL
/// so the directory shrinks back to one snapshot + an empty log.
///
/// Thread safety: `Append`, `Snapshot`, `Compact`, `Sync`, and
/// `wal_offset` may be called concurrently; reads go straight to the
/// inner `store()` (which has its own reader/writer lock).
class DurableStore {
 public:
  struct Options {
    FsyncMode fsync = FsyncMode::kAlways;
    /// Cadence of the background fsync under `FsyncMode::kInterval`.
    int fsync_interval_ms = 25;
    /// Background-snapshot every this many appends; 0 = only explicit
    /// `Snapshot()` / `Compact()` calls.
    uint64_t snapshot_every = 0;
    /// Snapshot files retained after a successful new snapshot (the
    /// newest plus this many predecessors).
    std::size_t keep_snapshots = 1;
  };

  /// What recovery found and repaired; stable after `Open` returns.
  struct RecoveryInfo {
    std::string snapshot_file;       ///< loaded snapshot; empty when none
    uint64_t snapshot_records = 0;   ///< records loaded from the snapshot
    uint64_t skipped_snapshots = 0;  ///< invalid snapshot files passed over
    uint64_t replayed_frames = 0;    ///< WAL frames applied after the snapshot
    uint64_t truncated_bytes = 0;    ///< damaged WAL tail bytes dropped
    /// OK for a clean tail; Corruption describing the first torn/corrupt
    /// frame otherwise (recovered, not fatal).
    Status wal_damage;

    /// One line for logs: "recovered N records (snapshot S + M replayed...)".
    std::string Summary() const;
  };

  /// Opens (creating if needed) the data directory and recovers the store.
  static Result<std::unique_ptr<DurableStore>> Open(const std::string& dir,
                                                    Options options);
  static Result<std::unique_ptr<DurableStore>> Open(const std::string& dir) {
    return Open(dir, Options());
  }

  /// Recovery-oracle hook: closes `store` (flushing the WAL and stopping
  /// the background thread), then recovers a fresh instance from the same
  /// directory with the same options. The recovered store must answer every
  /// leakage query bit-identically to the closed one — `infoleak selfcheck`
  /// drives its pre- vs post-recovery comparison through this.
  static Result<std::unique_ptr<DurableStore>> Reopen(
      std::unique_ptr<DurableStore> store);

  /// Stops the background thread and flushes the log (best effort).
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Persists `record` to the WAL (fsyncing per policy), then applies it to
  /// the in-memory store and returns its id. On a WAL write failure nothing
  /// is applied and the error is returned — the caller must not ack — and
  /// the WAL refuses every later append until a restart (see WalWriter). `ctx`
  /// (optional, borrowed for the call) receives the WAL write+fsync as the
  /// fsync phase and the in-memory apply as the eval phase.
  Result<RecordId> Append(Record record, obs::RequestContext* ctx = nullptr);

  /// Writes a snapshot of the current state now (synchronous).
  Status Snapshot();

  /// Offline maintenance: snapshot the full state, reset the WAL to empty,
  /// and prune superseded snapshot files. Appends are held off throughout.
  /// The in-memory store is left exactly as it was, so derived state
  /// (leakage indexes, subscribe cursors) is untouched.
  Status Compact();

  /// Forces a WAL fsync now (the kInterval tick; a no-op risk-reducer for
  /// kNever before planned shutdowns).
  Status Sync();

  RecordStore& store() { return store_; }
  const RecordStore& store() const { return store_; }

  const RecoveryInfo& recovery() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  const Options& options() const { return options_; }

  uint64_t wal_offset() const;

 private:
  DurableStore(std::string dir, Options options);

  /// Copies the state under the append lock, then writes the snapshot file
  /// outside it. Serialized by snapshot_mu_.
  Status DoSnapshot();
  Status PruneSnapshots(std::size_t keep);
  void BackgroundLoop();

  const std::string dir_;
  const Options options_;
  const std::string wal_path_;
  RecoveryInfo recovery_;
  RecordStore store_;

  mutable std::mutex append_mu_;  // serializes WAL writes + store appends
  WalWriter wal_;
  uint64_t appends_since_snapshot_ = 0;
  std::atomic<bool> wal_dirty_{false};  // unsynced bytes (interval mode)

  std::mutex snapshot_mu_;  // serializes DoSnapshot / Compact
  std::atomic<uint64_t> last_snapshot_records_{0};

  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool stop_ = false;
  bool snapshot_requested_ = false;
  std::thread background_;
};

}  // namespace infoleak::persist
