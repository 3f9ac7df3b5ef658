#include "persist/durable_store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "persist/snapshot.h"

namespace infoleak::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kWalFileName = "wal.log";

/// Snapshot files present in `dir`, newest (highest record count) first.
std::vector<std::pair<uint64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    auto count = ParseSnapshotFileName(name);
    if (count.ok()) found.emplace_back(*count, name);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

obs::Counter& BackgroundSyncFailures() {
  static obs::Counter& failures = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_store_background_sync_failures_total", {},
      "Interval-mode background WAL fsyncs that failed or were refused by "
      "a poisoned WAL");
  return failures;
}

std::vector<const Record*> RecordPointers(const Database& db) {
  std::vector<const Record*> ptrs;
  ptrs.reserve(db.size());
  for (const Record& r : db) ptrs.push_back(&r);
  return ptrs;
}

}  // namespace

std::string DurableStore::RecoveryInfo::Summary() const {
  std::string s = "recovered " +
                  std::to_string(snapshot_records + replayed_frames) +
                  " records (";
  if (snapshot_file.empty()) {
    s += "no snapshot";
  } else {
    s += "snapshot " + snapshot_file + " with " +
         std::to_string(snapshot_records);
  }
  s += " + " + std::to_string(replayed_frames) + " replayed from wal)";
  if (skipped_snapshots > 0) {
    s += ", skipped " + std::to_string(skipped_snapshots) +
         " invalid snapshot(s)";
  }
  if (!wal_damage.ok()) {
    s += ", truncated " + std::to_string(truncated_bytes) +
         " damaged wal byte(s): " + wal_damage.message();
  }
  return s;
}

Result<std::unique_ptr<DurableStore>> DurableStore::Reopen(
    std::unique_ptr<DurableStore> store) {
  if (store == nullptr) {
    return Status::InvalidArgument("Reopen needs a live store");
  }
  const std::string dir = store->dir();
  const Options options = store->options();
  store.reset();  // flush the WAL and stop the background thread first
  return Open(dir, options);
}

DurableStore::DurableStore(std::string dir, Options options)
    : dir_(std::move(dir)),
      options_(options),
      wal_path_(dir_ + "/" + std::string(kWalFileName)) {}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir, Options options) {
  obs::TraceSpan span("persist/open");
  static obs::Counter& recoveries = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_store_recoveries_total", {},
      "Durable store recoveries (snapshot load + wal replay)");

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir " + dir + ": " +
                            ec.message());
  }

  // unique_ptr rather than a local: the background thread (started below)
  // needs a stable address.
  std::unique_ptr<DurableStore> store(new DurableStore(dir, options));

  // Newest snapshot that validates wins; damaged ones are skipped, and a
  // directory with only damaged snapshots degrades to a full WAL replay.
  uint64_t wal_start = 0;
  for (const auto& [count, name] : ListSnapshots(dir)) {
    auto snapshot = ReadSnapshotFile(dir + "/" + name);
    if (!snapshot.ok()) {
      ++store->recovery_.skipped_snapshots;
      continue;
    }
    for (Record& r : snapshot->records) {
      store->store_.Append(std::move(r));
    }
    store->recovery_.snapshot_file = name;
    store->recovery_.snapshot_records = snapshot->records.size();
    wal_start = snapshot->wal_offset;
    break;
  }

  INFOLEAK_ASSIGN_OR_RETURN(
      WalReplayResult replay,
      ReplayWal(
          store->wal_path_, wal_start,
          [&](Record r) {
            store->store_.Append(std::move(r));
            return Status::OK();
          },
          /*truncate_damage=*/true));
  store->recovery_.replayed_frames = replay.frames;
  store->recovery_.truncated_bytes = replay.truncated_bytes;
  store->recovery_.wal_damage = replay.damage;

  INFOLEAK_ASSIGN_OR_RETURN(store->wal_,
                            WalWriter::Open(store->wal_path_, options.fsync));
  store->last_snapshot_records_.store(store->recovery_.snapshot_records);
  store->appends_since_snapshot_ =
      store->store_.size() - store->recovery_.snapshot_records;
  recoveries.Inc();

  if (options.fsync == FsyncMode::kInterval || options.snapshot_every > 0) {
    store->background_ = std::thread([s = store.get()] { s->BackgroundLoop(); });
  }
  return store;
}

DurableStore::~DurableStore() {
  {
    std::lock_guard lock(bg_mu_);
    stop_ = true;
  }
  bg_cv_.notify_all();
  if (background_.joinable()) background_.join();
  // Shutdown flush narrows the loss window for kInterval/kNever; errors
  // have no caller to go to.
  std::lock_guard lock(append_mu_);
  if (wal_.is_open()) wal_.Sync();
}

Result<RecordId> DurableStore::Append(Record record,
                                      obs::RequestContext* ctx) {
  bool want_snapshot = false;
  RecordId id;
  {
    std::lock_guard lock(append_mu_);
    // Log first: if the frame cannot be made durable the store must not
    // advance, or an acknowledged id could vanish on restart.
    {
      obs::PhaseTimer fsync_phase(ctx, obs::Phase::kFsync);
      INFOLEAK_RETURN_IF_ERROR(wal_.Append(record));
    }
    // The store attributes the in-memory apply (eval) and the change-feed
    // fan-out (publish) itself.
    id = store_.Append(std::move(record), ctx);
    if (options_.fsync == FsyncMode::kInterval) wal_dirty_.store(true);
    if (options_.snapshot_every > 0 &&
        ++appends_since_snapshot_ >= options_.snapshot_every) {
      appends_since_snapshot_ = 0;
      want_snapshot = true;
    }
  }
  if (want_snapshot) {
    {
      std::lock_guard lock(bg_mu_);
      snapshot_requested_ = true;
    }
    bg_cv_.notify_all();
  }
  return id;
}

Status DurableStore::DoSnapshot() {
  obs::TraceSpan span("persist/snapshot");
  std::lock_guard serialize(snapshot_mu_);
  // Appends pause only for the in-memory copy; the encode and the file
  // write happen outside the lock while the store keeps serving.
  Database db;
  uint64_t wal_offset;
  {
    std::lock_guard lock(append_mu_);
    db = store_.SnapshotDatabase();
    wal_offset = wal_.offset();
  }
  if (db.size() == last_snapshot_records_.load() && db.size() > 0) {
    return Status::OK();  // nothing new since the last snapshot
  }
  INFOLEAK_RETURN_IF_ERROR(
      WriteSnapshotFile(dir_ + "/" + SnapshotFileName(db.size()),
                        RecordPointers(db), wal_offset));
  last_snapshot_records_.store(db.size());
  return PruneSnapshots(1 + options_.keep_snapshots);
}

Status DurableStore::Snapshot() { return DoSnapshot(); }

Status DurableStore::Compact() {
  obs::TraceSpan span("persist/compact");
  static obs::Counter& compactions = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_store_compactions_total", {},
      "Durable store compactions (snapshot + wal reset)");
  std::lock_guard serialize(snapshot_mu_);
  // Appends are held off for the whole rotation: the WAL reset and the
  // snapshot that declares the log empty must not race a new frame.
  std::lock_guard lock(append_mu_);
  const Database db = store_.SnapshotDatabase();
  const std::string snapshot_path = dir_ + "/" + SnapshotFileName(db.size());
  const std::vector<const Record*> ptrs = RecordPointers(db);

  // Three durable steps, each leaving a recoverable directory if the next
  // never happens:
  //   1. snapshot covering the current log — crash: snapshot + replay tail;
  //   2. truncate the log — crash: snapshot's offset is past the (empty)
  //      log, which replays as an empty tail;
  //   3. rewrite the snapshot to cover offset 0 so frames appended to the
  //      fresh log replay from its beginning.
  INFOLEAK_RETURN_IF_ERROR(WriteSnapshotFile(snapshot_path, ptrs, wal_.offset()));
  INFOLEAK_RETURN_IF_ERROR(wal_.Reset());
  INFOLEAK_RETURN_IF_ERROR(WriteSnapshotFile(snapshot_path, ptrs, 0));
  last_snapshot_records_.store(db.size());
  appends_since_snapshot_ = 0;
  compactions.Inc();
  // The WAL — the change feed's CDC source — just restarted: fence every
  // derived index with an epoch bump so it re-fences and rebuilds in the
  // background. Published while appends are still held off, so no delta
  // from the new log can be observed under the old epoch.
  if (inc::ChangeFeed* feed = store_.change_feed(); feed != nullptr) {
    feed->PublishEpochBump("compact");
  }
  return PruneSnapshots(1);
}

Status DurableStore::Sync() {
  std::lock_guard lock(append_mu_);
  if (!wal_.is_open()) return Status::OK();
  wal_dirty_.store(false);
  return wal_.Sync();
}

uint64_t DurableStore::wal_offset() const {
  std::lock_guard lock(append_mu_);
  return wal_.offset();
}

Status DurableStore::PruneSnapshots(std::size_t keep) {
  auto snapshots = ListSnapshots(dir_);  // newest first
  Status status = Status::OK();
  for (std::size_t i = keep; i < snapshots.size(); ++i) {
    std::error_code ec;
    fs::remove(dir_ + "/" + snapshots[i].second, ec);
    if (ec && status.ok()) {
      status = Status::Internal("cannot prune snapshot " +
                                snapshots[i].second + ": " + ec.message());
    }
  }
  return status;
}

void DurableStore::BackgroundLoop() {
  const auto tick =
      std::chrono::milliseconds(std::max(1, options_.fsync_interval_ms));
  std::unique_lock lock(bg_mu_);
  while (!stop_) {
    bg_cv_.wait_for(lock, tick,
                    [&] { return stop_ || snapshot_requested_; });
    if (stop_) break;
    const bool want_snapshot = snapshot_requested_;
    snapshot_requested_ = false;
    lock.unlock();
    if (options_.fsync == FsyncMode::kInterval &&
        wal_dirty_.exchange(false)) {
      std::lock_guard append_lock(append_mu_);
      // A failed fsync poisons the writer, so every later append is
      // refused instead of being acknowledged over pages the kernel may
      // have dropped; the failure has no caller, so it is counted here.
      if (!wal_.Sync().ok()) BackgroundSyncFailures().Inc();
    }
    if (want_snapshot) DoSnapshot();
    lock.lock();
  }
}

}  // namespace infoleak::persist
