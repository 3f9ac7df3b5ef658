#include "store/record_store.h"

#include <algorithm>
#include <deque>
#include <mutex>

#include "core/record_io.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "util/file.h"

namespace infoleak {

RecordStore::RecordStore(RecordStore&& other) noexcept
    : db_(std::move(other.db_)),
      index_(std::move(other.index_)),
      cells_(std::move(other.cells_)),
      cell_offsets_(std::move(other.cell_offsets_)),
      path_(std::move(other.path_)),
      feed_(other.feed_) {
  other.cell_offsets_.assign(1, 0);
  other.feed_ = nullptr;
}

RecordStore& RecordStore::operator=(RecordStore&& other) noexcept {
  if (this != &other) {
    db_ = std::move(other.db_);
    index_ = std::move(other.index_);
    cells_ = std::move(other.cells_);
    cell_offsets_ = std::move(other.cell_offsets_);
    path_ = std::move(other.path_);
    feed_ = other.feed_;
    other.cell_offsets_.assign(1, 0);
    other.feed_ = nullptr;
  }
  return *this;
}

Result<RecordStore> RecordStore::Open(const std::string& path) {
  RecordStore store;
  store.path_ = path;
  auto text = ReadFileToString(path);
  if (!text.ok()) {
    if (text.status().IsNotFound()) return store;  // fresh store
    return text.status();
  }
  auto db = LoadDatabaseCsv(*text);
  if (!db.ok()) return db.status();
  for (const auto& r : *db) store.Append(r);
  return store;
}

RecordStore RecordStore::FromDatabase(const Database& db) {
  RecordStore store;
  for (const auto& r : db) store.Append(r);
  return store;
}

RecordId RecordStore::Append(Record record, obs::RequestContext* ctx) {
  static obs::Counter& appends = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_store_appends_total", {}, "Records appended to a RecordStore");
  appends.Inc();
  // Store ids are positions: strip any provenance the caller's record
  // carries so the fresh id assigned by Add matches the vector index.
  Record clean;
  for (auto& a : record) clean.Insert(std::move(a));
  std::unique_lock lock(mu_);
  RecordId id;
  {
    obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
    id = db_.Add(std::move(clean));
    index_.Add(id, db_[db_.size() - 1], &cells_);
    cell_offsets_.push_back(cells_.size());
  }
  if (feed_ != nullptr) {
    // Publishing under the writer lock is what gives sinks the "deltas
    // arrive in id order, gap-free" contract; each sink does one record's
    // worth of work, so the hold stays short.
    obs::PhaseTimer publish_phase(ctx, obs::Phase::kPublish);
    inc::AppendDelta delta;
    delta.id = id;
    delta.rows = interned();
    feed_->PublishAppend(delta);
  }
  return id;
}

void RecordStore::SetChangeFeed(inc::ChangeFeed* feed) {
  std::unique_lock lock(mu_);
  feed_ = feed;
}

inc::ChangeFeed* RecordStore::change_feed() const {
  std::shared_lock lock(mu_);
  return feed_;
}

Result<inc::IndexAnswer> RecordStore::SetLeakIndexed(
    inc::LeakageIndex& index, const std::function<bool()>& cancel,
    obs::RequestContext* ctx) const {
  std::shared_lock lock(mu_);
  return index.QueryLocked(interned(), cancel, ctx);
}

bool RecordStore::MaintainIndex(inc::LeakageIndex& index) const {
  std::shared_lock lock(mu_);
  return index.MaintainChunkLocked(interned());
}

Status RecordStore::Flush(const std::string& path) const {
  const std::string& target = path.empty() ? path_ : path;
  if (target.empty()) {
    return Status::FailedPrecondition(
        "store has no bound path; pass one to Flush");
  }
  std::shared_lock lock(mu_);
  return WriteStringToFile(target, SaveDatabaseCsv(db_));
}

Database RecordStore::SnapshotDatabase() const {
  std::shared_lock lock(mu_);
  return db_;
}

std::size_t RecordStore::size() const {
  std::shared_lock lock(mu_);
  return db_.size();
}

Result<Record> RecordStore::Get(RecordId id) const {
  std::shared_lock lock(mu_);
  if (id >= db_.size()) {
    return Status::OutOfRange("no record with id " + std::to_string(id));
  }
  return db_[id];
}

std::vector<RecordId> RecordStore::Lookup(std::string_view label,
                                          std::string_view value) const {
  std::shared_lock lock(mu_);
  return index_.Postings(label, value);
}

Result<double> RecordStore::Leakage(const Record& p, const WeightModel& wm,
                                    const LeakageEngine& engine) const {
  const PreparedReference ref(p, wm);
  std::shared_lock lock(mu_);
  return SetLeakage(db_, ref, engine);
}

Result<double> RecordStore::SetLeak(const PreparedReference& ref,
                                    const LeakageEngine& engine,
                                    std::ptrdiff_t* argmax,
                                    const std::function<bool()>& cancel,
                                    obs::RequestContext* ctx) const {
  obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
  std::shared_lock lock(mu_);
  if (ctx != nullptr) ctx->AddRecordsScanned(db_.size());
  if (!cancel) return SetLeakageArgMax(db_, ref, engine, argmax);
  return SetLeakageArgMax(db_, ref, engine, argmax, cancel);
}

Result<double> RecordStore::SetLeakColumnar(
    ColumnBank& bank, std::shared_mutex& bank_mu, const LeakageEngine& engine,
    std::ptrdiff_t* argmax, const std::function<bool()>& cancel,
    obs::RequestContext* ctx) const {
  // Lock order is store-then-bank, always: the store's read lock pins the
  // database snapshot, then the bank catches up under its writer lock and
  // is scanned under its reader lock. Concurrent queries against the same
  // cached reference serialize only on the (usually empty) catch-up.
  std::shared_lock store_lock(mu_);
  {
    obs::PhaseTimer catchup_phase(ctx, obs::Phase::kCatchup);
    std::unique_lock bank_lock(bank_mu);
    if (bank.size() > db_.size()) {
      return Status::Internal(
          "column bank holds " + std::to_string(bank.size()) +
          " records but the store has only " + std::to_string(db_.size()) +
          "; the bank was built against a different store");
    }
    bank.ExtendFrom(interned());
  }
  std::shared_lock bank_lock(bank_mu);
  ColumnScanOptions options;
  options.cancel = cancel;
  options.ctx = ctx;  // the scan itself charges the eval phase
  return SetLeakageColumnar(bank, engine, argmax, options);
}

Result<double> RecordStore::RecordLeak(RecordId id,
                                       const PreparedReference& ref,
                                       const LeakageEngine& engine,
                                       obs::RequestContext* ctx) const {
  obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
  if (ctx != nullptr) ctx->AddRecordsScanned(1);
  std::shared_lock lock(mu_);
  if (id >= db_.size()) {
    return Status::OutOfRange("no record with id " + std::to_string(id));
  }
  // Mirrors BatchLeakage's per-record path so the answer is bit-identical
  // to the offline CLI's per-record report.
  if (!engine.SupportsPrepared()) {
    return engine.RecordLeakage(db_[id], ref.record(), ref.weight_model());
  }
  LeakageWorkspace ws;
  PreparedRecord r(db_[id], ref);
  return engine.RecordLeakagePrepared(r, ref, &ws);
}

Result<Record> RecordStore::Dossier(const Record& query,
                                    const std::vector<std::string>& labels,
                                    std::vector<RecordId>* members) const {
  obs::TraceSpan span("store/dossier");
  static obs::Counter& dossiers = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_store_dossiers_total", {},
      "Dossier expansions run against a RecordStore");
  dossiers.Inc();
  std::shared_lock lock(mu_);
  // Breadth-first expansion over posting lists: the frontier holds records
  // whose attributes have not yet been used to find neighbors.
  Record dossier;
  for (const auto& a : query) dossier.Insert(a);

  std::vector<bool> visited(db_.size(), false);
  std::deque<RecordId> frontier;
  for (RecordId id : index_.Candidates(query, labels)) {
    frontier.push_back(id);
    visited[id] = true;
  }
  std::vector<RecordId> touched(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    RecordId id = frontier.front();
    frontier.pop_front();
    dossier.MergeFrom(db_[id]);
    for (RecordId next : index_.Candidates(db_[id], labels)) {
      if (!visited[next]) {
        visited[next] = true;
        frontier.push_back(next);
        touched.push_back(next);
      }
    }
  }
  if (members != nullptr) {
    std::sort(touched.begin(), touched.end());
    *members = std::move(touched);
  }
  return dossier;
}

}  // namespace infoleak
