#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/record.h"
#include "core/symbols.h"

namespace infoleak::inc {

class LeakageIndex;

/// \brief One append, as published to the feed: the id the store assigned
/// and the store's interned cells, whose last record (`rows.size == id +
/// 1`) is the one appended. `rows` is borrowed for the duration of the
/// publish call only.
struct AppendDelta {
  RecordId id = 0;
  InternedRecords rows;
};

/// \brief The change-data-capture spine of the incremental plane: a fan-out
/// point fed by the same append path that writes the WAL, so subscribing to
/// the feed is logically subscribing to the log. `RecordStore::Append`
/// publishes every insert, and appends are the only change the store ever
/// makes: compaction rewrites the snapshot and the log, not one record, so
/// it publishes nothing. Registered indexes are held weakly — an index
/// dropped by its owner simply stops receiving deltas; expired
/// registrations are pruned on the next publish or registration.
///
/// Lock order (deadlock discipline, established store → indexes → index
/// internals): `PublishAppend` is called with the store's writer lock held
/// and takes `indexes_mu_` then each index's internal lock, inside
/// `LeakageIndex::OnAppend`, which must not call back into the store.
class ChangeFeed {
 public:
  ChangeFeed() = default;

  ChangeFeed(const ChangeFeed&) = delete;
  ChangeFeed& operator=(const ChangeFeed&) = delete;

  /// Registers an index (weak), pruning expired registrations. It starts
  /// receiving deltas immediately.
  void Register(const std::shared_ptr<LeakageIndex>& index);

  /// Fans one append out to every live index, prunes expired ones, and
  /// wakes subscribers. Called by the store while holding its writer lock,
  /// so the per-index `OnAppend` ordering matches id order exactly.
  void PublishAppend(const AppendDelta& delta);

  /// Monotonic count of appends published; subscribers long-poll on it.
  uint64_t sequence() const {
    return sequence_.load(std::memory_order_acquire);
  }

  /// Blocks until `sequence()` advances past `seq`, the timeout elapses or
  /// `cancel` returns true — whichever comes first. Returns the sequence at
  /// wake-up. `cancel` is polled roughly every 50 ms.
  uint64_t WaitForSequence(uint64_t seq, int timeout_ms,
                           const std::function<bool()>& cancel = {}) const;

  /// Live registered indexes (expired registrations excluded).
  std::size_t registered() const;

 private:
  mutable std::mutex indexes_mu_;
  std::vector<std::weak_ptr<LeakageIndex>> indexes_;

  std::atomic<uint64_t> sequence_{0};

  mutable std::mutex wait_mu_;
  mutable std::condition_variable wait_cv_;
};

}  // namespace infoleak::inc
