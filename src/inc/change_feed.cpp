#include "inc/change_feed.h"

#include <algorithm>
#include <chrono>

#include "inc/leakage_index.h"
#include "obs/metrics.h"

namespace infoleak::inc {
namespace {

obs::Counter& AppendsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_inc_appends_total", {},
      "Append deltas published through the change feed");
  return c;
}

}  // namespace

void ChangeFeed::Register(const std::shared_ptr<LeakageIndex>& index) {
  std::lock_guard lock(indexes_mu_);
  // Prune here as well as on publish: a store nobody appends to never
  // publishes, and an expired registration pins its index's make_shared
  // block, so a read-only server would grow by one index per cache miss.
  std::erase_if(indexes_, [](const std::weak_ptr<LeakageIndex>& weak) {
    return weak.expired();
  });
  indexes_.push_back(index);
}

void ChangeFeed::PublishAppend(const AppendDelta& delta) {
  AppendsCounter().Inc();
  {
    std::lock_guard lock(indexes_mu_);
    std::size_t live = 0;
    for (std::size_t i = 0; i < indexes_.size(); ++i) {
      if (auto index = indexes_[i].lock()) {
        index->OnAppend(delta);
        // Guard the self-move: `w = std::move(w)` empties a weak_ptr.
        if (live != i) indexes_[live] = std::move(indexes_[i]);
        ++live;
      }
    }
    indexes_.resize(live);
  }
  sequence_.fetch_add(1, std::memory_order_acq_rel);
  // The lock pairs the store with cv waiters: a subscriber that checked the
  // sequence before this publish is guaranteed to see the notify.
  { std::lock_guard lock(wait_mu_); }
  wait_cv_.notify_all();
}

uint64_t ChangeFeed::WaitForSequence(
    uint64_t seq, int timeout_ms, const std::function<bool()>& cancel) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(0, timeout_ms));
  std::unique_lock lock(wait_mu_);
  for (;;) {
    const uint64_t now_seq = sequence();
    if (now_seq > seq) return now_seq;
    if (cancel && cancel()) return now_seq;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return now_seq;
    // Wake in slices so a cancel (server deadline) is honored promptly even
    // when no append ever arrives.
    const auto slice = std::min(deadline - now,
                                std::chrono::steady_clock::duration(
                                    std::chrono::milliseconds(50)));
    wait_cv_.wait_for(lock, slice);
  }
}

std::size_t ChangeFeed::registered() const {
  std::lock_guard lock(indexes_mu_);
  std::size_t live = 0;
  for (const auto& weak : indexes_) {
    if (!weak.expired()) ++live;
  }
  return live;
}

}  // namespace infoleak::inc
