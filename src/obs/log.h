#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/request.h"

namespace infoleak::obs {

/// \brief The structured request log: a bounded, lock-sharded ring of
/// recent `RequestEvent`s plus an always-on slow-query ring retaining the
/// worst requests by end-to-end latency. This is the flight recorder
/// behind the server's `tail` verb and the `infoleak tail` / `infoleak
/// top` commands — per-request attribution where the metrics registry only
/// keeps aggregates.
///
/// Lossy by construction (a full ring overwrites its oldest event and
/// counts the displacement), so a long-running service holds a fixed
/// amount of memory no matter the request rate. Sharding follows the
/// metrics registry's thread-pinning (`ThisThreadShard()`): each server
/// worker lands on one shard's mutex, so concurrent recording does not
/// convoy on a single lock. Readers merge the shards and re-sort by request
/// id, which is globally ordered.
///
/// Accounting is exact: `recorded()` counts every accepted event and
/// `overwritten()` every ring displacement, both maintained atomically, so
/// tests (and the selfcheck harness) can assert one-event-per-request
/// totals under concurrency.
class EventLog {
 public:
  static EventLog& Global();

  /// `capacity` is the total recent-ring budget, split evenly across the
  /// shards (minimum one slot each); `slow_capacity` bounds the slow ring.
  explicit EventLog(std::size_t capacity = 2048,
                    std::size_t slow_capacity = 32);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one finished request to the calling thread's shard and offers
  /// it to the slow ring; also feeds the per-phase latency histograms
  /// (`infoleak_request_phase_seconds{verb,phase}`) and request counters
  /// (`infoleak_requests_total{verb,outcome}`). A no-op when disabled.
  void Record(RequestEvent event);

  /// Most recent events in request-id order (ascending), newest-`max`
  /// after filtering: only events with id > `after_id` (a resumption
  /// cursor for follow-style polling) and total latency >=
  /// `min_total_nanos`.
  std::vector<RequestEvent> Recent(std::size_t max, uint64_t after_id = 0,
                                   uint64_t min_total_nanos = 0) const;

  /// The retained worst requests, slowest first, at most `max`.
  std::vector<RequestEvent> Slowest(std::size_t max) const;

  /// Events accepted since construction/Clear (including ones the ring has
  /// since overwritten).
  uint64_t recorded() const;

  /// Ring slots displaced by newer events since construction/Clear.
  uint64_t overwritten() const;

  /// Runtime kill switch (the overhead benchmark's off-variant). Default
  /// enabled.
  void SetEnabled(bool enabled);
  bool enabled() const;

  /// Drops buffered events and zeroes the counters; capacity is kept.
  void Clear();

 private:
  struct Impl;
  Impl* impl_;
};

/// The closed vocabulary of verb labels: the verbs svc/service.cpp
/// dispatches, "invalid" for unparseable lines, and "other" for every verb
/// outside the list. `stats` reports one request count per entry.
inline constexpr std::string_view kVerbLabels[] = {
    "ping",    "append", "leak", "set-leak", "resolve", "subscribe",
    "compact", "stats",  "tail", "frontier", "invalid", "other",
};

/// The metric label for a wire verb. Label values must stay a closed
/// vocabulary — the verb arrives from the wire, and a client cycling
/// invented verbs must not be able to grow the metrics registry without
/// bound — so verbs outside kVerbLabels collapse to "other"; the event log
/// itself keeps the raw string.
std::string_view ClampVerb(const std::string& verb);

/// Renders one event as a single JSONL line (no trailing newline):
/// `{"id":..,"verb":..,"outcome":..,"total_us":..,"phases":{..},...}`.
/// Durations are microseconds with three decimals; phases with zero time
/// are omitted, so a present key always carries a non-zero value.
std::string RenderEventJsonl(const RequestEvent& event);

}  // namespace infoleak::obs
