#include "obs/log.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include "obs/metrics.h"

namespace infoleak::obs {
namespace {

constexpr std::size_t kLogShards = 8;

/// Outcomes are "ok" or one of the codes svc/protocol.cpp's `WireCode`
/// maps a Status to — keep this list in step with it. (A request shed at
/// admission is answered before it has a context, so it never reaches the
/// log.) Anything else collapses to "error".
std::string_view ClampOutcome(const std::string& outcome) {
  static constexpr std::string_view kKnown[] = {
      "ok",          "invalid_argument",    "not_found",
      "failed_precondition", "resource_exhausted", "deadline_exceeded",
      "internal",
  };
  for (std::string_view known : kKnown) {
    if (outcome == known) return known;
  }
  return "error";
}

Histogram& PhaseSeconds(std::string_view verb, Phase phase) {
  return MetricsRegistry::Global().GetHistogram(
      "infoleak_request_phase_seconds",
      {{"verb", std::string(verb)}, {"phase", std::string(PhaseName(phase))}},
      "Per-request latency attributed to one processing phase");
}

Counter& RequestOutcomeCounter(std::string_view verb,
                               std::string_view outcome) {
  return MetricsRegistry::Global().GetCounter(
      "infoleak_requests_total",
      {{"verb", std::string(verb)}, {"outcome", std::string(outcome)}},
      "Completed requests, by verb and outcome");
}

/// Minimal JSON string escaping for the JSONL renderer (obs cannot depend
/// on the svc JSON model — layering runs the other way).
void AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Microseconds with three decimals: sub-microsecond phases still render
/// non-zero (0.001), which the CI smoke's non-zero-phase assertion relies
/// on.
void AppendMicros(std::string* out, uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(nanos) / 1000.0);
  out->append(buf);
}

}  // namespace

std::string_view ClampVerb(const std::string& verb) {
  for (std::string_view known : kVerbLabels) {
    if (verb == known) return known;
  }
  return "other";
}

struct EventLog::Impl {
  struct Shard {
    std::mutex mu;
    std::vector<RequestEvent> ring;  // capacity-bounded, `next` is oldest
    std::size_t next = 0;
    std::size_t capacity = 0;
  };

  Shard shards[kLogShards];
  std::atomic<uint64_t> recorded{0};
  std::atomic<uint64_t> overwritten{0};
  std::atomic<bool> enabled{true};

  std::mutex slow_mu;
  std::vector<RequestEvent> slow;  // min-heap on total_nanos; front = floor
  std::size_t slow_capacity = 0;

  static bool SlowerInFront(const RequestEvent& a, const RequestEvent& b) {
    return a.total_nanos > b.total_nanos;  // min-heap comparator
  }
};

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

EventLog::EventLog(std::size_t capacity, std::size_t slow_capacity)
    : impl_(new Impl()) {
  const std::size_t per_shard = std::max<std::size_t>(1, capacity / kLogShards);
  for (auto& shard : impl_->shards) {
    shard.capacity = per_shard;
    shard.ring.reserve(per_shard);
  }
  impl_->slow_capacity = std::max<std::size_t>(1, slow_capacity);
  impl_->slow.reserve(impl_->slow_capacity);
}

EventLog::~EventLog() { delete impl_; }

void EventLog::Record(RequestEvent event) {
  if (!impl_->enabled.load(std::memory_order_relaxed)) return;

  const std::string_view verb = ClampVerb(event.verb);
  RequestOutcomeCounter(verb, ClampOutcome(event.outcome)).Inc();
  for (int i = 0; i < kNumPhases; ++i) {
    if (event.phase_nanos[i] == 0) continue;
    PhaseSeconds(verb, static_cast<Phase>(i))
        .Observe(static_cast<double>(event.phase_nanos[i]) * 1e-9);
  }

  // Slow ring first (it needs only a comparison under its own lock); the
  // recent ring takes the event by move afterwards.
  {
    std::lock_guard<std::mutex> lock(impl_->slow_mu);
    auto& slow = impl_->slow;
    if (slow.size() < impl_->slow_capacity) {
      slow.push_back(event);
      std::push_heap(slow.begin(), slow.end(), Impl::SlowerInFront);
    } else if (event.total_nanos > slow.front().total_nanos) {
      std::pop_heap(slow.begin(), slow.end(), Impl::SlowerInFront);
      slow.back() = event;
      std::push_heap(slow.begin(), slow.end(), Impl::SlowerInFront);
    }
  }

  Impl::Shard& shard = impl_->shards[ThisThreadShard() % kLogShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.ring.size() < shard.capacity) {
      shard.ring.push_back(std::move(event));
    } else {
      shard.ring[shard.next] = std::move(event);
      shard.next = (shard.next + 1) % shard.capacity;
      impl_->overwritten.fetch_add(1, std::memory_order_relaxed);
    }
  }
  impl_->recorded.fetch_add(1, std::memory_order_relaxed);
}

std::vector<RequestEvent> EventLog::Recent(std::size_t max, uint64_t after_id,
                                           uint64_t min_total_nanos) const {
  std::vector<RequestEvent> out;
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const RequestEvent& event : shard.ring) {
      if (event.id <= after_id) continue;
      if (event.total_nanos < min_total_nanos) continue;
      out.push_back(event);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestEvent& a, const RequestEvent& b) {
              return a.id < b.id;
            });
  if (out.size() > max) out.erase(out.begin(), out.end() - max);
  return out;
}

std::vector<RequestEvent> EventLog::Slowest(std::size_t max) const {
  std::vector<RequestEvent> out;
  {
    std::lock_guard<std::mutex> lock(impl_->slow_mu);
    out = impl_->slow;
  }
  std::sort(out.begin(), out.end(),
            [](const RequestEvent& a, const RequestEvent& b) {
              return a.total_nanos != b.total_nanos
                         ? a.total_nanos > b.total_nanos
                         : a.id < b.id;
            });
  if (out.size() > max) out.resize(max);
  return out;
}

uint64_t EventLog::recorded() const {
  return impl_->recorded.load(std::memory_order_relaxed);
}

uint64_t EventLog::overwritten() const {
  return impl_->overwritten.load(std::memory_order_relaxed);
}

void EventLog::SetEnabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool EventLog::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void EventLog::Clear() {
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.ring.clear();
    shard.next = 0;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->slow_mu);
    impl_->slow.clear();
  }
  impl_->recorded.store(0, std::memory_order_relaxed);
  impl_->overwritten.store(0, std::memory_order_relaxed);
}

std::string RenderEventJsonl(const RequestEvent& event) {
  std::string out;
  out.reserve(192);
  out.append("{\"id\":").append(std::to_string(event.id));
  out.append(",\"verb\":");
  AppendQuoted(&out, event.verb);
  out.append(",\"outcome\":");
  AppendQuoted(&out, event.outcome);
  out.append(",\"total_us\":");
  AppendMicros(&out, event.total_nanos);
  out.append(",\"phases\":{");
  bool first = true;
  for (int i = 0; i < kNumPhases; ++i) {
    if (event.phase_nanos[i] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    AppendQuoted(&out, PhaseName(static_cast<Phase>(i)));
    out.push_back(':');
    AppendMicros(&out, event.phase_nanos[i]);
  }
  out.push_back('}');
  out.append(",\"records\":").append(std::to_string(event.records_scanned));
  if (!event.kernel.empty()) {
    out.append(",\"kernel\":");
    AppendQuoted(&out, event.kernel);
  }
  out.append(",\"bytes_in\":").append(std::to_string(event.bytes_in));
  out.append(",\"bytes_out\":").append(std::to_string(event.bytes_out));
  if (event.deadline_nanos != 0) {
    out.append(",\"deadline_us\":");
    AppendMicros(&out, event.deadline_nanos);
  }
  out.push_back('}');
  return out;
}

}  // namespace infoleak::obs
