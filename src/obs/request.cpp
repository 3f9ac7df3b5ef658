#include "obs/request.h"

#include <atomic>
#include <chrono>

namespace infoleak::obs {
namespace {

std::atomic<uint64_t> g_next_request_id{1};

}  // namespace

uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kQueue: return "queue";
    case Phase::kParse: return "parse";
    case Phase::kEval: return "eval";
    case Phase::kFsync: return "fsync";
    case Phase::kPublish: return "publish";
    case Phase::kSerialize: return "serialize";
    case Phase::kAnonymize: return "anonymize";
    case Phase::kResolve: return "resolve";
  }
  return "unknown";
}

RequestContext::RequestContext() : start_ns_(TraceNowNanos()) {
  event_.id = g_next_request_id.fetch_add(1, std::memory_order_relaxed);
}

RequestEvent RequestContext::Finish() const {
  RequestEvent event = event_;
  event.total_nanos = event_.phase_nanos[static_cast<int>(Phase::kQueue)] +
                      (TraceNowNanos() - start_ns_);
  return event;
}

}  // namespace infoleak::obs
