#include "inc/leakage_index.h"

#include <algorithm>
#include <cmath>

#include "core/bounds.h"
#include "core/kernels.h"
#include "obs/metrics.h"
#include "obs/request.h"

namespace infoleak::inc {
namespace {

obs::Counter& SkipCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_inc_bound_skips_total", {},
      "Delta evaluations skipped because the leakage upper bound proved the "
      "running maximum unchanged");
  return c;
}

/// Engines whose only evaluation failure mode is non-finite arithmetic.
/// Their failures surface as non-finite bounds, so the skip's isfinite gate
/// forces the exact evaluation (which then errors and poisons the index).
/// Engines with structural errors the bounds cannot see — naive's 2^|r|
/// cap, exact's uniform-weight requirement — must always evaluate exactly,
/// or a skip could hide an error a cold scan would report.
bool SkipEligible(const LeakageEngine& engine) {
  const std::string_view name = engine.name();
  return name == "auto" || name.substr(0, 6) == "approx";
}

}  // namespace

LeakageIndex::LeakageIndex(Record reference, WeightModel weights,
                           const LeakageEngine* engine, IndexOptions options)
    : reference_(std::move(reference)),
      weights_(std::move(weights)),
      prepared_(reference_, weights_),
      engine_(engine),
      options_(options),
      skip_eligible_(SkipEligible(*engine)),
      scratch_(prepared_) {}

Result<double> LeakageIndex::EvaluateLocked(const InternedRecords& rows,
                                            std::size_t id) {
  scratch_.Clear();
  scratch_.AppendInterned(rows, id);
  Result<double> l = BankRecordLeakage(scratch_, 0, *engine_, &ws_);
  if (!l.ok()) {
    poisoned_ = true;
    poison_ = l.status();
  }
  return l;
}

Status LeakageIndex::ApplyOneLocked(const InternedRecords& rows,
                                    const LeakageBounds* bound) {
  const std::size_t i = covered_++;
  bool skipped = false;
  double value = 0.0;
  // A non-finite lower bound means the evaluation would fail; it must run,
  // so the error poisons the index as a cold scan would report it.
  if (bound != nullptr && std::isfinite(bound->lower) &&
      best_.CannotBeat(bound->upper, static_cast<std::ptrdiff_t>(i))) {
    skipped = true;
    value = bound->upper;
    ++bound_skips_;
    SkipCounter().Inc();
  } else {
    Result<double> l = EvaluateLocked(rows, i);
    if (!l.ok()) return l.status();
    value = *l;
    best_.Offer(value, static_cast<std::ptrdiff_t>(i));
  }
  ++applied_;
  DeltaEvent event;
  event.record_id = static_cast<RecordId>(i);
  event.leakage = value;
  event.skipped = skipped;
  event.set_leakage = best_.value();
  event.argmax = best_.index();
  events_.push_back(event);
  while (events_.size() > options_.event_capacity) {
    events_.pop_front();
    ++events_dropped_;
  }
  return Status::OK();
}

Status LeakageIndex::ApplyHeadLocked(const InternedRecords& rows,
                                     const LeakageBounds* bounds,
                                     std::size_t head) {
  const std::size_t first = covered_;
  struct Candidate {
    double upper;
    std::size_t id;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(head);
  std::size_t evaluated = 0;
  auto evaluate = [&](std::size_t id) -> Status {
    ++evaluated;
    Result<double> l = EvaluateLocked(rows, id);
    if (!l.ok()) {
      covered_ = id + 1;  // where a cold scan stops
      return l.status();
    }
    best_.Offer(*l, static_cast<std::ptrdiff_t>(id));
    return Status::OK();
  };
  // Records whose bounds are non-finite may fail to evaluate: they run
  // first, in id order, so the first failure is the cold scan's first error
  // (finite-bound records of these engines cannot fail).
  for (std::size_t k = 0; k < head; ++k) {
    const LeakageBounds& b = bounds[k];
    if (std::isfinite(b.lower) && std::isfinite(b.upper)) {
      candidates.push_back({b.upper, first + k});
    } else {
      INFOLEAK_RETURN_IF_ERROR(evaluate(first + k));
    }
  }
  // The rest in descending upper bound (ties by id), only while a bound can
  // still beat the running maximum: once the top candidate cannot, no
  // candidate below it can.
  const auto lower_priority = [](const Candidate& a, const Candidate& b) {
    return a.upper < b.upper || (a.upper == b.upper && a.id > b.id);
  };
  std::make_heap(candidates.begin(), candidates.end(), lower_priority);
  while (!candidates.empty()) {
    const Candidate top = candidates.front();
    if (best_.CannotBeat(top.upper, static_cast<std::ptrdiff_t>(top.id))) {
      break;
    }
    std::pop_heap(candidates.begin(), candidates.end(), lower_priority);
    candidates.pop_back();
    INFOLEAK_RETURN_IF_ERROR(evaluate(top.id));
  }
  covered_ = first + head;
  applied_ += head;
  bound_skips_ += head - evaluated;
  SkipCounter().Inc(head - evaluated);
  // An index fed one append at a time would have pushed and evicted an
  // event for every head record, and every event it held before them.
  events_dropped_ += events_.size() + head;
  events_.clear();
  return Status::OK();
}

Status LeakageIndex::CatchUpLocked(const InternedRecords& rows,
                                   const std::function<bool()>& cancel) {
  const std::size_t behind = rows.size - covered_;
  auto cancelled = [&](std::size_t done) {
    return Status::DeadlineExceeded("index catch-up cancelled after " +
                                    std::to_string(done) + " of " +
                                    std::to_string(behind) + " records");
  };
  if (!skip_eligible_) {
    for (std::size_t done = 0; done < behind; ++done) {
      if (cancel && done % 64 == 0 && cancel()) return cancelled(done);
      INFOLEAK_RETURN_IF_ERROR(ApplyOneLocked(rows, nullptr));
    }
    return Status::OK();
  }
  // Pass 1: bound every backlog record from its interned cells. A cancel
  // keeps the records bounded so far; they are applied below.
  std::vector<LeakageBounds> bounds;
  bounds.reserve(behind);
  bool stopped = false;
  for (std::size_t k = 0; k < behind; ++k) {
    if (cancel && k % 64 == 0 && cancel()) {
      stopped = true;
      break;
    }
    bounds.push_back(scratch_.BoundInterned(rows, covered_ + k, &ws_));
  }
  // Pass 2: the head (all but the last event_capacity records) in
  // descending upper bound, then the tail in id order, so the ring holds
  // what an index fed one append at a time would hold.
  const std::size_t n = bounds.size();
  const std::size_t head =
      n > options_.event_capacity ? n - options_.event_capacity : 0;
  if (head > 0) {
    INFOLEAK_RETURN_IF_ERROR(ApplyHeadLocked(rows, bounds.data(), head));
  }
  for (std::size_t k = head; k < n; ++k) {
    INFOLEAK_RETURN_IF_ERROR(ApplyOneLocked(rows, &bounds[k]));
  }
  return stopped ? cancelled(n) : Status::OK();
}

void LeakageIndex::OnAppend(const AppendDelta& delta) {
  std::lock_guard lock(mu_);
  if (poisoned_) return;
  // Only the contiguous next record applies directly; a gap means the index
  // was registered late and the next query's catch-up covers it.
  if (delta.id != covered_) return;
  if (!skip_eligible_) {
    (void)ApplyOneLocked(delta.rows, nullptr);
    return;
  }
  const LeakageBounds bound =
      scratch_.BoundInterned(delta.rows, covered_, &ws_);
  (void)ApplyOneLocked(delta.rows, &bound);
}

Result<IndexAnswer> LeakageIndex::QueryLocked(
    const InternedRecords& rows, const std::function<bool()>& cancel,
    obs::RequestContext* ctx) {
  std::unique_lock lock(mu_);
  if (poisoned_) return poison_;
  if (covered_ > rows.size) {
    return Status::Internal(
        "leakage index covers " + std::to_string(covered_) +
        " records but the store has only " + std::to_string(rows.size) +
        "; the index was built against a different store");
  }
  const std::size_t behind = rows.size - covered_;
  if (ctx != nullptr) ctx->set_kernel_variant(kern::Active().name);
  if (behind > 0) {
    // The delta is real evaluation work (each new record runs its bound or
    // the columnar kernel), so it is charged to the eval phase; a
    // steady-state hit charges nothing. The bounds skip leaves most of a
    // long catch-up unevaluated.
    obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
    INFOLEAK_RETURN_IF_ERROR(CatchUpLocked(rows, cancel));
  }
  if (ctx != nullptr) ctx->AddRecordsScanned(behind);
  IndexAnswer ans;
  ans.leakage = best_.value();
  ans.argmax = best_.index();
  ans.records = covered_;
  return ans;
}

LeakageIndex::EventBatch LeakageIndex::EventsAfter(
    uint64_t after_seq, std::size_t max_events) const {
  std::lock_guard lock(mu_);
  EventBatch batch;
  batch.covered = covered_;
  batch.dropped = events_dropped_;
  for (const DeltaEvent& e : events_) {
    if (e.seq() <= after_seq) continue;
    batch.events.push_back(e);
    if (batch.events.size() >= max_events) break;
  }
  return batch;
}

IndexStats LeakageIndex::Stats() const {
  std::lock_guard lock(mu_);
  IndexStats s;
  s.covered = covered_;
  s.poisoned = poisoned_;
  if (poisoned_) s.poison_detail = poison_.message();
  s.applied = applied_;
  s.bound_skips = bound_skips_;
  s.events_dropped = events_dropped_;
  s.best = best_.value();
  s.best_index = best_.index();
  return s;
}

}  // namespace infoleak::inc
