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

Status LeakageIndex::ApplyOneLocked(const InternedRecords& rows) {
  const std::size_t i = covered_++;
  scratch_.Clear();
  scratch_.AppendInterned(rows, i);
  bool skipped = false;
  double value = 0.0;
  if (skip_eligible_ && best_.index() >= 0) {
    const LeakageBounds b = BoundRecordLeakageColumnar(scratch_, 0, &ws_);
    // A non-finite lower bound means the evaluation would fail; it must
    // run, so the error poisons the index as a cold scan would report it.
    if (std::isfinite(b.lower) && best_.CannotBeat(b.upper)) {
      skipped = true;
      value = b.upper;
      ++bound_skips_;
      SkipCounter().Inc();
    }
  }
  if (!skipped) {
    Result<double> l = BankRecordLeakage(scratch_, 0, *engine_, &ws_);
    if (!l.ok()) {
      poisoned_ = true;
      poison_ = l.status();
      return poison_;
    }
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

void LeakageIndex::OnAppend(const AppendDelta& delta) {
  std::lock_guard lock(mu_);
  if (poisoned_) return;
  // Only the contiguous next record applies directly; a gap means the index
  // was registered late and the next query's catch-up covers it.
  if (delta.id != covered_) return;
  (void)ApplyOneLocked(delta.rows);
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
    // The delta is real evaluation work (each new record runs the columnar
    // kernel or its bound), so it is charged to the eval phase; a
    // steady-state hit charges nothing. The bounds skip leaves most of a
    // long catch-up unevaluated.
    obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
    std::size_t evaluated = 0;
    while (covered_ < rows.size) {
      if (cancel && evaluated % 64 == 0 && cancel()) {
        return Status::DeadlineExceeded(
            "index catch-up cancelled after " + std::to_string(evaluated) +
            " of " + std::to_string(behind) + " records");
      }
      ++evaluated;
      Status applied = ApplyOneLocked(rows);
      if (!applied.ok()) return applied;
    }
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
