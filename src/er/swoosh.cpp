#include "er/swoosh.h"

#include <deque>
#include <list>

#include "er/er_metrics.h"
#include "util/timer.h"

namespace infoleak {

Result<Database> SwooshResolver::Resolve(const Database& db,
                                         ErStats* stats) const {
  WallTimer timer;
  ErStats local;

  std::deque<Record> pending(db.begin(), db.end());
  std::list<Record> resolved;  // the algorithm's I: pairwise non-matching

  // Termination: every iteration either moves a record into `resolved`
  // permanently or replaces two records by one merge (strictly decreasing
  // |pending| + |resolved| in the merge case). With ICAR merge functions the
  // merged record dominates its parents, so no pair is re-created.
  while (!pending.empty()) {
    Record current = std::move(pending.front());
    pending.pop_front();
    bool merged = false;
    for (auto it = resolved.begin(); it != resolved.end(); ++it) {
      ++local.match_calls;
      if (match_.Matches(current, *it)) {
        Record composite = merge_.Merge(current, *it);
        ++local.merge_calls;
        resolved.erase(it);
        pending.push_back(std::move(composite));
        merged = true;
        break;
      }
    }
    if (!merged) resolved.push_back(std::move(current));
  }

  Database out;
  for (auto& r : resolved) out.Add(std::move(r));
  local.elapsed_seconds = timer.ElapsedSeconds();
  static er_metrics::Handles metrics = er_metrics::ForResolver("swoosh");
  metrics.runs.Inc();
  // Swoosh generates candidates on demand: every candidate pair is
  // compared, so the two counters coincide.
  metrics.candidate_pairs.Inc(local.match_calls);
  metrics.match_calls.Inc(local.match_calls);
  metrics.merges.Inc(local.merge_calls);
  metrics.resolve_seconds.Observe(local.elapsed_seconds);
  if (stats != nullptr) stats->Accumulate(local);
  return out;
}

}  // namespace infoleak
