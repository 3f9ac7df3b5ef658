#include "er/transitive.h"

#include "er/er_metrics.h"
#include "er/union_find.h"
#include "util/timer.h"

namespace infoleak {

Result<Database> TransitiveClosureResolver::Resolve(const Database& db,
                                                    ErStats* stats) const {
  WallTimer timer;
  ErStats local;
  const std::size_t n = db.size();
  UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Skipping already-connected pairs would change the paper's
      // C(E,R) = c·|R|² cost accounting, so we always evaluate the match.
      ++local.match_calls;
      if (match_.Matches(db[i], db[j])) uf.Union(i, j);
    }
  }
  Database out;
  for (const auto& group : uf.Groups()) {
    Record merged = db[group[0]];
    for (std::size_t k = 1; k < group.size(); ++k) {
      merged = merge_.Merge(merged, db[group[k]]);
      ++local.merge_calls;
    }
    out.Add(std::move(merged));
  }
  local.elapsed_seconds = timer.ElapsedSeconds();
  static er_metrics::Handles metrics = er_metrics::ForResolver("transitive");
  metrics.runs.Inc();
  // The full-closure resolver considers every pair, so candidates == match
  // calls == n(n-1)/2.
  metrics.candidate_pairs.Inc(n < 2 ? 0 : n * (n - 1) / 2);
  metrics.match_calls.Inc(local.match_calls);
  metrics.merges.Inc(local.merge_calls);
  metrics.resolve_seconds.Observe(local.elapsed_seconds);
  if (stats != nullptr) stats->Accumulate(local);
  return out;
}

}  // namespace infoleak
