#include "er/blocking.h"

#include <map>
#include <set>

#include "er/er_metrics.h"
#include "er/union_find.h"
#include "util/timer.h"

namespace infoleak {

LabelValueBlocking::LabelValueBlocking(std::vector<std::string> labels)
    : labels_(std::move(labels)) {}

std::vector<std::string> LabelValueBlocking::Keys(const Record& record) const {
  std::vector<std::string> keys;
  for (const auto& a : record) {
    for (const auto& label : labels_) {
      if (a.label == label) {
        // '\x1f' (unit separator) cannot appear in sane labels/values, so
        // the key is collision-free across (label, value) pairs.
        keys.push_back(a.label + '\x1f' + a.value);
        break;
      }
    }
  }
  return keys;
}

Result<Database> BlockedResolver::Resolve(const Database& db,
                                          ErStats* stats) const {
  WallTimer timer;
  ErStats local;

  // Build blocks: key -> member record indices (in record order).
  std::map<std::string, std::vector<std::size_t>> blocks;
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (auto& key : blocking_.Keys(db[i])) {
      blocks[std::move(key)].push_back(i);
    }
  }

  UnionFind uf(db.size());
  std::set<std::pair<std::size_t, std::size_t>> compared;
  uint64_t candidate_pairs = 0;  // within-block pairs, before pruning
  for (const auto& [key, members] : blocks) {
    for (std::size_t x = 0; x < members.size(); ++x) {
      for (std::size_t y = x + 1; y < members.size(); ++y) {
        ++candidate_pairs;
        auto pair = std::minmax(members[x], members[y]);
        if (!compared.insert(pair).second) continue;  // seen in another block
        if (uf.Connected(pair.first, pair.second)) continue;
        ++local.match_calls;
        if (match_.Matches(db[pair.first], db[pair.second])) {
          uf.Union(pair.first, pair.second);
        }
      }
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
  static er_metrics::Handles metrics = er_metrics::ForResolver("blocked");
  metrics.runs.Inc();
  metrics.candidate_pairs.Inc(candidate_pairs);
  metrics.match_calls.Inc(local.match_calls);
  metrics.merges.Inc(local.merge_calls);
  metrics.resolve_seconds.Observe(local.elapsed_seconds);
  if (stats != nullptr) stats->Accumulate(local);
  return out;
}

}  // namespace infoleak
