#include "anon/generalized_er.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "anon/hierarchy.h"
#include "er/er_metrics.h"
#include "er/union_find.h"
#include "util/timer.h"

namespace infoleak {

GeneralizedRuleMatch::GeneralizedRuleMatch(
    std::vector<std::vector<std::string>> rules)
    : rules_(std::move(rules)) {
  std::erase_if(rules_, [](const auto& rule) { return rule.empty(); });
}

bool GeneralizedRuleMatch::ValuesAgree(std::string_view x,
                                       std::string_view y) {
  return x == y || GeneralizedCovers(x, y) || GeneralizedCovers(y, x);
}

bool GeneralizedRuleMatch::AgreeOnLabel(const Record& a, const Record& b,
                                        std::string_view label) {
  for (const auto& attr_a : a) {
    if (attr_a.label != label) continue;
    for (const auto& attr_b : b) {
      if (attr_b.label != label) continue;
      if (ValuesAgree(attr_a.value, attr_b.value)) return true;
    }
  }
  return false;
}

bool GeneralizedRuleMatch::Matches(const Record& a, const Record& b) const {
  for (const auto& rule : rules_) {
    bool all = true;
    for (const auto& label : rule) {
      if (!AgreeOnLabel(a, b, label)) {
        all = false;
        break;
      }
    }
    if (all && !rule.empty()) return true;
  }
  return false;
}

Record GeneralizationMerge::CollapseCoveredValues(const Record& r) {
  // For each attribute, drop it if another attribute with the same label
  // holds a strictly more specific value (this value covers that one). The
  // survivor takes the maximum confidence of everything it absorbed.
  const auto& attrs = r.attributes();
  std::vector<bool> dropped(attrs.size(), false);
  std::vector<double> confidence(attrs.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    confidence[i] = attrs[i].confidence;
  }
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (dropped[i]) continue;
    for (std::size_t j = 0; j < attrs.size(); ++j) {
      if (i == j || dropped[j] || attrs[i].label != attrs[j].label) continue;
      if (attrs[i].value == attrs[j].value) continue;
      // attrs[i] covers attrs[j]: i is the more general value -> drop i.
      if (GeneralizedCovers(attrs[i].value, attrs[j].value)) {
        confidence[j] = std::max(confidence[j], confidence[i]);
        dropped[i] = true;
        break;
      }
    }
  }
  Record out;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (!dropped[i]) {
      out.Insert(Attribute(attrs[i].label, attrs[i].value, confidence[i]));
    }
  }
  for (RecordId id : r.sources()) out.AddSource(id);
  return out;
}

Record GeneralizationMerge::Merge(const Record& a, const Record& b) const {
  return CollapseCoveredValues(Record::Merge(a, b));
}

Result<Database> GeneralizedClassResolver::Resolve(const Database& db,
                                                   ErStats* stats) const {
  WallTimer timer;
  ErStats local;
  std::vector<std::string_view> labels;
  for (const auto& rule : match_.rules()) {
    labels.insert(labels.end(), rule.begin(), rule.end());
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());

  // Group records by projection. Attributes are stored sorted by (label,
  // value), so the length-prefixed concatenation of the projected pairs is
  // a canonical key. Members stay in ascending record order.
  const std::size_t n = db.size();
  std::unordered_map<std::string, std::size_t> class_of;
  std::vector<std::vector<std::size_t>> members;
  std::string key;
  for (std::size_t i = 0; i < n; ++i) {
    key.clear();
    for (const auto& attr : db[i]) {
      if (!std::binary_search(labels.begin(), labels.end(), attr.label)) {
        continue;
      }
      for (std::string_view part : {std::string_view(attr.label),
                                    std::string_view(attr.value)}) {
        key += std::to_string(part.size());
        key += ':';
        key += part;
      }
    }
    auto [it, inserted] = class_of.try_emplace(key, members.size());
    if (inserted) members.emplace_back();
    members[it->second].push_back(i);
  }

  // A representative that does not match itself lacks a value under some
  // label of every rule, so it matches no other class either: its members
  // stay singletons. Every other class joins its component whole.
  const std::size_t c = members.size();
  UnionFind classes(c);
  std::vector<bool> self_match(c, false);
  for (std::size_t a = 0; a < c; ++a) {
    const Record& rep = db[members[a][0]];
    ++local.match_calls;
    self_match[a] = match_.Matches(rep, rep);
    for (std::size_t b = a + 1; b < c; ++b) {
      ++local.match_calls;
      if (match_.Matches(rep, db[members[b][0]])) classes.Union(a, b);
    }
  }
  UnionFind uf(n);
  for (std::size_t a = 0; a < c; ++a) {
    if (!self_match[a]) continue;
    const std::size_t anchor = members[classes.Find(a)][0];
    for (std::size_t i : members[a]) uf.Union(anchor, i);
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
  static er_metrics::Handles metrics =
      er_metrics::ForResolver("generalized-class");
  metrics.runs.Inc();
  metrics.candidate_pairs.Inc(c < 2 ? 0 : c * (c - 1) / 2);
  metrics.match_calls.Inc(local.match_calls);
  metrics.merges.Inc(local.merge_calls);
  metrics.resolve_seconds.Observe(local.elapsed_seconds);
  if (stats != nullptr) stats->Accumulate(local);
  return out;
}

}  // namespace infoleak
