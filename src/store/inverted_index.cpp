#include "store/inverted_index.h"

#include <algorithm>
#include <mutex>

#include "obs/metrics.h"

namespace infoleak {
namespace {

struct IndexMetrics {
  obs::Counter& adds;
  obs::Counter& lookups;
  obs::Counter& hits;
  obs::Histogram& posting_length;
};

IndexMetrics& Metrics() {
  auto& reg = obs::MetricsRegistry::Global();
  static IndexMetrics m{
      reg.GetCounter("infoleak_index_adds_total", {},
                     "Records posted into an inverted index"),
      reg.GetCounter("infoleak_index_lookups_total", {},
                     "Posting-list lookups (Find calls)"),
      reg.GetCounter("infoleak_index_lookup_hits_total", {},
                     "Lookups that found a non-empty posting list"),
      reg.GetHistogram("infoleak_index_posting_list_length", {},
                       "Length of posting lists returned by lookups",
                       {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}),
  };
  return m;
}

}  // namespace

InvertedIndex::InvertedIndex(InvertedIndex&& other) noexcept
    : syms_(std::move(other.syms_)), postings_(std::move(other.postings_)) {}

InvertedIndex& InvertedIndex::operator=(InvertedIndex&& other) noexcept {
  if (this != &other) {
    syms_ = std::move(other.syms_);
    postings_ = std::move(other.postings_);
  }
  return *this;
}

void InvertedIndex::Add(RecordId id, const Record& record,
                        std::vector<InternedCell>* cells) {
  Metrics().adds.Inc();
  std::unique_lock lock(mu_);
  for (const auto& a : record) {
    const uint32_t label = syms_.labels.Intern(a.label);
    const uint32_t value = syms_.values.Intern(a.value);
    if (cells != nullptr) cells->push_back({label, value, a.confidence});
    auto& list = postings_[PackSymbolPair(label, value)];
    if (list.empty() || list.back() < id) {
      list.push_back(id);
    } else if (!std::binary_search(list.begin(), list.end(), id)) {
      list.insert(std::lower_bound(list.begin(), list.end(), id), id);
    }
  }
}

const std::vector<RecordId>* InvertedIndex::FindLocked(
    std::string_view label, std::string_view value) const {
  IndexMetrics& metrics = Metrics();
  metrics.lookups.Inc();
  const uint32_t lid = syms_.labels.Find(label);
  if (lid == SymbolTable::kNoSymbol) return nullptr;
  const uint32_t vid = syms_.values.Find(value);
  if (vid == SymbolTable::kNoSymbol) return nullptr;
  auto it = postings_.find(PackSymbolPair(lid, vid));
  if (it == postings_.end() || it->second.empty()) return nullptr;
  metrics.hits.Inc();
  metrics.posting_length.Observe(static_cast<double>(it->second.size()));
  return &it->second;
}

const std::vector<RecordId>* InvertedIndex::Find(std::string_view label,
                                                 std::string_view value) const {
  std::shared_lock lock(mu_);
  return FindLocked(label, value);
}

std::vector<RecordId> InvertedIndex::Postings(std::string_view label,
                                              std::string_view value) const {
  std::shared_lock lock(mu_);
  const auto* list = FindLocked(label, value);
  return list != nullptr ? *list : std::vector<RecordId>{};
}

std::vector<RecordId> InvertedIndex::Candidates(
    const Record& record, const std::vector<std::string>& labels) const {
  std::shared_lock lock(mu_);
  std::vector<RecordId> out;
  for (const auto& a : record) {
    if (!labels.empty() &&
        std::find(labels.begin(), labels.end(), a.label) == labels.end()) {
      continue;
    }
    const auto* list = FindLocked(a.label, a.value);
    if (list != nullptr) out.insert(out.end(), list->begin(), list->end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t InvertedIndex::num_postings() const {
  std::shared_lock lock(mu_);
  return postings_.size();
}

}  // namespace infoleak
