#include "apps/streaming.h"

#include <algorithm>

#include "obs/metrics.h"

namespace infoleak {
namespace {

struct StreamMetrics {
  obs::Counter& adds;
  obs::Counter& component_merges;
};

StreamMetrics& Metrics() {
  auto& reg = obs::MetricsRegistry::Global();
  static StreamMetrics m{
      reg.GetCounter("infoleak_streaming_adds_total", {},
                     "Records ingested by StreamingLeakage::Add"),
      reg.GetCounter("infoleak_streaming_component_merges_total", {},
                     "Entity components folded into an incoming record"),
  };
  return m;
}

}  // namespace

StreamingLeakage::StreamingLeakage(Record reference,
                                   std::vector<std::string> link_labels,
                                   WeightModel weights,
                                   const LeakageEngine& engine)
    : reference_(std::move(reference)),
      link_labels_(std::move(link_labels)),
      weights_(std::move(weights)),
      engine_(engine),
      prepared_(reference_, weights_) {}

std::size_t StreamingLeakage::Find(std::size_t x) const {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

Result<double> StreamingLeakage::Add(Record record) {
  StreamMetrics& metrics = Metrics();
  metrics.adds.Inc();
  const std::size_t id = records_.size();

  // Components this record links to, via shared (label, value) postings.
  std::vector<std::size_t> roots;
  for (std::size_t neighbor : index_.Candidates(record, link_labels_)) {
    std::size_t root = Find(neighbor);
    if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
      roots.push_back(root);
    }
  }

  index_.Add(id, record);
  records_.push_back(record);
  parent_.push_back(id);

  // Merge the new record with every linked component; the new record's id
  // becomes the root so stale entries never shadow live ones.
  Record merged = std::move(record);
  metrics.component_merges.Inc(roots.size());
  for (std::size_t root : roots) {
    merged.MergeFrom(composite_[root]);
    composite_.erase(root);
    leakage_.erase(root);
    parent_[root] = id;
  }
  // Only the affected composite is re-scored, against the stream's
  // once-prepared reference, with zero steady-state allocation.
  scratch_.Assign(merged, prepared_);
  const Result<double> l =
      engine_.RecordLeakageColumnar(scratch_.view(), prepared_, &workspace_);
  if (!l.ok()) return l.status();
  composite_[id] = std::move(merged);
  leakage_[id] = *l;

  // The maximum only needs a rescan when a merged-away component carried
  // it; with few components a linear pass over the leakage map is cheap
  // and unconditionally correct.
  current_ = 0.0;
  for (const auto& [root, value] : leakage_) {
    current_ = std::max(current_, value);
  }
  return current_;
}

std::size_t StreamingLeakage::num_entities() const {
  return composite_.size();
}

Result<Record> StreamingLeakage::CompositeOf(std::size_t record_index) const {
  if (record_index >= records_.size()) {
    return Status::OutOfRange("no record " + std::to_string(record_index));
  }
  auto it = composite_.find(Find(record_index));
  if (it == composite_.end()) {
    return Status::Internal("component missing for record " +
                            std::to_string(record_index));
  }
  return it->second;
}

}  // namespace infoleak
