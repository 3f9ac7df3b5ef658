#include "core/prepared.h"

namespace infoleak {

PreparedReference::PreparedReference(const Record& p, const WeightModel& wm)
    : wm_(&wm) {
  attrs_.reserve(p.size());
  attr_weight_.reserve(p.size());
  match_.Reserve(p.size());
  for (const auto& b : p) {
    PreparedAttr pa;
    pa.label = syms_.labels.Intern(b.label);
    if (pa.label == label_weight_.size()) {
      label_weight_.push_back(wm.Weight(b.label));
    }
    pa.value = syms_.values.Intern(b.value);
    pa.confidence = b.confidence;
    pa.weight = label_weight_[pa.label];
    total_weight_ += pa.weight;
    if (attrs_.empty()) {
      common_weight_ = pa.weight;
    } else if (pa.weight != common_weight_) {
      uniform_ = false;
    }
    match_.Insert(PackSymbolPair(pa.label, pa.value),
                  static_cast<uint32_t>(attrs_.size()));
    attr_weight_.push_back(pa.weight);
    attrs_.push_back(pa);
  }
}

void LeakageWorkspace::ReserveFor(std::size_t max_record_attrs,
                                  std::size_t reference_attrs) {
  poly.reserve(max_record_attrs + 1);
  match_conf.reserve(reference_attrs);
  match_rpos.reserve(reference_attrs);
  matched.reserve(max_record_attrs);
}

}  // namespace infoleak
