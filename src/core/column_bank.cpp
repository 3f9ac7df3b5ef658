#include "core/column_bank.h"

#include <algorithm>

#include "obs/metrics.h"

namespace infoleak {
namespace {

obs::Counter& BankBuildCounter() {
  static obs::Counter& builds = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_column_bank_builds_total", {},
      "ColumnBank constructions: one per leakage index and per epoch-bump "
      "rebuild of it, one per cached reference's scan bank, one per "
      "offline bank build");
  return builds;
}

obs::Counter& BankAppendCounter() {
  static obs::Counter& appends = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_column_bank_appends_total", {},
      "Records appended to a ColumnBank (cell resolution paid once here "
      "instead of once per scan)");
  return appends;
}

}  // namespace

ColumnBank::ColumnBank(const PreparedReference& ref) : ref_(&ref) {
  offset_.push_back(0);
  BankBuildCounter().Inc();
}

ColumnBank ColumnBank::FromDatabase(const Database& db,
                                    const PreparedReference& ref) {
  ColumnBank bank(ref);
  bank.ExtendFrom(db);
  return bank;
}

void ColumnBank::Append(const Record& r) {
  const Symbols& syms = ref_->symbols();
  // Mirrors PreparedRecord::Assign attribute for attribute (canonical
  // order, same weight resolution), then freezes the match position the
  // record-at-a-time path would re-derive by hashing on every scan.
  const std::size_t begin = conf_.size();
  for (const auto& a : r) {
    const uint32_t label = syms.labels.Find(a.label);
    const uint32_t value = syms.values.Find(a.value);
    conf_.push_back(a.confidence);
    weight_.push_back(label != SymbolTable::kNoSymbol
                          ? ref_->LabelWeight(label)
                          : ref_->weight_model().Weight(a.label));
    match_pos_.push_back(ref_->MatchPosition(label, value));
  }
  EndRecord(begin);
}

void ColumnBank::ExtendFrom(const Database& db) {
  for (std::size_t i = records_; i < db.size(); ++i) {
    Append(db[i]);
  }
}

void ColumnBank::ResolveVocabulary(const Symbols& vocab) {
  if (&vocab != vocab_) {
    vocab_ = &vocab;
    vocab_labels_ = 0;
    vocab_values_ = 0;
    vocab_label_.clear();
    vocab_match_ = FlatPairMap();
    unresolved_.resize(ref_->size());
    for (std::size_t j = 0; j < unresolved_.size(); ++j) {
      unresolved_[j] = static_cast<uint32_t>(j);
    }
  }
  const std::size_t labels = vocab.labels.size();
  const std::size_t values = vocab.values.size();
  if (labels == vocab_labels_ && values == vocab_values_) return;
  // Store labels new since the last resolve: the same weight the string
  // path computes (p's cached weight when p has the label, else the model).
  const Symbols& syms = ref_->symbols();
  for (std::size_t id = vocab_labels_; id < labels; ++id) {
    const std::string_view name =
        vocab.labels.NameOf(static_cast<uint32_t>(id));
    const uint32_t label = syms.labels.Find(name);
    VocabLabel entry;
    entry.weight = label != SymbolTable::kNoSymbol
                       ? ref_->LabelWeight(label)
                       : ref_->weight_model().Weight(name);
    vocab_label_.push_back(entry);
  }
  // Pairs of p the store has never seen can match no stored cell; retry
  // them only now that the vocabulary grew. p's pairs are distinct, so
  // each resolves to its own store pair.
  std::size_t kept = 0;
  for (const uint32_t pos : unresolved_) {
    const PreparedAttr& attr = ref_->attrs()[pos];
    const uint32_t label = vocab.labels.Find(syms.labels.NameOf(attr.label));
    const uint32_t value = label != SymbolTable::kNoSymbol
                               ? vocab.values.Find(syms.values.NameOf(attr.value))
                               : SymbolTable::kNoSymbol;
    if (value == SymbolTable::kNoSymbol) {
      unresolved_[kept++] = pos;
      continue;
    }
    VocabLabel& entry = vocab_label_[label];
    if (!entry.several && entry.value == SymbolTable::kNoSymbol) {
      entry.value = value;
      entry.pos = pos;
      continue;
    }
    if (!entry.several) {  // a second pair under this label
      vocab_match_.Insert(PackSymbolPair(label, entry.value), entry.pos);
      entry.several = true;
      entry.value = SymbolTable::kNoSymbol;
      entry.pos = PreparedReference::kNoMatch;
    }
    vocab_match_.Insert(PackSymbolPair(label, value), pos);
  }
  unresolved_.resize(kept);
  vocab_labels_ = labels;
  vocab_values_ = values;
}

void ColumnBank::AppendInterned(const InternedRecords& rows) {
  ResolveVocabulary(*rows.vocabulary);
  const InternedCell* cell = rows.cells + rows.offsets[records_];
  const InternedCell* const last = rows.cells + rows.offsets[records_ + 1];
  // Grow for the whole view at once (geometrically, so one-record appends
  // stay amortized O(1)): a catch-up then never reallocates mid-way.
  const std::size_t want =
      conf_.size() + (rows.offsets[rows.size] - rows.offsets[records_]);
  if (conf_.capacity() < want) {
    const std::size_t cap = std::max(want, 2 * conf_.capacity());
    conf_.reserve(cap);
    weight_.reserve(cap);
    match_pos_.reserve(cap);
  }
  const std::size_t begin = conf_.size();
  for (; cell != last; ++cell) {
    const VocabLabel& label = vocab_label_[cell->label];
    uint32_t pos = cell->value == label.value ? label.pos
                                              : PreparedReference::kNoMatch;
    if (label.several) {
      pos = vocab_match_.Find(PackSymbolPair(cell->label, cell->value));
    }
    conf_.push_back(cell->confidence);
    weight_.push_back(label.weight);
    match_pos_.push_back(pos);
  }
  EndRecord(begin);
}

void ColumnBank::ExtendFrom(const InternedRecords& rows) {
  while (records_ < rows.size) AppendInterned(rows);
}

void ColumnBank::EndRecord(std::size_t begin) {
  // Same bookkeeping as PreparedRecord::Assign: the first weight is the
  // common one, and any differing weight makes the record non-uniform.
  const std::size_t end = conf_.size();
  const double common = end > begin ? weight_[begin] : 0.0;
  bool uniform = true;
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (weight_[i] != common) {
      uniform = false;
      break;
    }
  }
  if (end - begin > max_record_) max_record_ = end - begin;
  offset_.push_back(static_cast<uint64_t>(end));
  uniform_.push_back(uniform ? 1 : 0);
  common_weight_.push_back(common);
  ++records_;
  BankAppendCounter().Inc();
}

void FillMatchColumns(const ColumnRecordView& v, std::size_t reference_size,
                      LeakageWorkspace* ws) {
  ws->match_conf.assign(reference_size, 0.0);
  ws->match_rpos.assign(reference_size, PreparedReference::kNoMatch);
  for (std::size_t i = 0; i < v.size; ++i) {
    const uint32_t pos = v.match_pos[i];
    if (pos != PreparedReference::kNoMatch) {
      ws->match_conf[pos] = v.conf[i];
      ws->match_rpos[pos] = static_cast<uint32_t>(i);
    }
  }
}

bool UniformWeightOver(const ColumnRecordView& r, const PreparedReference& p) {
  if (!r.uniform_weight || !p.uniform_weight()) return false;
  if (r.size == 0 || p.size() == 0) return true;
  return r.common_weight == p.common_weight();
}

}  // namespace infoleak
