#include "core/column_bank.h"

#include <algorithm>

#include "core/bounds.h"
#include "core/kernels.h"
#include "obs/metrics.h"

namespace infoleak {
namespace {

obs::Counter& BankBuildCounter() {
  static obs::Counter& builds = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_column_bank_builds_total", {},
      "ColumnBank constructions: one per leakage index, one per (point, "
      "alignment class) of a frontier sweep, one per offline bank build");
  return builds;
}

obs::Counter& BankAppendCounter() {
  static obs::Counter& appends = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_column_bank_appends_total", {},
      "Records appended to a ColumnBank (cell resolution paid once here "
      "instead of once per scan)");
  return appends;
}

/// The cell-resolution rule every record view is filled by: appends `r`'s
/// cells, in canonical order, to the three columns — confidence, the
/// label's weight (p's cached weight when p has the label, else the
/// model's), and the cell's position in `ref` (or kNoMatch). Both
/// `PreparedRecord::Assign` and `ColumnBank::Append` call it. It only
/// probes p's symbol tables: a label or value p lacks resolves to kNoSymbol
/// and matches nothing, so the tables stay bounded by |p|.
void AppendRecordCells(const Record& r, const PreparedReference& ref,
                       std::vector<double>* conf, std::vector<double>* weight,
                       std::vector<uint32_t>* match_pos) {
  const Symbols& syms = ref.symbols();
  const std::size_t begin = conf->size();
  conf->resize(begin + r.size());
  weight->resize(begin + r.size());
  match_pos->resize(begin + r.size());
  double* c = conf->data() + begin;
  double* w = weight->data() + begin;
  uint32_t* m = match_pos->data() + begin;
  for (const auto& a : r) {
    const uint32_t label = syms.labels.Find(a.label);
    const uint32_t value = syms.values.Find(a.value);
    *c++ = a.confidence;
    *w++ = label != SymbolTable::kNoSymbol ? ref.LabelWeight(label)
                                           : ref.weight_model().Weight(a.label);
    *m++ = ref.MatchPosition(label, value);
  }
}

WeightSummary SummarizeWeights(const double* weight, std::size_t n) {
  WeightSummary out;
  if (n > 0) out.common = weight[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (weight[i] != out.common) {
      out.uniform = false;
      break;
    }
  }
  return out;
}

}  // namespace

void PreparedRecord::Assign(const Record& r, const PreparedReference& ref) {
  conf_.clear();
  weight_.clear();
  match_pos_.clear();
  AppendRecordCells(r, ref, &conf_, &weight_, &match_pos_);
  summary_ = SummarizeWeights(weight_.data(), weight_.size());
}

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
  const std::size_t begin = conf_.size();
  AppendRecordCells(r, *ref_, &conf_, &weight_, &match_pos_);
  EndRecord(begin);
}

void ColumnBank::ExtendFrom(const Database& db) {
  std::size_t cells = conf_.size();
  for (std::size_t i = records_; i < db.size(); ++i) cells += db[i].size();
  conf_.reserve(cells);
  weight_.reserve(cells);
  match_pos_.reserve(cells);
  offset_.reserve(db.size() + 1);
  uniform_.reserve(db.size());
  common_weight_.reserve(db.size());
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

void ColumnBank::AppendInterned(const InternedRecords& rows, std::size_t id) {
  ResolveVocabulary(*rows.vocabulary);
  const InternedCell* cell = rows.cells + rows.offsets[id];
  const InternedCell* const last = rows.cells + rows.offsets[id + 1];
  const std::size_t begin = conf_.size();
  for (; cell != last; ++cell) {
    conf_.push_back(cell->confidence);
    weight_.push_back(vocab_label_[cell->label].weight);
    match_pos_.push_back(MatchOf(*cell));
  }
  EndRecord(begin);
}

LeakageBounds ColumnBank::BoundInterned(const InternedRecords& rows,
                                        std::size_t id, LeakageWorkspace* ws) {
  ResolveVocabulary(*rows.vocabulary);
  const InternedCell* cell = rows.cells + rows.offsets[id];
  const InternedCell* const last = rows.cells + rows.offsets[id + 1];
  const std::size_t n = static_cast<std::size_t>(last - cell);
  const uint32_t pn = static_cast<uint32_t>(ref_->size());
  // match_conf gets one spare slot that unmatched cells write to, so the
  // scatter has no branch. Only the slots listed in match_hits are read,
  // each written by this record first, so no slot needs clearing.
  ws->match_conf.resize(pn + std::size_t{1});
  ws->match_hits.resize(n);
  double* const match_conf = ws->match_conf.data();
  uint32_t* const hits = ws->match_hits.data();
  std::size_t k = 0;
  double mean_all = 0.0;
  for (; cell != last; ++cell) {
    mean_all += vocab_label_[cell->label].weight * cell->confidence;
    const uint32_t pos = MatchOf(*cell);
    const bool hit = pos != PreparedReference::kNoMatch;
    const uint32_t slot = hit ? pos : pn;
    match_conf[slot] = cell->confidence;
    hits[k] = slot;
    k += hit ? 1 : 0;
  }
  LeakageBounds bounds;
  const double wp = ref_->total_weight();
  if (wp <= 0.0 || n == 0) {
    bounds.upper = 0.0;
    return bounds;
  }
  // The kernel visits p's positions in ascending order. Record cells and p
  // share the canonical attribute order, so the hits arrive sorted; the
  // sort only guards that, and a repeated position (the last
  // write wins, as in FillMatchColumns) is visited once.
  std::sort(hits, hits + k);
  double low = 0.0;
  double mass = 0.0;
  const double* const pweight = ref_->attr_weights().data();
  for (std::size_t h = 0; h < k; ++h) {
    const uint32_t j = hits[h];
    if (h > 0 && j == hits[h - 1]) continue;
    const double mc = match_conf[j];
    if (mc == 0.0) continue;  // a zero-confidence match
    kern::AddBoundTerm(mc, pweight[j], mean_all, wp, &low, &mass);
  }
  kern::FinishBounds(low, mass, wp, &bounds.lower, &bounds.upper);
  return bounds;
}

void ColumnBank::ExtendFrom(const InternedRecords& rows) {
  if (records_ >= rows.size) return;
  // Grow for the whole view at once (geometrically, so one-record extends
  // stay amortized O(1)): a catch-up never reallocates mid-way.
  const std::size_t want =
      conf_.size() + (rows.offsets[rows.size] - rows.offsets[records_]);
  if (conf_.capacity() < want) {
    const std::size_t cap = std::max(want, 2 * conf_.capacity());
    conf_.reserve(cap);
    weight_.reserve(cap);
    match_pos_.reserve(cap);
  }
  while (records_ < rows.size) AppendInterned(rows, records_);
}

void ColumnBank::Clear() {
  conf_.clear();
  weight_.clear();
  match_pos_.clear();
  offset_.assign(1, 0);
  uniform_.clear();
  common_weight_.clear();
  records_ = 0;
  max_record_ = 0;
}

void ColumnBank::EndRecord(std::size_t begin) {
  const std::size_t end = conf_.size();
  const WeightSummary summary =
      SummarizeWeights(weight_.data() + begin, end - begin);
  if (end - begin > max_record_) max_record_ = end - begin;
  offset_.push_back(static_cast<uint64_t>(end));
  uniform_.push_back(summary.uniform ? 1 : 0);
  common_weight_.push_back(summary.common);
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

void FillMatchedFlags(const ColumnRecordView& v, LeakageWorkspace* ws) {
  ws->matched.assign(v.size, 0);
  for (std::size_t i = 0; i < v.size; ++i) {
    ws->matched[i] = v.match_pos[i] != PreparedReference::kNoMatch ? 1 : 0;
  }
}

bool UniformWeightOver(const ColumnRecordView& r, const PreparedReference& p) {
  if (!r.uniform_weight || !p.uniform_weight()) return false;
  if (r.size == 0 || p.size() == 0) return true;
  return r.common_weight == p.common_weight();
}

}  // namespace infoleak
