#include "anon/bridge.h"

#include <algorithm>

#include "anon/hierarchy.h"

namespace infoleak {
namespace {

/// The clamp `Record::Insert` applies to every inserted confidence.
double ClampConfidence(double c) {
  if (c < 0.0) return 0.0;
  if (c > 1.0) return 1.0;
  return c;
}

}  // namespace

Result<Record> RowToRecord(const Table& table, std::size_t row,
                           double confidence) {
  if (row >= table.num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  Record r;
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    r.Insert(Attribute(table.columns()[c], table.at(row, c), confidence));
  }
  return r;
}

Result<Database> TableToDatabase(const Table& table, double confidence) {
  Database db;
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    auto r = RowToRecord(table, row, confidence);
    if (!r.ok()) return r.status();
    db.Add(std::move(r).value());
  }
  return db;
}

Record AlignGeneralizedToReference(const Record& r, const Record& p,
                                   double generalized_confidence) {
  Record out;
  for (RecordId id : r.sources()) out.AddSource(id);
  for (const auto& a : r) {
    if (p.Contains(a.label, a.value)) {
      out.Insert(a);  // already exact
      continue;
    }
    bool rewritten = false;
    for (const auto& b : p) {
      if (b.label != a.label) continue;
      if (GeneralizedCovers(a.value, b.value)) {
        out.Insert(Attribute(a.label, b.value,
                             a.confidence * generalized_confidence));
        rewritten = true;
        break;
      }
    }
    if (!rewritten) out.Insert(a);
  }
  return out;
}

GeneralizedAligner::GeneralizedAligner(const Database& entities,
                                       double generalized_confidence)
    : generalized_confidence_(generalized_confidence) {
  offsets_.push_back(0);
  for (const Record& e : entities) {
    for (const Attribute& a : e) {
      cells_.push_back(InternedCell{vocab_.labels.Intern(a.label),
                                    vocab_.values.Intern(a.value),
                                    ClampConfidence(a.confidence)});
    }
    offsets_.push_back(cells_.size());
  }
  label_values_.resize(vocab_.labels.size());
  for (const InternedCell& cell : cells_) {
    label_values_[cell.label].push_back(cell.value);
  }
  for (std::vector<uint32_t>& values : label_values_) {
    std::sort(values.begin(), values.end(), [&](uint32_t a, uint32_t b) {
      return vocab_.values.NameOf(a) < vocab_.values.NameOf(b);
    });
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  aligned_.reserve(cells_.size());
  aligned_offsets_.reserve(offsets_.size());
}

bool GeneralizedAligner::Covers(uint32_t value, uint32_t exact) {
  const uint64_t key = PackSymbolPair(value, exact);
  uint32_t known = covers_.Find(key);
  if (known == FlatPairMap::kNotFound) {
    known = GeneralizedCovers(vocab_.values.NameOf(value),
                              vocab_.values.NameOf(exact))
                ? 1
                : 0;
    covers_.Insert(key, known);
  }
  return known != 0;
}

std::vector<uint32_t> GeneralizedAligner::ClassKey(std::string_view label,
                                                   std::string_view value) {
  const uint32_t l = vocab_.labels.Find(label);
  if (l == SymbolTable::kNoSymbol) return {};
  const uint32_t exact = vocab_.values.Intern(value);
  const std::vector<uint32_t>& values = label_values_[l];
  // [kept value or kNoSymbol, rewritten count, rewritten values..., rank].
  std::vector<uint32_t> key{SymbolTable::kNoSymbol, 0};
  uint32_t rewritten_below = 0;
  for (const uint32_t u : values) {
    if (u == exact) {
      key[0] = u;
    } else if (Covers(u, exact)) {
      key.push_back(u);
      if (vocab_.values.NameOf(u) < value) ++rewritten_below;
    }
  }
  key[1] = static_cast<uint32_t>(key.size() - 2);
  if (key[1] > 0) {
    const auto below = std::lower_bound(
        values.begin(), values.end(), value,
        [&](uint32_t u, std::string_view v) {
          return vocab_.values.NameOf(u) < v;
        });
    key.push_back(static_cast<uint32_t>(below - values.begin()) -
                  rewritten_below);
  }
  return key;
}

std::size_t GeneralizedAligner::Canonicalize(std::size_t begin,
                                             std::size_t end) {
  // Stable: equal values keep insertion order, so the max below folds
  // them in the order Record::Insert would.
  std::stable_sort(aligned_.begin() + begin, aligned_.begin() + end,
                   [&](const InternedCell& a, const InternedCell& b) {
                     return vocab_.values.NameOf(a.value) <
                            vocab_.values.NameOf(b.value);
                   });
  std::size_t out = begin;
  for (std::size_t i = begin; i < end; ++i) {
    if (out > begin && aligned_[out - 1].value == aligned_[i].value) {
      aligned_[out - 1].confidence =
          std::max(aligned_[out - 1].confidence, aligned_[i].confidence);
    } else {
      aligned_[out++] = aligned_[i];
    }
  }
  return out;
}

InternedRecords GeneralizedAligner::AlignTo(const Record& p) {
  // p's values by entity label. p's attributes are sorted by (label,
  // value), so each label's values arrive contiguous and in canonical
  // order — the order AlignGeneralizedToReference tries them in. Labels no
  // entity carries cannot affect any cell.
  ref_values_.clear();
  ref_begin_.assign(vocab_.labels.size(), 0);
  ref_end_.assign(vocab_.labels.size(), 0);
  for (const Attribute& b : p) {
    const uint32_t label = vocab_.labels.Find(b.label);
    if (label == SymbolTable::kNoSymbol) continue;
    if (ref_begin_[label] == ref_end_[label]) {
      ref_begin_[label] = static_cast<uint32_t>(ref_values_.size());
    }
    ref_values_.push_back(vocab_.values.Intern(b.value));
    ref_end_[label] = static_cast<uint32_t>(ref_values_.size());
  }

  aligned_.clear();
  aligned_offsets_.assign(1, 0);
  for (std::size_t e = 0; e < size(); ++e) {
    const std::size_t last = offsets_[e + 1];
    std::size_t c = offsets_[e];
    while (c < last) {
      // One label's cells: contiguous, since cells are in canonical order.
      const uint32_t label = cells_[c].label;
      std::size_t group_end = c + 1;
      while (group_end < last && cells_[group_end].label == label) {
        ++group_end;
      }
      const uint32_t* const ref_first = ref_values_.data() + ref_begin_[label];
      const uint32_t* const ref_last = ref_values_.data() + ref_end_[label];
      const std::size_t out_begin = aligned_.size();
      bool rewrote = false;
      for (; c < group_end; ++c) {
        InternedCell cell = cells_[c];
        if (std::find(ref_first, ref_last, cell.value) == ref_last) {
          for (const uint32_t* exact = ref_first; exact != ref_last; ++exact) {
            if (Covers(cell.value, *exact)) {
              cell.value = *exact;
              cell.confidence =
                  ClampConfidence(cell.confidence * generalized_confidence_);
              rewrote = true;
              break;
            }
          }
        }
        aligned_.push_back(cell);
      }
      if (rewrote) aligned_.resize(Canonicalize(out_begin, aligned_.size()));
    }
    aligned_offsets_.push_back(aligned_.size());
  }

  InternedRecords view;
  view.vocabulary = &vocab_;
  view.cells = aligned_.data();
  view.offsets = aligned_offsets_.data();
  view.size = size();
  return view;
}

}  // namespace infoleak
