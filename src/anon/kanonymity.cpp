#include "anon/kanonymity.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "core/prepared.h"
#include "core/symbols.h"

namespace infoleak {

Result<std::vector<std::vector<std::size_t>>> EquivalenceClasses(
    const Table& table, const std::vector<std::string>& qi_columns) {
  std::vector<std::size_t> cols;
  cols.reserve(qi_columns.size());
  for (const auto& c : qi_columns) {
    auto idx = table.ColumnIndex(c);
    if (!idx.ok()) return idx.status();
    cols.push_back(*idx);
  }
  std::map<std::vector<std::string>, std::size_t> class_of;  // key -> class index
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> key;
    key.reserve(cols.size());
    for (std::size_t c : cols) key.push_back(table.at(r, c));
    auto [it, inserted] = class_of.try_emplace(std::move(key), classes.size());
    if (inserted) classes.emplace_back();
    classes[it->second].push_back(r);
  }
  return classes;
}

Result<bool> IsKAnonymous(const Table& table,
                          const std::vector<std::string>& qi_columns,
                          std::size_t k) {
  if (k <= 1) return true;  // every table is trivially 1-anonymous
  auto classes = EquivalenceClasses(table, qi_columns);
  if (!classes.ok()) return classes.status();
  for (const auto& cls : *classes) {
    if (cls.size() < k) return false;
  }
  return true;
}

Result<Table> GeneralizeTable(const Table& table,
                              const std::vector<QuasiIdentifier>& qis,
                              const std::vector<int>& levels) {
  if (levels.size() != qis.size()) {
    return Status::InvalidArgument("levels/quasi-identifier count mismatch");
  }
  Table out = table;
  for (std::size_t i = 0; i < qis.size(); ++i) {
    if (qis[i].hierarchy == nullptr) {
      return Status::InvalidArgument("quasi-identifier '" + qis[i].column +
                                     "' has no hierarchy");
    }
    auto col = table.ColumnIndex(qis[i].column);
    if (!col.ok()) return col.status();
    for (std::size_t r = 0; r < out.num_rows(); ++r) {
      INFOLEAK_RETURN_IF_ERROR(out.SetCell(
          r, qis[i].column,
          qis[i].hierarchy->Generalize(table.at(r, *col), levels[i])));
    }
  }
  return out;
}

namespace {

/// Visits the level vectors whose positions [pos, n) sum to `remaining`,
/// lexicographically (smaller values first at each position), until `fn`
/// returns true; returns whether it did.
template <typename Fn>
bool VisitAtHeight(const std::vector<int>& max_levels, std::size_t pos,
                   int remaining, std::vector<int>* levels, Fn& fn) {
  if (pos == levels->size()) return remaining == 0 && fn(*levels);
  // What later positions can still absorb bounds this position from below.
  int later_capacity = 0;
  for (std::size_t j = pos + 1; j < max_levels.size(); ++j) {
    later_capacity += max_levels[j];
  }
  const int hi = std::min(max_levels[pos], remaining);
  for (int v = std::max(0, remaining - later_capacity); v <= hi; ++v) {
    (*levels)[pos] = v;
    if (VisitAtHeight(max_levels, pos + 1, remaining - v, levels, fn)) {
      return true;
    }
  }
  return false;
}

/// One quasi-identifier column interned for the lattice walk: each row's
/// raw value as an id, and each distinct raw value generalized once per
/// level, so a node groups rows by comparing ids, not strings.
struct InternedQi {
  InternedQi(const Table& table, std::size_t col, const Hierarchy& h)
      : column(col),
        hierarchy(&h),
        levels(std::max(0, h.max_level()) + 1) {
    row_value.reserve(table.num_rows());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      row_value.push_back(raw.Intern(table.at(r, col)));
    }
  }

  /// Raw value id -> generalized value id at `level`, built on first use.
  const std::vector<uint32_t>& AtLevel(int level) {
    std::vector<uint32_t>& ids = levels[level];
    if (ids.empty() && !raw.empty()) {
      ids.reserve(raw.size());
      for (uint32_t v = 0; v < raw.size(); ++v) {
        ids.push_back(
            generalized.Intern(hierarchy->Generalize(raw.NameOf(v), level)));
      }
    }
    return ids;
  }

  std::size_t column;
  const Hierarchy* hierarchy;
  std::vector<uint32_t> row_value;  // by row: raw value id
  SymbolTable raw;
  SymbolTable generalized;
  std::vector<std::vector<uint32_t>> levels;  // by level: raw -> generalized
};

/// Visits every node of the lattice `0 <= levels[i] <= max_levels[i]` in
/// (height, lexicographic) order — the minimality order — until `fn`
/// returns true, without materializing the (exponential in #QIs) lattice.
template <typename Fn>
void ForEachNodeByHeight(const std::vector<int>& max_levels, Fn fn) {
  const int total_height =
      std::accumulate(max_levels.begin(), max_levels.end(), 0);
  std::vector<int> levels(max_levels.size(), 0);
  for (int h = 0; h <= total_height; ++h) {
    if (VisitAtHeight(max_levels, 0, h, &levels, fn)) return;
  }
}

}  // namespace

Result<Generalization> MinimalGeneralization(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    std::size_t k, std::size_t max_suppressed, const AcceptFn& accept) {
  std::vector<int> max_levels;
  std::size_t lattice_size = 1;
  for (const auto& qi : qis) {
    if (qi.hierarchy == nullptr) {
      return Status::InvalidArgument("quasi-identifier '" + qi.column +
                                     "' has no hierarchy");
    }
    max_levels.push_back(qi.hierarchy->max_level());
    lattice_size *= static_cast<std::size_t>(qi.hierarchy->max_level()) + 1;
    if (lattice_size > 1000000) {
      return Status::ResourceExhausted("generalization lattice too large");
    }
  }
  if (table.num_rows() < k) {
    return Status::NotFound(
        "table has fewer than k rows; no generalization can achieve "
        "k-anonymity");
  }

  std::vector<InternedQi> interned;
  interned.reserve(qis.size());
  for (const auto& qi : qis) {
    auto col = table.ColumnIndex(qi.column);
    if (!col.ok()) return col.status();
    interned.emplace_back(table, *col, *qi.hierarchy);
  }
  // A column listed twice publishes its last listing's generalization, as
  // GeneralizeTable applies them in order; both listings then read it.
  std::vector<std::size_t> source(qis.size());
  for (std::size_t i = 0; i < qis.size(); ++i) {
    source[i] = i;
    for (std::size_t j = i + 1; j < qis.size(); ++j) {
      if (interned[j].column == interned[i].column) source[i] = j;
    }
  }

  const std::size_t rows = table.num_rows();
  std::vector<const std::vector<uint32_t>*> generalized(qis.size());
  std::vector<uint32_t> class_of(rows);
  std::vector<std::size_t> class_size;
  Result<Generalization> found = Status::NotFound(
      "no level vector in the hierarchy lattice achieves k-anonymity");
  Status error = Status::OK();
  ForEachNodeByHeight(max_levels, [&](const std::vector<int>& levels) {
    for (std::size_t i = 0; i < qis.size(); ++i) {
      generalized[i] = &interned[source[i]].AtLevel(levels[source[i]]);
    }
    // Equivalence classes over the generalized id tuples, refined one
    // quasi-identifier at a time: (class so far, next id) -> class.
    std::fill(class_of.begin(), class_of.end(), 0);
    uint32_t classes = 1;
    for (std::size_t i = 0; i < qis.size(); ++i) {
      const InternedQi& qi = interned[source[i]];
      FlatPairMap refined;
      refined.Reserve(classes);
      classes = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        const uint64_t key =
            PackSymbolPair(class_of[r], (*generalized[i])[qi.row_value[r]]);
        uint32_t id = refined.Find(key);
        if (id == FlatPairMap::kNotFound) {
          id = classes++;
          refined.Insert(key, id);
        }
        class_of[r] = id;
      }
    }
    class_size.assign(classes, 0);
    for (uint32_t c : class_of) ++class_size[c];
    std::vector<std::size_t> to_suppress;
    for (std::size_t r = 0; r < rows; ++r) {
      if (class_size[class_of[r]] < k) to_suppress.push_back(r);
    }
    if (to_suppress.size() > max_suppressed) return false;
    // The survivors themselves must form classes of size k.
    if (rows - to_suppress.size() < k) return false;

    auto kept = Table::Create(table.columns());
    if (!kept.ok()) {
      error = kept.status();
      return true;
    }
    std::size_t next = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (next < to_suppress.size() && to_suppress[next] == r) {
        ++next;
        continue;
      }
      std::vector<std::string> row = table.row(r);
      for (std::size_t i = 0; i < qis.size(); ++i) {
        const InternedQi& qi = interned[source[i]];
        row[qi.column] = std::string(
            qi.generalized.NameOf((*generalized[i])[qi.row_value[r]]));
      }
      Status added = kept->AddRow(std::move(row));
      if (!added.ok()) {
        error = added;
        return true;
      }
    }
    if (accept) {
      Result<bool> taken = accept(*kept);
      if (!taken.ok()) {
        error = taken.status();
        return true;
      }
      if (!*taken) return false;
    }
    found = Generalization{std::move(kept).value(), levels,
                           std::move(to_suppress)};
    return true;
  });
  if (!error.ok()) return error;
  return found;
}

}  // namespace infoleak
