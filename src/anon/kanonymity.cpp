#include "anon/kanonymity.h"

#include <algorithm>
#include <map>
#include <numeric>

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
  std::vector<std::string> qi_columns;
  std::vector<int> max_levels;
  std::size_t lattice_size = 1;
  for (const auto& qi : qis) {
    if (qi.hierarchy == nullptr) {
      return Status::InvalidArgument("quasi-identifier '" + qi.column +
                                     "' has no hierarchy");
    }
    qi_columns.push_back(qi.column);
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

  Result<Generalization> found = Status::NotFound(
      "no level vector in the hierarchy lattice achieves k-anonymity");
  Status error = Status::OK();
  ForEachNodeByHeight(max_levels, [&](const std::vector<int>& levels) {
    auto generalized = GeneralizeTable(table, qis, levels);
    if (!generalized.ok()) {
      error = generalized.status();
      return true;  // abort the walk
    }
    auto classes = EquivalenceClasses(*generalized, qi_columns);
    if (!classes.ok()) {
      error = classes.status();
      return true;
    }
    std::vector<std::size_t> to_suppress;
    for (const auto& cls : *classes) {
      if (cls.size() < k) {
        to_suppress.insert(to_suppress.end(), cls.begin(), cls.end());
      }
    }
    if (to_suppress.size() > max_suppressed) return false;
    // The survivors themselves must form classes of size k.
    if (table.num_rows() - to_suppress.size() < k) return false;

    std::sort(to_suppress.begin(), to_suppress.end());
    auto kept = Table::Create(generalized->columns());
    if (!kept.ok()) {
      error = kept.status();
      return true;
    }
    std::size_t next = 0;
    for (std::size_t row = 0; row < generalized->num_rows(); ++row) {
      if (next < to_suppress.size() && to_suppress[next] == row) {
        ++next;
        continue;
      }
      Status added = kept->AddRow(generalized->row(row));
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
