#pragma once

#include <functional>
#include <string>
#include <vector>

#include "anon/hierarchy.h"
#include "anon/table.h"
#include "util/result.h"

namespace infoleak {

/// \brief A quasi-identifier column paired with its generalization
/// hierarchy. The hierarchy pointer is non-owning; the caller keeps it
/// alive.
struct QuasiIdentifier {
  std::string column;
  const Hierarchy* hierarchy = nullptr;
};

/// \brief Groups row indices by their quasi-identifier value combination —
/// the equivalence classes of §3.1. Classes and their members are ordered
/// deterministically (by first occurrence / row index).
Result<std::vector<std::vector<std::size_t>>> EquivalenceClasses(
    const Table& table, const std::vector<std::string>& qi_columns);

/// \brief True iff every equivalence class has at least k rows (and the
/// table is non-empty or k == 0). A database "satisfies k-anonymity if for
/// every record there exist k−1 other records with the same
/// quasi-identifiers".
Result<bool> IsKAnonymous(const Table& table,
                          const std::vector<std::string>& qi_columns,
                          std::size_t k);

/// \brief Generalizes each quasi-identifier column to the given level
/// (levels[i] applies to qis[i]); other columns are untouched.
Result<Table> GeneralizeTable(const Table& table,
                              const std::vector<QuasiIdentifier>& qis,
                              const std::vector<int>& levels);

/// \brief The table a generalization search publishes.
struct Generalization {
  Table table;                          ///< generalized, suppressed rows dropped
  std::vector<int> levels;              ///< chosen level per quasi-identifier
  std::vector<std::size_t> suppressed;  ///< original row indices dropped
};

/// \brief Acceptance test over a candidate's published table: true takes
/// the node, false moves on to the next one, an error aborts the search.
using AcceptFn = std::function<Result<bool>(const Table& published)>;

/// \brief The §3.1 publisher's search: the minimal full-domain
/// generalization (Samarati/Sweeney's model, with record suppression).
///
/// Walks the level lattice in ascending height (sum of levels), then
/// lexicographic order, without materializing it. At each node it drops the
/// rows of equivalence classes smaller than k; the node qualifies when at
/// most `max_suppressed` rows are dropped and at least k rows survive (an
/// empty table hides nobody inside a crowd). Only a qualifying node is
/// offered to `accept` (e.g. an l-diversity or t-closeness check); the first
/// node it takes, or the first qualifying node when `accept` is null, is
/// returned. With `max_suppressed` = 0 this is the plain minimal
/// k-anonymous generalization. Each quasi-identifier's distinct values are
/// interned once and generalized once per level; a node counts class sizes
/// over id tuples and builds the published table (as `GeneralizeTable`
/// would, minus the dropped rows) only when it qualifies.
///
/// Fails with InvalidArgument on a quasi-identifier without a hierarchy,
/// ResourceExhausted when the lattice exceeds 10^6 nodes, and NotFound when
/// the table has fewer than k rows or no node is accepted.
Result<Generalization> MinimalGeneralization(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    std::size_t k, std::size_t max_suppressed,
    const AcceptFn& accept = nullptr);

}  // namespace infoleak
