#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace infoleak {

/// \brief Interns strings to dense `uint32_t` ids.
///
/// The evaluation hot path (leakage over thousands of records against one
/// reference) spends most of its lookup time hashing and comparing label /
/// value strings. A `SymbolTable` folds each distinct string into a small
/// integer once, so the inner loops compare ids instead of bytes.
///
/// Interned strings are stored in a deque arena whose element addresses are
/// stable, so the id → name views stay valid as the table grows. The table
/// is movable but not copyable (copies would leave views dangling into the
/// original arena).
class SymbolTable {
 public:
  /// Sentinel returned by Find() for strings never interned.
  static constexpr uint32_t kNoSymbol = 0xFFFFFFFFu;

  SymbolTable() = default;
  SymbolTable(SymbolTable&&) = default;
  SymbolTable& operator=(SymbolTable&&) = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id of `s`, interning it first if unseen. Ids are dense:
  /// the n-th distinct string gets id n-1.
  uint32_t Intern(std::string_view s);

  /// Id of `s`, or kNoSymbol when `s` was never interned. Never mutates.
  uint32_t Find(std::string_view s) const;

  /// The string behind `id`; empty view for unknown ids. The view stays
  /// valid for the table's lifetime.
  std::string_view NameOf(uint32_t id) const {
    return id < names_.size() ? names_[id] : std::string_view{};
  }

  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

 private:
  /// One slot of the open-addressing string index: the cached full hash
  /// (to skip byte comparisons on probe collisions) plus the interned id;
  /// id == kNoSymbol marks an empty slot. Flat linear probing at load
  /// factor <= 1/2 replaces the node-based unordered_map the index used to
  /// be — Find on the record-ingest path is now typically one cache line.
  struct IndexSlot {
    uint64_t hash = 0;
    uint32_t id = kNoSymbol;
  };

  std::size_t SlotFor(uint64_t hash) const;
  uint32_t Lookup(std::string_view s, uint64_t hash) const;
  void Grow();

  std::deque<std::string> arena_;  // owns the bytes; addresses are stable
  std::vector<IndexSlot> index_;   // open-addressing hash -> id
  std::vector<std::string_view> names_;  // id -> view
};

/// \brief The two string domains of an attribute, interned independently so
/// each stays dense (labels repeat far more than values).
struct Symbols {
  SymbolTable labels;
  SymbolTable values;
};

/// Packs an interned (label, value) pair into one 64-bit hash-map key.
inline uint64_t PackSymbolPair(uint32_t label, uint32_t value) {
  return (static_cast<uint64_t>(label) << 32) | value;
}

/// \brief One attribute of a stored record with its label and value
/// interned into the store's vocabulary.
struct InternedCell {
  uint32_t label = SymbolTable::kNoSymbol;
  uint32_t value = SymbolTable::kNoSymbol;
  double confidence = 0.0;
};

/// \brief Borrowed view of a record collection whose cells are interned
/// into one vocabulary — the form `RecordStore` keeps beside its records.
/// Record `i`'s cells are `cells[offsets[i], offsets[i + 1])`, in the
/// record's canonical attribute order. Valid while the owner is not
/// appended to.
struct InternedRecords {
  const Symbols* vocabulary = nullptr;
  const InternedCell* cells = nullptr;
  const uint64_t* offsets = nullptr;  ///< size + 1 entries; offsets[0] == 0
  std::size_t size = 0;
};

}  // namespace infoleak
