#pragma once

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/prepared.h"
#include "core/symbols.h"

namespace infoleak {

/// \brief Structure-of-arrays view of one record inside a `ColumnBank`:
/// raw pointers into the bank's contiguous columns plus the per-record
/// scalars the engines need. Cheap to construct (no ownership); valid until
/// the bank is appended to or destroyed.
struct ColumnRecordView {
  const double* conf = nullptr;        ///< believed confidence per attribute
  const double* weight = nullptr;      ///< resolved label weight per attribute
  const uint32_t* match_pos = nullptr; ///< position in p, or PreparedReference::kNoMatch
  std::size_t size = 0;                ///< attribute count |r|
  bool uniform_weight = true;          ///< one weight across the record's labels
  double common_weight = 0.0;          ///< that weight (0 when empty)
};

/// \brief The data-oriented evaluation plane: a batch of records prepared
/// against one `PreparedReference` and laid out as contiguous per-column
/// arrays — confidence, weight, and (the workhorse) the precomputed match
/// position of every attribute in `p`, plus record offset/length and
/// per-record weight summaries.
///
/// Where `PreparedRecord::Assign` re-resolves two string hashes and one
/// pair lookup per attribute per scan, a bank resolves them exactly once at
/// append time; a set-leakage scan over the bank touches nothing but flat
/// arrays. Banks are incrementally appendable, so a serving layer can keep
/// one bank per cached reference and extend it as the store grows — the
/// steady state evaluates thousands of records with zero hashing and zero
/// allocation.
///
/// Two ways in. `Append(const Record&)` resolves each cell's strings in the
/// reference's symbol tables (two hashes per cell) — for callers without a
/// store. `ExtendFrom(const InternedRecords&)` reads cells a store already
/// interned: the bank maps `p` into the store's id space once (|p| lookups,
/// repeated only for still-unresolved pairs when the store's vocabulary
/// has grown), after which a cell costs one load of its store label's
/// entry — weight plus p's value under that label — and a compare; only
/// labels under which p has several values fall back to a pair probe.
/// Both produce identical columns.
///
/// The per-record column order is the record's canonical attribute order
/// (the same order the string and prepared paths iterate), so every
/// evaluation over a bank is bit-identical to the record-at-a-time paths —
/// pinned by columnar_equivalence_test and the selfcheck oracle's
/// `columnar-vs-prepared` property.
///
/// Lifetime: the bank borrows `ref`, which must outlive it. Thread safety:
/// concurrent readers are safe; appends need external synchronization
/// against readers (see RecordStore::SetLeakColumnar for the serving-side
/// locking pattern).
class ColumnBank {
 public:
  explicit ColumnBank(const PreparedReference& ref);

  ColumnBank(ColumnBank&&) = default;
  ColumnBank& operator=(ColumnBank&&) = default;
  ColumnBank(const ColumnBank&) = delete;
  ColumnBank& operator=(const ColumnBank&) = delete;

  /// Builds a bank holding every record of `db`, in order.
  static ColumnBank FromDatabase(const Database& db,
                                 const PreparedReference& ref);

  /// Appends one record's columns (the bank analogue of
  /// PreparedRecord::Assign, plus the match-position precomputation).
  void Append(const Record& r);

  /// Appends the records of `db` this bank does not cover yet — records
  /// [size(), db.size()). Precondition: the bank was built from a prefix of
  /// `db` (size() <= db.size()).
  void ExtendFrom(const Database& db);

  /// Appends record `size()` of `rows` from its interned cells, with no
  /// string hashing unless the vocabulary grew since the last call.
  /// Precondition: size() < rows.size, and every earlier interned append
  /// read the same vocabulary (one store's).
  void AppendInterned(const InternedRecords& rows);

  /// Appends records [size(), rows.size) of `rows` — the serving layer's
  /// catch-up path. Same precondition as `AppendInterned`.
  void ExtendFrom(const InternedRecords& rows);

  /// Number of records in the bank.
  std::size_t size() const { return records_; }
  bool empty() const { return records_ == 0; }

  /// Total attribute cells across all records.
  std::size_t attributes() const { return conf_.size(); }

  /// Largest record length seen — what a workspace should reserve for.
  std::size_t max_record_size() const { return max_record_; }

  const PreparedReference& reference() const { return *ref_; }

  /// SoA view of record `i`. Precondition: i < size().
  ColumnRecordView view(std::size_t i) const {
    const std::size_t begin = static_cast<std::size_t>(offset_[i]);
    const std::size_t end = static_cast<std::size_t>(offset_[i + 1]);
    ColumnRecordView v;
    v.conf = conf_.data() + begin;
    v.weight = weight_.data() + begin;
    v.match_pos = match_pos_.data() + begin;
    v.size = end - begin;
    v.uniform_weight = uniform_[i] != 0;
    v.common_weight = common_weight_[i];
    return v;
  }

 private:
  /// Brings `p`'s image in `vocab` up to date: weights for store labels
  /// seen since the last call, and match entries for pairs of `p` whose
  /// strings have since entered the vocabulary.
  void ResolveVocabulary(const Symbols& vocab);

  /// Closes the record whose cells start at column `begin`: offset,
  /// uniform-weight summary, counters.
  void EndRecord(std::size_t begin);

  const PreparedReference* ref_;  // borrowed; must outlive the bank
  std::vector<double> conf_;
  std::vector<double> weight_;
  std::vector<uint32_t> match_pos_;
  std::vector<uint64_t> offset_;  // records_ + 1 entries; offset_[0] == 0
  std::vector<uint8_t> uniform_;
  std::vector<double> common_weight_;
  std::size_t records_ = 0;
  std::size_t max_record_ = 0;

  /// What a cell needs from its store label: the label's weight and, when
  /// p has exactly one resolved pair under it, that pair's store value id
  /// and position (a cell then matches iff its value id is equal). Labels
  /// under which p has several resolved pairs set `several` and match
  /// through `vocab_match_`.
  struct VocabLabel {
    double weight = 0.0;
    uint32_t value = SymbolTable::kNoSymbol;
    uint32_t pos = PreparedReference::kNoMatch;
    bool several = false;
  };

  // `p` resolved into one store vocabulary (interned appends only).
  const Symbols* vocab_ = nullptr;   // the vocabulary resolved against
  std::size_t vocab_labels_ = 0;     // its label count at the last resolve
  std::size_t vocab_values_ = 0;     // its value count at the last resolve
  std::vector<VocabLabel> vocab_label_;  // by store label id
  FlatPairMap vocab_match_;  // store (label, value) -> position, `several` only
  std::vector<uint32_t> unresolved_;  // positions of p not yet in the vocab
};

/// Columnar analogue of FillMatches: scatters a record view's precomputed
/// match positions into the workspace's per-reference-position columns.
/// O(|r|), no hashing.
void FillMatchColumns(const ColumnRecordView& v, std::size_t reference_size,
                      LeakageWorkspace* ws);

/// Columnar analogue of UniformWeightOver (Algorithm 1's precondition).
bool UniformWeightOver(const ColumnRecordView& r, const PreparedReference& p);

}  // namespace infoleak
