#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "anon/table.h"
#include "core/database.h"
#include "core/prepared.h"
#include "core/record.h"
#include "core/symbols.h"
#include "util/result.h"

namespace infoleak {

/// Bridges the data-publishing world (typed tables, §3) into the leakage
/// world (schema-less records): a published, possibly anonymized table
/// becomes a database the adversary can analyze.

/// \brief Converts table row `row` to a record: one attribute per column,
/// labeled with the column name, with the given confidence.
Result<Record> RowToRecord(const Table& table, std::size_t row,
                           double confidence = 1.0);

/// \brief Converts every row; records are added in row order.
Result<Database> TableToDatabase(const Table& table, double confidence = 1.0);

/// \brief Applies the paper's §3.1 simplification: any attribute of `r`
/// whose (generalized) value covers the reference `p`'s value for the same
/// label is rewritten to the exact reference value (e.g. <Zip, 11*> becomes
/// <Zip, 111> when p holds <Zip, 111>).
///
/// This is the reference definition of the rewrite: `GeneralizedAligner`
/// computes the same alignment in id space and is tested against it.
///
/// \param generalized_confidence multiplier applied to the confidence of
///        rewritten attributes; 1.0 reproduces the paper's equality
///        simplification, values < 1 implement the paper's suggested
///        "original value with a reduced confidence" alternative.
Record AlignGeneralizedToReference(const Record& r, const Record& p,
                                   double generalized_confidence = 1.0);

/// \brief `AlignGeneralizedToReference` over a whole resolved database, in
/// id space: the entities are interned once, then aligned to any number of
/// references without building a `Record` per (reference, entity).
///
/// The construction interns every entity cell into the aligner's own
/// `Symbols`, in each record's canonical order. `AlignTo(p)` rewrites those
/// cells for `p` into a reused buffer: a cell whose value `p` holds under
/// its label is kept, a cell whose value covers one of `p`'s values under
/// its label (`GeneralizedCovers`, memoized per value-id pair) becomes that
/// value with confidence × `generalized_confidence`, and any other cell is
/// kept. A label group that saw a rewrite is re-sorted by value and merged
/// with max confidence, exactly as `Record::Insert` would, so
/// `ColumnBank::ExtendFrom(aligner.AlignTo(p))` yields the same columns as
/// appending `AlignGeneralizedToReference(e, p, gc)` for every entity `e`
/// (pinned by columnar_equivalence_test).
///
/// Provenance is not carried: the view holds attributes only. Not thread
/// safe; one aligner per evaluating thread.
class GeneralizedAligner {
 public:
  explicit GeneralizedAligner(const Database& entities,
                              double generalized_confidence = 1.0);

  GeneralizedAligner(const GeneralizedAligner&) = delete;
  GeneralizedAligner& operator=(const GeneralizedAligner&) = delete;

  /// Aligns every entity to `p`. The view (entity `i` is record `i`) is
  /// valid until the next `AlignTo` call or the aligner's destruction; its
  /// vocabulary is the aligner's, which this call may extend with `p`'s
  /// values.
  InternedRecords AlignTo(const Record& p);

  /// The part of a reference's alignment class that its attribute
  /// <label, value> contributes; a reference's class key is the
  /// concatenation of these over its attributes, in a fixed label order.
  /// Precondition: the reference holds no other value under `label` (a
  /// table row: one value per column).
  ///
  /// The key is computed in id space over the entity values seen under
  /// `label`: the one equal to `value` (kept by `AlignTo`), the ones that
  /// cover it (rewritten to it), and — when any is rewritten — the rank of
  /// `value` by name among the label's remaining entity values, which is
  /// where `Canonicalize` sorts the rewritten cell. Empty when no entity
  /// carries `label`. So two references with the same labels, weights and
  /// confidences whose keys are equal align every entity to cells that
  /// fill byte-identical bank columns (`conf`, `weight`, `match_pos`), and
  /// price identically under every engine. May extend the vocabulary with
  /// `value`, like `AlignTo`.
  std::vector<uint32_t> ClassKey(std::string_view label,
                                 std::string_view value);

  /// Number of entities.
  std::size_t size() const { return offsets_.size() - 1; }

 private:
  /// True iff entity value `value` covers reference value `exact`.
  bool Covers(uint32_t value, uint32_t exact);

  /// Re-sorts `aligned_[begin, end)` (one label's cells after a rewrite) by
  /// value and merges equal values with max confidence; returns the new end.
  std::size_t Canonicalize(std::size_t begin, std::size_t end);

  double generalized_confidence_;
  Symbols vocab_;
  std::vector<InternedCell> cells_;  // entity cells, canonical order
  std::vector<uint64_t> offsets_;    // entities + 1 entries
  FlatPairMap covers_;               // (value, exact) -> 1 covers / 0 not
  // By label id: the distinct entity values under it, sorted by name.
  std::vector<std::vector<uint32_t>> label_values_;

  // Per-AlignTo scratch, reused across references.
  std::vector<uint32_t> ref_values_;  // p's value ids, grouped by label
  std::vector<uint32_t> ref_begin_;   // by label id: p's values under it are
  std::vector<uint32_t> ref_end_;     // ref_values_[ref_begin_, ref_end_)
  std::vector<InternedCell> aligned_;
  std::vector<uint64_t> aligned_offsets_;
};

}  // namespace infoleak
