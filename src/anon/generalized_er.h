#pragma once

#include <string>
#include <vector>

#include "er/match.h"
#include "er/merge.h"
#include "er/resolver.h"

namespace infoleak {

/// Entity resolution over anonymized data (§3). The adversary joining a
/// generalized table with exact background information (Table 3) needs a
/// match function that treats a generalized value ("11*", ">=50") as
/// compatible with any exact value it covers, and a merge that collapses a
/// generalized value with a covered exact one instead of keeping both.

/// \brief Like RuleMatch, but two values agree when either equals or covers
/// the other (GeneralizedCovers in both directions).
class GeneralizedRuleMatch : public MatchFunction {
 public:
  explicit GeneralizedRuleMatch(std::vector<std::vector<std::string>> rules);

  std::string_view name() const override { return "generalized-rule-match"; }
  bool Matches(const Record& a, const Record& b) const override;

  /// The disjunction of conjunctive label sets; `Matches` reads only the
  /// values under these labels.
  const std::vector<std::vector<std::string>>& rules() const { return rules_; }

 private:
  static bool ValuesAgree(std::string_view x, std::string_view y);
  static bool AgreeOnLabel(const Record& a, const Record& b,
                           std::string_view label);

  std::vector<std::vector<std::string>> rules_;
};

/// \brief Union merge that afterwards collapses, per label, any value pair
/// where one covers the other, keeping the more *specific* value (the
/// paper's r1' carries a single zip attribute after merging <Zip,11*> with
/// background <Zip,111>). Confidences of collapsed attributes combine by
/// maximum.
class GeneralizationMerge : public MergeFunction {
 public:
  std::string_view name() const override { return "generalization-union"; }
  Record Merge(const Record& a, const Record& b) const override;

  /// Collapses covering value pairs within a single record; exposed for
  /// aligning records that were built by other means.
  static Record CollapseCoveredValues(const Record& r);
};

/// \brief Transitive-closure ER over a generalized table, resolved class by
/// class instead of row pair by row pair.
///
/// Records whose projections onto the match's rule labels (their sorted
/// (label, value) pairs under those labels) are equal are interchangeable
/// for every `Matches` call, so the resolver groups them into classes and
/// decides links between representatives: one reflexive call per class
/// (a record with no value under a rule label matches nothing, not even
/// its twin) and one call per pair of classes. Each component is then
/// merged exactly as TransitiveClosureResolver merges it — members in
/// ascending record order, folded through `merge` — so both produce the
/// same entities (possibly in another order) from O(rows) hashing plus
/// O(classes²) match calls instead of O(rows²).
class GeneralizedClassResolver : public EntityResolver {
 public:
  GeneralizedClassResolver(const GeneralizedRuleMatch& match,
                           const MergeFunction& merge)
      : match_(match), merge_(merge) {}

  std::string_view name() const override { return "generalized-class"; }
  Result<Database> Resolve(const Database& db, ErStats* stats) const override;

 private:
  const GeneralizedRuleMatch& match_;
  const MergeFunction& merge_;
};

}  // namespace infoleak
