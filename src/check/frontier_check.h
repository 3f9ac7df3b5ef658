#pragma once

#include <cstdint>
#include <vector>

#include "check/oracle.h"

namespace infoleak::check {

/// \brief Frontier oracle: draws `cases` small seeded registries (at most
/// 40 rows; zip prefixes, disease count and registry seed from
/// `CaseGenerator::CaseSeed(seed, i)`), each with a random grid of points,
/// and prices every point under every measure twice — through
/// `RunFrontier` and through a reference built from the definitions: a
/// lattice walk over `GeneralizeTable` and `EquivalenceClasses`,
/// `TransitiveClosureResolver`, and per person `AlignGeneralizedToReference`
/// plus `SetLeakage` over a `Database` of Records. The chosen levels, the
/// suppressed count, and worst, mean and worst_person must agree bit for
/// bit. Each finding names its (seed, rows, point); it holds no record
/// case, so it is neither shrunk nor written to the corpus.
void CheckFrontier(uint64_t seed, std::size_t cases, std::size_t* comparisons,
                   std::vector<Finding>* findings);

}  // namespace infoleak::check
