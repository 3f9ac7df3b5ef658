#pragma once

#include <string>
#include <string_view>

#include "core/database.h"
#include "core/record.h"
#include "util/result.h"

namespace infoleak {

/// Serialization for records and databases.
///
/// Text form (what `Record::ToString()` prints, and what the CLI accepts):
///   {<N, Alice>, <A, 20, 0.5>}
/// Attributes are `<label, value>` or `<label, value, confidence>`; commas
/// inside values are not supported in the text form — use CSV for those.
///
/// CSV form (long format, one attribute per row):
///   record,label,value,confidence
///   0,N,Alice,1
///   0,A,20,0.5
///   1,N,Bob,1
/// `record` indices group attributes into records; indices must be
/// non-negative integers and records appear in first-occurrence order.

/// \brief Parses the text form. Accepts optional surrounding braces and
/// whitespace; an empty body yields an empty record.
Result<Record> ParseRecord(std::string_view text);

/// \brief Renders the text form (same as `Record::ToString()`).
std::string FormatRecord(const Record& record);

/// \brief Parses a long-format CSV document into a database. Lines whose
/// first non-blank character is `#` are comments and are skipped (the
/// `# n=... seed=...` lines `infoleak generate` writes).
Result<Database> LoadDatabaseCsv(std::string_view csv_text);

/// \brief Renders a database in long-format CSV (with header).
std::string SaveDatabaseCsv(const Database& db);

}  // namespace infoleak
