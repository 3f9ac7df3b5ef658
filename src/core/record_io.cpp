#include "core/record_io.h"

#include <cmath>
#include <cstdlib>
#include <map>

#include "util/csv.h"
#include "util/string_util.h"

namespace infoleak {
namespace {

Result<double> ParseConfidence(std::string_view text) {
  std::string buf(Trim(text));
  char* end = nullptr;
  double c = std::strtod(buf.c_str(), &end);
  if (buf.empty() || end == nullptr || *end != '\0' || !std::isfinite(c)) {
    return Status::InvalidArgument("bad confidence '" + buf + "'");
  }
  if (c < 0.0 || c > 1.0) {
    return Status::OutOfRange("confidence " + buf + " outside [0, 1]");
  }
  return c;
}

Result<Attribute> ParseAttributeBody(std::string_view body) {
  // body is the inside of <...>: "label, value[, confidence]".
  auto parts = Split(body, ',');
  if (parts.size() != 2 && parts.size() != 3) {
    return Status::InvalidArgument("attribute '<" + std::string(body) +
                                   ">' needs 2 or 3 comma-separated fields");
  }
  std::string label(Trim(parts[0]));
  std::string value(Trim(parts[1]));
  if (label.empty()) {
    return Status::InvalidArgument("empty attribute label");
  }
  double confidence = 1.0;
  if (parts.size() == 3) {
    auto c = ParseConfidence(parts[2]);
    if (!c.ok()) return c.status();
    confidence = *c;
  }
  return Attribute(std::move(label), std::move(value), confidence);
}

/// `text` without its comment lines: lines whose first non-blank character
/// is `#` and that do not continue a quoted field (a record index never
/// starts with `#`, so no data row is lost). Returns `text` itself when it
/// has none; otherwise the kept lines are copied into `storage`.
std::string_view WithoutCommentLines(std::string_view text,
                                     std::string* storage) {
  if (text.find('#') == std::string_view::npos) return text;
  bool in_quotes = false;
  bool copying = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    end = end == std::string_view::npos ? text.size() : end + 1;
    const std::string_view line = text.substr(pos, end - pos);
    const std::size_t first = line.find_first_not_of(" \t");
    if (!in_quotes && first != std::string_view::npos && line[first] == '#') {
      if (!copying) storage->assign(text.substr(0, pos));
      copying = true;
    } else {
      if (copying) storage->append(line);
      for (std::size_t q = line.find('"'); q != std::string_view::npos;
           q = line.find('"', q + 1)) {
        in_quotes = !in_quotes;
      }
    }
    pos = end;
  }
  return copying ? std::string_view(*storage) : text;
}

}  // namespace

Result<Record> ParseRecord(std::string_view text) {
  std::string_view body = Trim(text);
  if (!body.empty() && body.front() == '{') {
    if (body.back() != '}') {
      return Status::InvalidArgument("unbalanced braces in record");
    }
    body = Trim(body.substr(1, body.size() - 2));
  }
  Record record;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t open = body.find('<', pos);
    // Whatever sits between attributes may only be whitespace or a comma.
    std::string_view gap = Trim(body.substr(
        pos, open == std::string_view::npos ? std::string_view::npos
                                            : open - pos));
    if (!gap.empty() && gap != ",") {
      return Status::InvalidArgument("unexpected text in record: '" +
                                     std::string(gap) + "'");
    }
    if (open == std::string_view::npos) break;
    std::size_t close = body.find('>', open);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated attribute in record");
    }
    auto attr = ParseAttributeBody(body.substr(open + 1, close - open - 1));
    if (!attr.ok()) return attr.status();
    record.Insert(std::move(attr).value());
    pos = close + 1;
  }
  return record;
}

std::string FormatRecord(const Record& record) { return record.ToString(); }

Result<Database> LoadDatabaseCsv(std::string_view csv_text) {
  std::string storage;
  auto rows = Csv::Parse(WithoutCommentLines(csv_text, &storage));
  if (!rows.ok()) return rows.status();
  if (rows->empty()) return Database{};
  std::size_t start = 0;
  if (!(*rows)[0].empty() && (*rows)[0][0] == "record") start = 1;  // header

  // Records keyed by index, in first-occurrence order.
  std::vector<long long> order;
  std::map<long long, Record> records;
  for (std::size_t i = start; i < rows->size(); ++i) {
    const auto& row = (*rows)[i];
    if (row.size() != 3 && row.size() != 4) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(i + 1) +
          " needs record,label,value[,confidence]");
    }
    char* end = nullptr;
    std::string idx_text(Trim(row[0]));
    long long index = std::strtoll(idx_text.c_str(), &end, 10);
    if (idx_text.empty() || end == nullptr || *end != '\0' || index < 0) {
      return Status::InvalidArgument("bad record index '" + idx_text + "'");
    }
    double confidence = 1.0;
    if (row.size() == 4 && !Trim(row[3]).empty()) {
      auto c = ParseConfidence(row[3]);
      if (!c.ok()) return c.status();
      confidence = *c;
    }
    auto [it, inserted] = records.try_emplace(index);
    if (inserted) order.push_back(index);
    it->second.Insert(Attribute(std::string(Trim(row[1])), row[2],
                                confidence));
  }
  Database db;
  for (long long index : order) db.Add(std::move(records[index]));
  return db;
}

std::string SaveDatabaseCsv(const Database& db) {
  std::string out = "record,label,value,confidence\n";
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (const auto& a : db[i]) {
      out += Csv::FormatRow({std::to_string(i), a.label, a.value,
                             FormatDoubleRoundTrip(a.confidence)});
      out += '\n';
    }
  }
  return out;
}

}  // namespace infoleak
