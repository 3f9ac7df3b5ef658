#include "obs/export.h"

#include "util/string_util.h"

namespace infoleak::obs {
namespace {

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string EscapeLabelValue(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Escapes a JSON string body (control characters, quote, backslash).
std::string EscapeJson(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// "{k1=\"v1\",k2=\"v2\"}" or "" for an empty label set; `extra` appends
/// one more pair (the histogram `le` label) without copying the set.
std::string PromLabels(const LabelSet& labels,
                       const std::pair<std::string, std::string>* extra =
                           nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (extra != nullptr) {
    if (!first) out += ',';
    out += extra->first + "=\"" + EscapeLabelValue(extra->second) + "\"";
  }
  out += '}';
  return out;
}

/// Stable numeric rendering for exported values: integers exactly, reals
/// via FormatDouble (trimmed trailing zeros, deterministic).
std::string Num(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return FormatDouble(v, 9);
}

void PromHeader(std::string* out, std::string* last_name,
                const std::string& name, const std::string& help,
                std::string_view type) {
  if (*last_name == name) return;
  *last_name = name;
  if (!help.empty()) *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

std::string JsonLabels(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += "\"" + EscapeJson(k) + "\":\"" + EscapeJson(v) + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

std::string RenderPrometheus(const MetricsSnapshot& snapshot,
                             const ExportOptions& options) {
  std::string out;
  std::string last_name;
  for (const auto& c : snapshot.counters) {
    if (options.skip_zero && c.value == 0) continue;
    PromHeader(&out, &last_name, c.name, c.help, "counter");
    out += c.name + PromLabels(c.labels) + " " + std::to_string(c.value) +
           "\n";
  }
  for (const auto& g : snapshot.gauges) {
    if (options.skip_zero && g.value == 0.0) continue;
    PromHeader(&out, &last_name, g.name, g.help, "gauge");
    out += g.name + PromLabels(g.labels) + " " + Num(g.value) + "\n";
  }
  if (!options.skip_histograms) {
    for (const auto& h : snapshot.histograms) {
      if (options.skip_zero && h.count == 0) continue;
      PromHeader(&out, &last_name, h.name, h.help, "histogram");
      uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        cumulative += h.buckets[i];
        const std::pair<std::string, std::string> le{
            "le", i < h.bounds.size() ? Num(h.bounds[i]) : "+Inf"};
        out += h.name + "_bucket" + PromLabels(h.labels, &le) + " " +
               std::to_string(cumulative) + "\n";
      }
      out += h.name + "_sum" + PromLabels(h.labels) + " " + Num(h.sum) + "\n";
      out += h.name + "_count" + PromLabels(h.labels) + " " +
             std::to_string(h.count) + "\n";
    }
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot,
                       const ExportOptions& options) {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    if (options.skip_zero && c.value == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + EscapeJson(c.name) + "\",\"labels\":" +
           JsonLabels(c.labels) + ",\"value\":" + std::to_string(c.value) +
           "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& g : snapshot.gauges) {
    if (options.skip_zero && g.value == 0.0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + EscapeJson(g.name) + "\",\"labels\":" +
           JsonLabels(g.labels) + ",\"value\":" + Num(g.value) + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  if (!options.skip_histograms) {
    for (const auto& h : snapshot.histograms) {
      if (options.skip_zero && h.count == 0) continue;
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + EscapeJson(h.name) + "\",\"labels\":" +
             JsonLabels(h.labels) + ",\"bounds\":[";
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        if (i > 0) out += ',';
        out += Num(h.bounds[i]);
      }
      out += "],\"buckets\":[";
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(h.buckets[i]);
      }
      out += "],\"count\":" + std::to_string(h.count) +
             ",\"sum\":" + Num(h.sum) + "}";
    }
  }
  out += "]}";
  return out;
}

std::string RenderTimingSummary(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& h : snapshot.histograms) {
    if (h.count == 0 || !h.name.ends_with("_seconds")) continue;
    out += h.name + PromLabels(h.labels) +
           " count=" + std::to_string(h.count) +
           " total_ms=" + FormatDouble(h.sum * 1e3, 3) + "\n";
  }
  return out;
}

std::string_view BuildVersion() {
#ifdef INFOLEAK_VERSION
  return INFOLEAK_VERSION;
#else
  return "unknown";
#endif
}

void RegisterBuildInfo(std::string_view simd_variant) {
  MetricsRegistry::Global()
      .GetGauge("infoleak_build_info",
                {{"version", std::string(BuildVersion())},
                 {"simd", std::string(simd_variant)}},
                "Build identity (value is always 1; the info lives in the "
                "labels)")
      .Set(1.0);
}

}  // namespace infoleak::obs
