#pragma once

#include <string>

#include "obs/metrics.h"

namespace infoleak::obs {

/// Rendering options shared by both exporters.
struct ExportOptions {
  /// Drop zero-valued counters and gauges. The CLI's --stats report uses
  /// this so its output is a function of the command's workload alone
  /// (untouched metrics registered by unrelated code never appear).
  bool skip_zero = false;

  /// Drop histograms entirely. Latency distributions are nondeterministic
  /// run to run, so the golden-tested CLI report excludes them; the
  /// `infoleak stats` command and programmatic consumers keep them.
  bool skip_histograms = false;
};

/// \brief Renders a snapshot in the Prometheus text exposition format:
/// `# HELP` / `# TYPE` preambles, `name{labels} value` samples, and for
/// histograms the cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
std::string RenderPrometheus(const MetricsSnapshot& snapshot,
                             const ExportOptions& options = {});

/// \brief Renders a snapshot as a stable-ordered JSON object:
/// {"counters": [...], "gauges": [...], "histograms": [...]}.
std::string RenderJson(const MetricsSnapshot& snapshot,
                       const ExportOptions& options = {});

/// \brief One `name{labels} count=N total_ms=X` line per non-empty
/// `*_seconds` histogram, in snapshot (name, labels) order: where a
/// command's wall time went, read from the latency histograms the
/// instrumented layers already keep. The CLI's `--trace` rider.
std::string RenderTimingSummary(const MetricsSnapshot& snapshot);

/// \brief Registers the `infoleak_build_info` gauge: value 1 with the
/// build identity in the labels (`version` and the active SIMD `simd`
/// variant) — the Prometheus "info metric" idiom, so both exporters carry
/// it. `simd_variant` is the active kernel table's name; obs cannot see
/// the kernel layer, so the caller passes it down. Idempotent.
void RegisterBuildInfo(std::string_view simd_variant);

/// The version string baked into `infoleak_build_info` (the CMake project
/// version, or "unknown" in builds without one).
std::string_view BuildVersion();

}  // namespace infoleak::obs
