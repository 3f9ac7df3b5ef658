// Shared sweep driver for the Figure 3(a)-(c) trend reproductions: vary one
// Table 4 parameter, generate the dataset, and report the information
// leakage L0(R, p) computed with Algorithm 1 (the paper plots "Alg. 1").

#pragma once

#include <functional>

#include "bench/harness.h"
#include "core/leakage.h"
#include "gen/generator.h"
#include "util/timer.h"

namespace infoleak::bench {

/// Sweeps `set_param(value)` over 0, 0.1, ..., 1.0 and prints one row per
/// point: parameter value, set leakage, expected precision / recall of the
/// argmax record, and generation+evaluation time.
inline int RunTrendSweep(
    const std::string& figure, const std::string& param_name,
    const std::function<void(GeneratorConfig*, double)>& set_param) {
  GeneratorConfig base = GeneratorConfig::Basic();
  PrintTitle(figure, base.ToString() + "  (sweeping " + param_name + ")");
  RowPrinter rows({param_name, "leakage", "E[precision]", "E[recall]",
                   "seconds"});
  ExactLeakage engine;
  for (int i = 0; i <= 10; ++i) {
    double value = static_cast<double>(i) / 10.0;
    GeneratorConfig config = base;
    set_param(&config, value);
    WallTimer timer;
    auto data = GenerateDataset(config);
    if (!data.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   data.status().ToString().c_str());
      return 1;
    }
    std::ptrdiff_t argmax = -1;
    auto leakage = SetLeakage(data->records, data->reference, data->weights,
                              engine, &argmax);
    if (!leakage.ok()) {
      std::fprintf(stderr, "leakage failed: %s\n",
                   leakage.status().ToString().c_str());
      return 1;
    }
    double pr = 0.0;
    double re = 0.0;
    if (argmax >= 0) {
      const Record& top = data->records[static_cast<std::size_t>(argmax)];
      pr = engine.ExpectedPrecision(top, data->reference, data->weights)
               .value_or(0.0);
      re = engine.ExpectedRecall(top, data->reference, data->weights)
               .value_or(0.0);
    }
    rows.Row({Fmt(value, 2), Fmt(*leakage), Fmt(pr), Fmt(re),
              Fmt(timer.ElapsedSeconds(), 3)});
  }
  return 0;
}

}  // namespace infoleak::bench
