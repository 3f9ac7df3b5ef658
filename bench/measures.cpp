// Measure-disagreement chart: the Table 4 synthetic generator swept under
// every measure in the family (core/measure_family.h). The interesting
// shape: at low maximum confidence the adversary's worlds are diffuse, so
// the worst-case realization (pml) towers over the expectation while the
// best single guess (guesswork) collapses toward zero; as m -> 1 the
// records become deterministic and the whole family converges onto one
// value (the measure-degenerate oracle property, seen as data). The
// under/over columns bracket the expectation throughout.

#include <cstdio>

#include "bench/harness.h"
#include "core/leakage.h"
#include "core/measure_family.h"
#include "gen/generator.h"

using namespace infoleak;
using namespace infoleak::bench;

namespace {

/// Set leakage (max over the database) under one engine; "-" on error.
std::string SetLeak(const SyntheticDataset& data, const LeakageEngine& e) {
  auto v = SetLeakage(data.records, data.reference, data.weights, e);
  return v.ok() ? Fmt(*v, 5) : "-";
}

void SweepRow(RowPrinter& rows, const char* sweep, double value,
              const GeneratorConfig& config) {
  auto data = GenerateDataset(config);
  if (!data.ok()) {
    std::printf("generate failed: %s\n", data.status().ToString().c_str());
    return;
  }
  AutoLeakage expected;
  rows.Row({sweep, Fmt(value, 2), SetLeak(*data, expected),
            SetLeak(*data, *MeasureEngineSingleton(Measure::kPml)),
            SetLeak(*data, *MeasureEngineSingleton(Measure::kGuesswork)),
            SetLeak(*data, *MeasureEngineSingleton(Measure::kUnder)),
            SetLeak(*data, *MeasureEngineSingleton(Measure::kOver))});
}

}  // namespace

int main() {
  GeneratorConfig base;
  base.n = 30;
  base.num_records = 2000;
  PrintTitle("Measure family under the Table 4 generator",
             base.ToString() + "; set leakage (max over R) per measure");
  BenchReport report("measures", base.ToString(),
                     {"sweep", "value", "expected", "pml", "guesswork",
                      "under", "over"});
  RowPrinter rows(
      {"sweep", "value", "expected", "pml", "guesswork", "under", "over"}, 12,
      &report);

  // Sweep the confidence ceiling m: the measure fan-out is widest when
  // every attribute is uncertain and closes as records turn deterministic.
  for (double m : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    GeneratorConfig config = base;
    config.max_confidence = m;
    SweepRow(rows, "m", m, config);
  }

  // Sweep the perturbation probability at fixed m: perturbed copies miss
  // the reference, pulling every measure down together — the family's
  // orderings hold pointwise at every sweep position.
  for (double pp : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    GeneratorConfig config = base;
    config.perturb_prob = pp;
    SweepRow(rows, "pp", pp, config);
  }

  if (!report.WriteFile().ok()) return 1;
  return 0;
}
