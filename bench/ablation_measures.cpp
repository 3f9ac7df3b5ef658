// Ablation: measure variants (extensions the paper names in §2.1-2.2 but
// defers "due to space limitations"). Sweeps the same perturbed workload
// under (a) the crisp F1 leakage, (b) soft leakage with numeric degree-of-
// error credit, (c) informativeness-weighted leakage against a skewed value
// population, and (d) F-beta for several beta — showing how each extension
// moves the measured leakage.

#include <cmath>

#include "bench/harness.h"
#include "core/correlation.h"
#include "core/fbeta_leakage.h"
#include "core/informativeness.h"
#include "core/leakage.h"
#include "core/similarity.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace infoleak;
using namespace infoleak::bench;

namespace {

/// A numeric workload the extensions can act on: reference ages/zips, and
/// an adversary record whose values are off by a controlled amount.
struct NumericCase {
  Record p;
  Record r;
};

NumericCase MakeCase(double offset, Rng* rng) {
  NumericCase out;
  for (int i = 0; i < 12; ++i) {
    std::string label = StrCat("F", std::to_string(i));
    long long truth = 100 + static_cast<long long>(rng->NextBounded(900));
    out.p.Insert(Attribute(label, std::to_string(truth)));
    // The adversary's guess drifts by ±offset.
    long long guess = truth + static_cast<long long>(
                                  std::llround(offset * (rng->NextDouble() *
                                                             2.0 -
                                                         1.0)));
    out.r.Insert(Attribute(label, std::to_string(guess), 0.9));
  }
  return out;
}

}  // namespace

int main() {
  PrintTitle("Ablation: measure variants (crisp vs soft vs informed vs "
             "F-beta)",
             "12 numeric attributes, confidence 0.9, guesses drift by "
             "+-offset; seed=3");
  RowPrinter rows({"offset", "crisp_L", "soft_L", "fb0.5", "fb2.0"});

  WeightModel unit;
  NaiveLeakage naive;
  LabelSimilarity soft_sim;
  for (int i = 0; i < 12; ++i) {
    soft_sim.Register(StrCat("F", std::to_string(i)),
                      std::make_unique<NumericSimilarity>(100.0));
  }
  const FBetaLeakage half = FBetaLeakage::Create(0.5).value();
  const FBetaLeakage two = FBetaLeakage::Create(2.0).value();

  for (double offset : {0.0, 10.0, 25.0, 50.0, 100.0, 300.0}) {
    Rng rng(3);
    NumericCase c = MakeCase(offset, &rng);
    double crisp = naive.RecordLeakage(c.r, c.p, unit).value_or(-1);
    double soft = SoftRecordLeakage(c.r, c.p, unit, soft_sim).value_or(-1);
    double f05 = half.Naive(c.r, c.p, unit).value_or(-1);
    double f20 = two.Naive(c.r, c.p, unit).value_or(-1);
    rows.Row({Fmt(offset, 0), Fmt(crisp, 5), Fmt(soft, 5), Fmt(f05, 5),
              Fmt(f20, 5)});
  }

  // Informativeness: the same disclosure leaks more when the disclosed
  // value is rare in the population.
  std::printf("\ninformativeness (skewed disease population, adversary "
              "knows only the disease):\n");
  RowPrinter info_rows({"value", "popularity", "crisp_L", "informed_L"});
  ValueDistribution dist;
  for (int i = 0; i < 990; ++i) dist.Observe("D", "Flu");
  for (int i = 0; i < 9; ++i) dist.Observe("D", "Cancer");
  dist.Observe("D", "Kuru");
  InformativenessWeigher weigher(unit, dist);
  for (const char* disease : {"Flu", "Cancer", "Kuru"}) {
    Record p{{"N", "Alice"}, {"Z", "94305"}, {"D", disease}};
    Record r{{"D", disease}};
    double crisp = RecordLeakageNoConfidence(r, p, unit);
    double informed = InformedRecordLeakageNoConfidence(r, p, weigher);
    info_rows.Row({disease,
                   Fmt(dist.Probability("D", disease), 4), Fmt(crisp, 5),
                   Fmt(informed, 5)});
  }
  // Correlated attributes (§2's J/A/P): how much does the naive flat model
  // over-count when the adversary learns the second of two correlated
  // attributes?
  std::printf("\ncorrelated attributes (phone ~ address share neighborhood "
              "J):\n");
  RowPrinter corr_rows({"knows", "flat_L", "decomposed_L"});
  CorrelationModel model;
  CorrelationModel::Group group;
  group.joint_label = "J";
  group.members["P"] = {"P_rest", 1.0};
  group.members["A"] = {"A_rest", 1.0};
  group.joint_values[{"P", "555-0100"}] = "downtown";
  group.joint_values[{"A", "123 Main"}] = "downtown";
  if (!model.AddGroup(std::move(group)).ok()) return 1;
  WeightModel corr_weights;
  if (!model.ApplyWeights(&corr_weights).ok()) return 1;
  Record person{{"N", "Alice"}, {"P", "555-0100"}, {"A", "123 Main"}};
  Record dp = model.Decompose(person);
  struct Known {
    const char* what;
    Record record;
  };
  std::vector<Known> cases{
      {"nothing", Record{{"N", "Alice"}}},
      {"phone", Record{{"N", "Alice"}, {"P", "555-0100"}}},
      {"phone+address",
       Record{{"N", "Alice"}, {"P", "555-0100"}, {"A", "123 Main"}}}};
  ApproxLeakage crisp_engine;  // confidences 1 -> exact
  for (const auto& c : cases) {
    double flat =
        crisp_engine.RecordLeakage(c.record, person, unit).value_or(-1);
    double decomposed =
        crisp_engine
            .RecordLeakage(model.Decompose(c.record), dp, corr_weights)
            .value_or(-1);
    corr_rows.Row({c.what, Fmt(flat, 5), Fmt(decomposed, 5)});
  }

  std::printf(
      "\nreading: soft leakage degrades smoothly with guess error where\n"
      "the crisp measure falls off a cliff; recall-heavy beta punishes the\n"
      "same record for incompleteness; rare-value disclosures score higher\n"
      "under informativeness weighting; and the J/A/P decomposition makes\n"
      "the phone alone worth most of the pair (the flat model over-credits\n"
      "the second correlated attribute) — the paper's deferred extensions,\n"
      "quantified.\n");
  return 0;
}
