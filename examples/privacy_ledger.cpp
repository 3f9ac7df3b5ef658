// Life-of-Alice scenario: a privacy ledger tracking every disclosure Alice
// makes over time, plus the adversary-side dipping query of §2.4.
//
// Demonstrates: a release ledger as a Database plus IncrementalLeakageReport
// (release history, what-if analysis), DippingResult (what an adversary
// focused on Alice can pull together), and F-beta leakage as an alternative
// sensitivity profile.

#include <cstdio>

#include "apps/incremental.h"
#include "core/fbeta_leakage.h"
#include "er/dipping.h"
#include "er/swoosh.h"

using namespace infoleak;

int main() {
  // Alice's complete information.
  Record alice{{"N", "alice"},    {"E", "a@mail"}, {"P", "555-1234"},
               {"C", "4111-9999"}, {"A", "123 Main"}, {"Z", "94305"},
               {"S", "000-00-0000"}};

  // The adversary links records sharing a name, email, or phone.
  RuleMatch match(MatchRules{{"N"}, {"E"}, {"P"}});
  UnionMerge merge;
  SwooshResolver resolver(match, merge);
  ErOperator adversary(resolver);
  WeightModel weights;
  if (!weights.SetWeight("S", 5.0).ok() || !weights.SetWeight("C", 3.0).ok()) {
    return 1;
  }
  AutoLeakage engine;

  // Everything Alice has released so far (§4.1's R).
  Database released;

  struct Disclosure {
    const char* what;
    Record record;
  };
  std::vector<Disclosure> disclosures{
      {"social network profile", Record{{"N", "alice"}, {"E", "a@mail"}}},
      {"online store account",
       Record{{"E", "a@mail"}, {"A", "123 Main"}, {"Z", "94305"}}},
      {"app purchase",
       Record{{"N", "alice"}, {"P", "555-1234"}, {"C", "4111-9999"}}},
  };

  std::printf("%-26s %-10s %-10s %-12s\n", "disclosure", "before", "after",
              "incremental");
  double current = 0.0;
  for (auto& d : disclosures) {
    auto entry = IncrementalLeakageReport(released, alice, adversary, d.record,
                                          weights, engine);
    if (!entry.ok()) {
      std::fprintf(stderr, "%s\n", entry.status().ToString().c_str());
      return 1;
    }
    std::printf("%-26s %-10.4f %-10.4f %-+12.4f\n", d.what, entry->before,
                entry->after, entry->incremental);
    released.Add(d.record);
    current = entry->after;
  }

  // What if Alice also posted her SSN-bearing tax form?
  Record tax_form{{"N", "alice"}, {"S", "000-00-0000"}};
  auto what_if = IncrementalLeakageReport(released, alice, adversary,
                                          tax_form, weights, engine);
  if (!what_if.ok()) return 1;
  std::printf("\nwhat-if 'tax form': leakage would jump %.4f -> %.4f "
              "(+%.4f) — don't.\n",
              what_if->before, what_if->after, what_if->incremental);

  // The adversary's view: a dipping query focused on Alice (§2.4).
  Record query{{"N", "alice"}};
  auto dossier = DippingResult(released, resolver, query);
  if (!dossier.ok()) return 1;
  std::printf("\nadversary dipping query D(R, E, {<N, alice>}) yields:\n  %s\n",
              dossier->ToString().c_str());

  // Different sensitivity profiles: completeness-heavy adversaries (beta=2)
  // vs correctness-heavy (beta=0.5).
  const FBetaLeakage recall_heavy = FBetaLeakage::Create(2.0).value();
  const FBetaLeakage precision_heavy = FBetaLeakage::Create(0.5).value();
  auto resolved = adversary.Apply(released);
  if (!resolved.ok()) return 1;
  std::printf("\ncurrent leakage under F1:    %.4f\n", current);
  std::printf("completeness-heavy (b=2.0): %.4f\n",
              recall_heavy.SetLeakage(*resolved, alice, weights)
                  .value_or(-1));
  std::printf("correctness-heavy (b=0.5):  %.4f\n",
              precision_heavy.SetLeakage(*resolved, alice, weights)
                  .value_or(-1));
  return 0;
}
