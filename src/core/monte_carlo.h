#pragma once

#include "core/leakage.h"
#include "util/rng.h"

namespace infoleak {

/// \brief Monte-Carlo record leakage: estimates E[L0(r̄, p)] by sampling
/// possible worlds instead of enumerating them.
///
/// A natural third baseline between the naive oracle (exact, exponential)
/// and the Taylor approximation (fast, biased): unbiased for *arbitrary*
/// weights at O(samples·|r|) cost, with standard-error ~ 1/√samples. The
/// ablation bench quantifies where sampling beats the second-order Taylor
/// expansion (it rarely does at the paper's scales — which is itself a
/// result supporting the paper's design choice).
///
/// Deterministic: the world stream derives from (seed, r, p) only through
/// the explicit seed, so repeated calls return the same estimate.
class MonteCarloLeakage : public LeakageEngine {
 public:
  explicit MonteCarloLeakage(std::size_t samples = 10000,
                             uint64_t seed = 0xC0FFEE)
      : samples_(samples == 0 ? 1 : samples), seed_(seed) {}

  std::string_view name() const override { return "monte-carlo"; }

  /// The estimate's mean, over a record view (constructor seed).
  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;

  /// Leakage estimate plus its standard error (sample std-dev / √n).
  struct Estimate {
    double mean = 0.0;
    double standard_error = 0.0;
    std::size_t samples = 0;
  };
  Result<Estimate> EstimateLeakage(const Record& r, const Record& p,
                                   const WeightModel& wm) const;

  /// As above with an explicit per-call seed that overrides the constructor
  /// seed. `selfcheck --seed` plumbs a per-case seed through here so every
  /// Monte-Carlo comparison in a run is reproducible without constructing
  /// one engine per case.
  Result<Estimate> EstimateLeakage(const Record& r, const Record& p,
                                   const WeightModel& wm, uint64_t seed) const;

  std::size_t samples() const { return samples_; }
  uint64_t seed() const { return seed_; }

 private:
  /// Samples worlds of `r`, reading its confidence, weight and match
  /// columns in canonical order — the order the RNG stream is drawn in.
  Result<Estimate> Run(const ColumnRecordView& r, double base, double factor,
                       uint64_t seed) const;

  std::size_t samples_;
  uint64_t seed_;
};

}  // namespace infoleak
