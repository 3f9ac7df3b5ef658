#include "core/monte_carlo.h"

#include <algorithm>
#include <cmath>

namespace infoleak {

Result<MonteCarloLeakage::Estimate> MonteCarloLeakage::Run(
    const ColumnRecordView& r, double base, double factor,
    uint64_t seed) const {
  // Each sample is O(|r|) flips over the view's columns.
  Rng rng(seed);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t s = 0; s < samples_; ++s) {
    double weight_r = 0.0;
    double overlap = 0.0;
    for (std::size_t i = 0; i < r.size; ++i) {
      if (rng.Bernoulli(r.conf[i])) {
        weight_r += r.weight[i];
        if (r.match_pos[i] != PreparedReference::kNoMatch) {
          overlap += r.weight[i];
        }
      }
    }
    const double denom = weight_r + base;
    const double value = denom > 0.0 ? factor * overlap / denom : 0.0;
    sum += value;
    sum_sq += value * value;
  }
  Estimate est;
  est.samples = samples_;
  est.mean = sum / static_cast<double>(samples_);
  if (samples_ > 1) {
    // Unbiased (n−1) sample variance: the oracle's z·SE confidence-interval
    // test is only sound with the Bessel correction.
    double variance =
        (sum_sq - sum * sum / static_cast<double>(samples_)) /
        static_cast<double>(samples_ - 1);
    est.standard_error =
        std::sqrt(std::max(0.0, variance) / static_cast<double>(samples_));
  }
  if (!std::isfinite(est.mean) || !std::isfinite(est.standard_error)) {
    return Status::InvalidArgument(
        "Monte-Carlo estimate is not finite; the weight model is too "
        "extreme for double arithmetic");
  }
  // Each sampled world's statistic lies in [0, 1], so only accumulation
  // rounding can push the mean out of range.
  est.mean = std::min(1.0, std::max(0.0, est.mean));
  return est;
}

Result<MonteCarloLeakage::Estimate> MonteCarloLeakage::EstimateLeakage(
    const Record& r, const Record& p, const WeightModel& wm) const {
  return EstimateLeakage(r, p, wm, seed_);
}

Result<MonteCarloLeakage::Estimate> MonteCarloLeakage::EstimateLeakage(
    const Record& r, const Record& p, const WeightModel& wm,
    uint64_t seed) const {
  const PreparedReference ref(p, wm);
  const PreparedRecord pr(r, ref);
  return Run(pr.view(), /*base=*/ref.total_weight(), /*factor=*/2.0, seed);
}

Result<double> MonteCarloLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* /*ws*/) const {
  auto est = Run(r, /*base=*/p.total_weight(), /*factor=*/2.0, seed_);
  if (!est.ok()) return est.status();
  return est->mean;
}

Result<double> MonteCarloLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& /*p*/,
    LeakageWorkspace* /*ws*/) const {
  auto est = Run(r, /*base=*/0.0, /*factor=*/1.0, seed_);
  if (!est.ok()) return est.status();
  return est->mean;
}

}  // namespace infoleak
