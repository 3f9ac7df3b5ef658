// Scalar reference kernels plus wide (SIMD) variants for the evaluation
// plane. Bit-identity discipline: the only vectorized arithmetic is the
// in-place Bernoulli-multiply recurrence
//     poly[k] = c·poly[k] + (1−c)·poly[k−1]   (descending k)
// whose per-element result depends solely on values from before the sweep,
// so computing a chunk of lanes at once performs the exact same two rounded
// multiplies and one rounded add per element as the scalar loop. Every
// reduction keeps the scalar order. This file must be compiled with
// -ffp-contract=off (see src/core/CMakeLists.txt): the AVX targets have FMA
// available and a contracted multiply-add would round once where the
// reference rounds twice.

#include "core/kernels.h"

#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define INFOLEAK_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace infoleak::kern {
namespace {

constexpr uint32_t kNoMatch = 0xFFFFFFFFu;  // == PreparedReference::kNoMatch

// ---------------------------------------------------------------------------
// Scalar reference implementations — the semantics every variant must
// reproduce bit-for-bit. The bodies mirror the original record-at-a-time
// loops in core/leakage.cpp and core/bounds.cpp; iteration order is part of
// the contract.
// ---------------------------------------------------------------------------

double ExactSumScalar(const double* rconf, std::size_t rn,
                      const double* match_conf, const uint32_t* match_rpos,
                      std::size_t pn, double m, double factor, double* poly) {
  double total = 0.0;
  for (std::size_t j = 0; j < pn; ++j) {
    const double pb = match_conf[j];
    if (pb == 0.0) continue;  // zero-confidence terms contribute nothing
    const uint32_t skip = match_rpos[j];
    std::size_t size = 1;
    poly[0] = 1.0;
    for (std::size_t i = 0; i < rn; ++i) {
      if (i == skip) continue;
      const double c = rconf[i];
      poly[size] = 0.0;
      for (std::size_t k = size; k > 0; --k) {
        poly[k] = c * poly[k] + (1.0 - c) * poly[k - 1];
      }
      poly[0] *= c;
      ++size;
    }
    // Poly::IntegrateAgainstPower over the descending coefficient list.
    double integral = 0.0;
    for (std::size_t x = 0; x < size; ++x) {
      integral += poly[x] / (m + static_cast<double>(size - x));
    }
    total += factor * pb * integral;
  }
  return total;
}

double ApproxSumScalar(const double* rconf, const double* rweight,
                       std::size_t rn, const double* match_conf,
                       const uint32_t* match_rpos, const double* pweight,
                       std::size_t pn, double base, double factor, int order) {
  // Moments of the full record once; per-b values follow by removing the
  // matched attribute's contribution. Accumulation order is pinned: these
  // are reductions, so they stay scalar in every variant.
  double mean_all = 0.0;
  double var_all = 0.0;
  for (std::size_t i = 0; i < rn; ++i) {
    mean_all += rweight[i] * rconf[i];
    var_all += rweight[i] * rweight[i] * rconf[i] * (1.0 - rconf[i]);
  }
  double total = 0.0;
  for (std::size_t j = 0; j < pn; ++j) {
    const uint32_t mi = match_rpos[j];
    if (mi == kNoMatch) continue;
    const double pb = match_conf[j];
    if (pb == 0.0) continue;
    const double wb = pweight[j];
    const double wm_match = rweight[mi];  // == wb (same label)
    const double mean = mean_all - wm_match * pb;
    const double var = var_all - wm_match * wm_match * pb * (1.0 - pb);
    const double denom = mean + wb + base;
    if (denom <= 0.0) continue;
    double term = wb / denom;
    if (order >= 2) term += wb / (denom * denom * denom) * var;
    total += factor * pb * term;
  }
  return total;
}

double NaiveSumScalar(const double* rconf, const double* rweight,
                      const uint8_t* matched, std::size_t rn, double base,
                      double factor) {
  double total = 0.0;
  const uint64_t worlds = uint64_t{1} << rn;
  for (uint64_t mask = 0; mask < worlds; ++mask) {
    double prob = 1.0;
    double weight_r = 0.0;
    double overlap = 0.0;
    for (std::size_t i = 0; i < rn; ++i) {
      if (mask & (uint64_t{1} << i)) {
        prob *= rconf[i];
        weight_r += rweight[i];
        if (matched[i]) overlap += rweight[i];
      } else {
        prob *= 1.0 - rconf[i];
      }
    }
    const double denom = weight_r + base;
    if (denom > 0.0) total += prob * factor * overlap / denom;
  }
  return total;
}

double RecallSumScalar(const double* match_conf, const double* pweight,
                       std::size_t pn) {
  double num = 0.0;
  for (std::size_t j = 0; j < pn; ++j) {
    num += match_conf[j] * pweight[j];
  }
  return num;
}

void BoundsScalar(const double* rconf, const double* rweight, std::size_t rn,
                  const double* match_conf, const double* pweight,
                  std::size_t pn, double wp, double* lower, double* upper) {
  *lower = 0.0;
  *upper = 1.0;
  if (wp <= 0.0 || rn == 0) {
    *upper = 0.0;
    return;
  }
  double mean_all = 0.0;
  for (std::size_t i = 0; i < rn; ++i) {
    mean_all += rweight[i] * rconf[i];
  }
  double low = 0.0;
  double expected_recall_mass = 0.0;
  for (std::size_t j = 0; j < pn; ++j) {
    const double mc = match_conf[j];
    if (mc == 0.0) continue;  // no match, or a zero-confidence one
    AddBoundTerm(mc, pweight[j], mean_all, wp, &low, &expected_recall_mass);
  }
  FinishBounds(low, expected_recall_mass, wp, lower, upper);
}

#if INFOLEAK_KERNELS_X86

// ---------------------------------------------------------------------------
// Wide variants. Only exact_sum carries real SIMD: its inner recurrence is
// the lone element-wise-independent hot loop. The other kernels are
// reductions whose accumulation order the bit-identity contract pins, so
// the wide tables share the scalar bodies for them (their columnar speedup
// comes from the layout, not the lanes).
//
// Chunking runs top-down: a chunk updates poly[k−W+1 .. k] from the
// untouched poly[k−W .. k], so every lane reads pre-sweep values exactly
// like the descending scalar loop does.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) double ExactSumAvx2(
    const double* rconf, std::size_t rn, const double* match_conf,
    const uint32_t* match_rpos, std::size_t pn, double m, double factor,
    double* poly) {
  double total = 0.0;
  for (std::size_t j = 0; j < pn; ++j) {
    const double pb = match_conf[j];
    if (pb == 0.0) continue;
    const uint32_t skip = match_rpos[j];
    std::size_t size = 1;
    poly[0] = 1.0;
    for (std::size_t i = 0; i < rn; ++i) {
      if (i == skip) continue;
      const double c = rconf[i];
      const double cm = 1.0 - c;
      poly[size] = 0.0;
      std::size_t k = size;
      const __m256d vc = _mm256_set1_pd(c);
      const __m256d vcm = _mm256_set1_pd(cm);
      for (; k >= 4; k -= 4) {
        const __m256d cur = _mm256_loadu_pd(poly + k - 3);
        const __m256d prev = _mm256_loadu_pd(poly + k - 4);
        _mm256_storeu_pd(poly + k - 3,
                         _mm256_add_pd(_mm256_mul_pd(vc, cur),
                                       _mm256_mul_pd(vcm, prev)));
      }
      for (; k > 0; --k) {
        poly[k] = c * poly[k] + cm * poly[k - 1];
      }
      poly[0] *= c;
      ++size;
    }
    double integral = 0.0;
    for (std::size_t x = 0; x < size; ++x) {
      integral += poly[x] / (m + static_cast<double>(size - x));
    }
    total += factor * pb * integral;
  }
  return total;
}

__attribute__((target("avx512f"))) double ExactSumAvx512(
    const double* rconf, std::size_t rn, const double* match_conf,
    const uint32_t* match_rpos, std::size_t pn, double m, double factor,
    double* poly) {
  double total = 0.0;
  for (std::size_t j = 0; j < pn; ++j) {
    const double pb = match_conf[j];
    if (pb == 0.0) continue;
    const uint32_t skip = match_rpos[j];
    std::size_t size = 1;
    poly[0] = 1.0;
    for (std::size_t i = 0; i < rn; ++i) {
      if (i == skip) continue;
      const double c = rconf[i];
      const double cm = 1.0 - c;
      poly[size] = 0.0;
      std::size_t k = size;
      const __m512d vc = _mm512_set1_pd(c);
      const __m512d vcm = _mm512_set1_pd(cm);
      for (; k >= 8; k -= 8) {
        const __m512d cur = _mm512_loadu_pd(poly + k - 7);
        const __m512d prev = _mm512_loadu_pd(poly + k - 8);
        _mm512_storeu_pd(poly + k - 7,
                         _mm512_add_pd(_mm512_mul_pd(vc, cur),
                                       _mm512_mul_pd(vcm, prev)));
      }
      for (; k > 0; --k) {
        poly[k] = c * poly[k] + cm * poly[k - 1];
      }
      poly[0] *= c;
      ++size;
    }
    double integral = 0.0;
    for (std::size_t x = 0; x < size; ++x) {
      integral += poly[x] / (m + static_cast<double>(size - x));
    }
    total += factor * pb * integral;
  }
  return total;
}

#endif  // INFOLEAK_KERNELS_X86

constexpr KernelTable kScalarTable = {
    "scalar",     ExactSumScalar, ApproxSumScalar,
    NaiveSumScalar, RecallSumScalar, BoundsScalar,
};

#if INFOLEAK_KERNELS_X86
constexpr KernelTable kAvx2Table = {
    "avx2",       ExactSumAvx2,   ApproxSumScalar,
    NaiveSumScalar, RecallSumScalar, BoundsScalar,
};
constexpr KernelTable kAvx512Table = {
    "avx512",     ExactSumAvx512, ApproxSumScalar,
    NaiveSumScalar, RecallSumScalar, BoundsScalar,
};
#endif

}  // namespace

const KernelTable& Scalar() { return kScalarTable; }

const KernelTable& Wide() {
#if INFOLEAK_KERNELS_X86
  static const KernelTable& table = []() -> const KernelTable& {
    if (__builtin_cpu_supports("avx512f")) return kAvx512Table;
    if (__builtin_cpu_supports("avx2")) return kAvx2Table;
    return kScalarTable;
  }();
  return table;
#else
  return kScalarTable;
#endif
}

bool ForcedScalar() {
#ifdef INFOLEAK_FORCE_SCALAR
  return true;
#else
  static const bool forced = [] {
    const char* env = std::getenv("INFOLEAK_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' &&
           std::string_view(env) != std::string_view("0");
  }();
  return forced;
#endif
}

const KernelTable& Active() {
  static const KernelTable& table = ForcedScalar() ? Scalar() : Wide();
  return table;
}

}  // namespace infoleak::kern
