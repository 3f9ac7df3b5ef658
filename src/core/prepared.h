#pragma once

#include <cstdint>
#include <vector>

#include "core/record.h"
#include "core/symbols.h"
#include "core/weights.h"

namespace infoleak {

/// \brief Open-addressing map from packed (label, value) id pairs to
/// reference positions — the data-oriented replacement for the
/// `std::unordered_map` the match index used to live in. Linear probing
/// over one flat array of power-of-two capacity: a lookup is one multiply,
/// one shift, and (at load factor <= 1/2) almost always one cache line,
/// where the node-based map paid a pointer chase per probe. The packed key
/// 0xFFFF..FF can never occur (it would need both ids to be kNoSymbol,
/// which MatchPosition screens out), so it doubles as the empty-slot mark.
class FlatPairMap {
 public:
  /// Value returned by Find for absent keys (== PreparedReference::kNoMatch).
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  FlatPairMap() { Rehash(kMinCapacity); }

  /// Pre-sizes for `expected` insertions (capacity stays a power of two,
  /// load factor <= 1/2).
  void Reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap < expected * 2) cap *= 2;
    if (cap > keys_.size()) Rehash(cap);
  }

  /// Inserts (key, value); a key already present keeps its first value
  /// (mirroring the emplace semantics the match index relies on).
  void Insert(uint64_t key, uint32_t value) {
    if ((size_ + 1) * 2 > keys_.size()) Rehash(keys_.size() * 2);
    std::size_t i = Slot(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) return;
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = value;
    ++size_;
  }

  /// Value for `key`, or kNotFound.
  uint32_t Find(uint64_t key) const {
    std::size_t i = Slot(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr std::size_t kMinCapacity = 8;

  /// Fibonacci multiplicative hash: ids are dense and low-entropy, the odd
  /// multiplier spreads them across the high bits, and the shift keeps
  /// exactly the bits the capacity can address.
  std::size_t Slot(uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_) &
           mask_;
  }

  void Rehash(std::size_t capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_values = std::move(values_);
    keys_.assign(capacity, kEmptyKey);
    values_.assign(capacity, 0);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c /= 2) --shift_;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      std::size_t j = Slot(old_keys[i]);
      while (keys_[j] != kEmptyKey) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
      ++size_;
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// \brief One interned attribute of a prepared reference: symbol ids
/// instead of strings, the per-label weight already resolved.
struct PreparedAttr {
  uint32_t label = SymbolTable::kNoSymbol;
  uint32_t value = SymbolTable::kNoSymbol;
  double confidence = 0.0;
  double weight = 0.0;
};

/// \brief The reference record `p` prepared once for many evaluations:
/// interned attributes in the record's canonical (label, value) order, the
/// precomputed total weight Σ_{b∈p} w_b, a per-label weight cache, and a
/// hash index for O(1) match lookups by id pair.
///
/// Lifetime: the prepared reference keeps a pointer to the weight model,
/// which must outlive it. It owns the symbol tables its ids refer to;
/// record views (`ColumnBank`, `PreparedRecord`) are filled *against* a
/// reference and are only meaningful with that reference.
///
/// The attribute order deliberately mirrors the source record's canonical
/// string order (not id order), so per-position sums accumulate in the
/// order the paper's formulas walk p.
class PreparedReference {
 public:
  /// Position sentinel returned by MatchPosition for non-matches.
  static constexpr uint32_t kNoMatch = 0xFFFFFFFFu;

  PreparedReference(const Record& p, const WeightModel& wm);

  PreparedReference(PreparedReference&&) = default;
  PreparedReference& operator=(PreparedReference&&) = default;
  PreparedReference(const PreparedReference&) = delete;
  PreparedReference& operator=(const PreparedReference&) = delete;

  const std::vector<PreparedAttr>& attrs() const { return attrs_; }
  std::size_t size() const { return attrs_.size(); }

  /// Σ_{b∈p} w_b, summed in canonical order (== wm.TotalWeight(p)).
  double total_weight() const { return total_weight_; }

  /// Position of (label, value) in attrs(), or kNoMatch. O(1): one probe
  /// into the flat pair index (FlatPairMap::kNotFound == kNoMatch).
  uint32_t MatchPosition(uint32_t label, uint32_t value) const {
    if (label == SymbolTable::kNoSymbol || value == SymbolTable::kNoSymbol) {
      return kNoMatch;
    }
    return match_.Find(PackSymbolPair(label, value));
  }

  /// Cached wm.Weight(label) for labels interned by this reference.
  double LabelWeight(uint32_t label) const { return label_weight_[label]; }

  /// Per-position attribute weights as one contiguous column
  /// (attr_weights()[j] == attrs()[j].weight) — what the array kernels
  /// stream instead of striding through PreparedAttr.
  const std::vector<double>& attr_weights() const { return attr_weight_; }

  /// True iff every label of `p` carries one weight value (vacuously true
  /// when empty); `common_weight()` is that value.
  bool uniform_weight() const { return uniform_; }
  double common_weight() const { return common_weight_; }

  const Symbols& symbols() const { return syms_; }
  const WeightModel& weight_model() const { return *wm_; }

 private:
  Symbols syms_;
  std::vector<PreparedAttr> attrs_;       // canonical order of p
  std::vector<double> attr_weight_;       // by position (weight column)
  std::vector<double> label_weight_;      // by label id
  FlatPairMap match_;                     // packed ids -> position
  double total_weight_ = 0.0;
  bool uniform_ = true;
  double common_weight_ = 0.0;
  const WeightModel* wm_;
};

/// \brief Caller-owned scratch for evaluations. Engines size the buffers on
/// demand; capacity is retained across calls, so reusing one
/// workspace for a batch of evaluations makes the steady state
/// allocation-free. Contents are engine-internal and carry no state between
/// calls — any evaluation may be replayed with a fresh workspace and yields
/// the identical result.
struct LeakageWorkspace {
  std::vector<double> poly;        // Algorithm 1's coefficient list Y
  std::vector<double> match_conf;  // per reference position: p(b, r)
  std::vector<uint32_t> match_rpos;  // per reference position: index into r
  std::vector<uint8_t> matched;      // per record attribute: b ∈ p?
  std::vector<uint32_t> match_hits;  // per matched attribute: its position in p

  /// Pre-grows every buffer for records up to `max_record_attrs` attributes
  /// against a reference of `reference_attrs` — after this, evaluating any
  /// such record performs zero allocations (a set-leakage scan calls it once
  /// per bank; asserted by the steady-state test).
  void ReserveFor(std::size_t max_record_attrs, std::size_t reference_attrs);
};

}  // namespace infoleak
