#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace infoleak::obs {

/// Number of independent shards a counter/histogram stripes its state
/// across. Each thread is pinned to one shard (assigned round-robin on
/// first use), so concurrent writers (server workers, frontier pool
/// threads) land on different cache lines and never contend on a shared lock;
/// readers aggregate all shards with relaxed loads. A power of two.
inline constexpr std::size_t kMetricShards = 32;

/// Shard index of the calling thread (stable for the thread's lifetime).
std::size_t ThisThreadShard();

/// Label set of a metric instance, e.g. {{"engine", "exact"}}. Kept sorted
/// by key at registration so identity and rendering are canonical.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

namespace internal {
/// One cache line of counter state; avoids false sharing between shards.
struct alignas(64) ShardSlot {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

/// \brief Monotonic counter with thread-sharded storage. `Inc` is one
/// relaxed atomic add on the calling thread's shard (plus one relaxed
/// load of the global enable flag) — no locks, no contention.
class Counter {
 public:
  void Inc(uint64_t delta = 1);

  /// Sum over all shards (relaxed; exact once writers have quiesced).
  uint64_t Value() const;

  /// Zeroes every shard (test support; racy against live writers).
  void Reset();

  const std::string& name() const { return name_; }
  const LabelSet& labels() const { return labels_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, LabelSet labels, std::string help)
      : name_(std::move(name)),
        labels_(std::move(labels)),
        help_(std::move(help)) {}

  std::string name_;
  LabelSet labels_;
  std::string help_;
  internal::ShardSlot shards_[kMetricShards];
};

/// \brief Last-writer-wins gauge. Gauges are set at low frequency (thread
/// counts, index sizes), so a single atomic double is enough.
class Gauge {
 public:
  void Set(double value);
  void Add(double delta);
  double Value() const;
  void Reset() { Set(0.0); }

  const std::string& name() const { return name_; }
  const LabelSet& labels() const { return labels_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, LabelSet labels, std::string help)
      : name_(std::move(name)),
        labels_(std::move(labels)),
        help_(std::move(help)) {}

  std::string name_;
  LabelSet labels_;
  std::string help_;
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket latency histogram with the same shard striping as
/// `Counter`. Bucket upper bounds are set at registration and immutable;
/// `Observe` does one branchless-ish linear scan (bucket counts are small)
/// plus two relaxed atomic adds on the thread's shard.
class Histogram {
 public:
  void Observe(double value);

  /// Cumulative-free per-bucket counts, one entry per bound plus the
  /// overflow bucket (+Inf), summed over shards.
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const;
  double Sum() const;
  void Reset();

  const std::string& name() const { return name_; }
  const LabelSet& labels() const { return labels_; }
  const std::string& help() const { return help_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, LabelSet labels, std::string help,
            std::vector<double> bounds);

  struct alignas(64) HistShard {
    // One slot per bound plus overflow; sum is stored as a double bit
    // pattern so the shard needs no lock (single logical writer — the
    // pinned thread — but loads/stores stay atomic for racing readers
    // and for threads hashing onto a shared shard).
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> sum_bits{0};
    std::atomic<uint64_t> count{0};
  };

  std::string name_;
  LabelSet labels_;
  std::string help_;
  std::vector<double> bounds_;  // ascending upper bounds, +Inf implicit
  std::vector<HistShard> shards_;
};

/// Default latency bounds (seconds): 1us … 10s, quasi-logarithmic.
const std::vector<double>& DefaultLatencyBounds();

/// \brief RAII latency probe: observes the elapsed wall time (seconds) into
/// a histogram on destruction. For timing one fsync, one snapshot write,
/// one scan — anywhere a manual WallTimer + Observe pair would be noise.
class HistogramTimer {
 public:
  explicit HistogramTimer(Histogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~HistogramTimer() {
    histogram_.Observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }
  HistogramTimer(const HistogramTimer&) = delete;
  HistogramTimer& operator=(const HistogramTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief Read-side view of every registered metric, value-captured at one
/// point in time. Entries are sorted by (name, labels) so rendering is
/// deterministic.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    LabelSet labels;
    std::string help;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    LabelSet labels;
    std::string help;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    LabelSet labels;
    std::string help;
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;  // per-bound + overflow, NOT cumulative
    uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// \brief Process-wide metric registry. Instrumentation sites hold
/// `static Counter&` references obtained once (registration interns by
/// name + labels and returns the existing instance on re-lookup), so the
/// hot path never touches the registry lock.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the counter for (name, labels), creating it on first use.
  /// `help` is kept from the first registration. References stay valid for
  /// the registry's lifetime (metrics are never deregistered).
  Counter& GetCounter(std::string_view name, LabelSet labels = {},
                      std::string_view help = "");
  Gauge& GetGauge(std::string_view name, LabelSet labels = {},
                  std::string_view help = "");

  /// Histogram with explicit ascending bucket bounds (DefaultLatencyBounds
  /// when empty). Bounds are fixed by the first registration.
  Histogram& GetHistogram(std::string_view name, LabelSet labels = {},
                          std::string_view help = "",
                          std::vector<double> bounds = {});

  /// Point-in-time copy of every registered metric, sorted.
  MetricsSnapshot Snapshot() const;

  /// Zeroes all metric values (registrations survive, so static handles
  /// held by instrumentation sites stay valid). Test support — callers
  /// must quiesce writers first.
  void ResetAll();

  /// Global kill switch: when disabled, Inc/Set/Observe are no-ops beyond
  /// one relaxed load. Enabled by default.
  static void SetEnabled(bool enabled);
  static bool Enabled();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace infoleak::obs
