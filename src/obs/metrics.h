#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/json.h"

namespace mto {
namespace obs {

/// Small dense per-thread id, unique for the life of the process: the
/// first time a thread asks, it draws the next id from a process-global
/// counter. Trace events carry it as their `tid`, and Histogram masks it
/// down to a shard index. Inline so a call site pays a TLS load, not a
/// call; the function-local statics are one object program-wide (inline
/// linkage).
inline size_t ObsThreadId() {
  static std::atomic<size_t> next{0};
  thread_local const size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Monotonically increasing event counter with single-writer shards. A
/// thread's first `Add` leases the lowest free of `kShards` process-wide
/// slots and keeps it until the thread exits, so no two live threads ever
/// write one shard and `Add` is a relaxed load plus a relaxed store — no
/// locked instruction, no shared cache line. A thread that finds every slot
/// leased adds to one extra overflow shard with `fetch_add`. `Value` sums
/// all shards: racy reads see a value some serialization of the increments
/// produced, and the sum is exact once the writers quiesce (a slot changes
/// hands only through the lease word's release/acquire, so its next owner
/// continues from the last value its previous owner stored).
///
/// Observability instruments hot paths through *pointers* to these objects:
/// a null pointer means "metrics off", so the disabled cost is one branch.
/// See `ObsAdd` below.
class Counter {
 public:
  /// Leasable single-writer slots (the overflow shard is one more).
  static constexpr size_t kShards = 16;

  void Add(uint64_t delta = 1) {
    const size_t slot = tls_slot_;
    if (slot < kShards) [[likely]] {
      std::atomic<uint64_t>& value = shards_[slot].value;
      value.store(value.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
      return;
    }
    AddUnleased(delta);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Makes `Value()` read exactly `value`. Not safe against concurrent
  /// `Add`: only for owners that rewind a counter at quiescent points
  /// (session restore/reset).
  void Set(uint64_t value) {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
    shards_[0].value.store(value, std::memory_order_relaxed);
  }

  /// The calling thread's slot, leased on first use: a value in
  /// `[0, kShards)` held by no other live thread, or `kShards` (the
  /// overflow shard) when all were taken.
  static size_t ThreadSlot();

 private:
  static constexpr size_t kUnleased = kShards + 1;
  struct SlotLease;

  /// Cold half of `Add`: leases a slot on first use, else adds to the
  /// overflow shard.
  void AddUnleased(uint64_t delta);

  /// Constant-initialized, so reading it needs no TLS init guard.
  static constinit inline thread_local size_t tls_slot_ = kUnleased;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kShards + 1> shards_{};
};

/// Point-in-time signed value (queue depths, lane occupancy, published
/// ledger totals). Single atomic: gauges move orders of magnitude less
/// often than counters, so sharding would buy nothing.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time floating-point value — estimator-quality telemetry
/// (Geweke z, effective sample size, CI half-width) where integer gauges
/// would throw away exactly the precision a dashboard needs. Same
/// relaxed-atomic discipline as Gauge.
class DoubleGauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-log2-bucket histogram for latencies and sizes: value v lands in
/// bucket bit_width(v), i.e. bucket upper bounds are 0, 1, 3, 7, 15, ...
/// (2^k - 1). 65 buckets cover all of uint64 with zero configuration and a
/// branch-free index — the classic power-of-two latency histogram. Sharded
/// like Counter; Snapshot() merges the per-thread shards.
class Histogram {
 public:
  static constexpr size_t kShards = 8;
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t v) {
    Shard& shard = shards_[ObsThreadId() & (kShards - 1)];
    shard.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bucket index of a value: 0 for 0, otherwise 1 + floor(log2 v).
  static size_t BucketIndex(uint64_t v) {
    size_t bits = 0;
    while (v != 0) {
      v >>= 1;
      ++bits;
    }
    return bits;
  }

  /// Inclusive upper bound of bucket i (UINT64_MAX for the last).
  static uint64_t BucketUpperBound(size_t i);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    /// (inclusive upper bound, count), only buckets with count > 0.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
    /// Quantiles derived from the log2 buckets at snapshot time (linear
    /// interpolation inside the winning bucket, so resolution is one part
    /// in two — good enough to tell a 100us save from a 100ms one). 0 when
    /// the histogram is empty.
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;

    /// The q-quantile (q in [0, 1]) of the recorded distribution as seen
    /// through the buckets: walks the cumulative counts to the bucket
    /// containing rank q*count and interpolates between the bucket's
    /// inclusive bounds. Returns 0 for an empty snapshot.
    double Quantile(double q) const;
  };
  Snapshot Snap() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// One metric as captured by MetricsRegistry::Snapshot().
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kDoubleGauge, kHistogram };
  std::string name;  ///< full name incl. label, e.g. "backend.requests{backend=key-0}"
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  double dgauge = 0.0;
  Histogram::Snapshot histogram;
};

/// All metrics at one instant, tagged with the Advance-unit the service
/// had completed when it was taken (0 for ad-hoc snapshots).
struct StatsSnapshot {
  uint64_t unit = 0;
  std::vector<MetricSnapshot> metrics;

  /// {"unit": N, "counters": {...}, "gauges": {...}, "histograms":
  ///  {name: {"count", "sum", "buckets": {"<=bound>": count}}}}.
  JsonValue ToJson() const;
};

/// Thread-safe named-metric registry. Get-or-create returns a pointer that
/// stays valid for the registry's lifetime (node-based map + unique_ptr),
/// so instrumented components resolve their metrics once and then touch
/// only the atomic shards — registration cost never reaches a hot path.
///
/// Labels are a single key=value pair baked into the full name as
/// "name{key=value}" (enough for per-backend / per-lane breakdowns without
/// a label-matrix machine).
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Counter* GetCounter(std::string_view name, std::string_view label_key,
                      std::string_view label_value);
  Gauge* GetGauge(std::string_view name);
  Gauge* GetGauge(std::string_view name, std::string_view label_key,
                  std::string_view label_value);
  DoubleGauge* GetDoubleGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);
  Histogram* GetHistogram(std::string_view name, std::string_view label_key,
                          std::string_view label_value);

  /// Counter value by full name, 0 when absent (bench/test convenience).
  uint64_t CounterValue(std::string_view name) const;
  /// Gauge value by full name, 0 when absent.
  int64_t GaugeValue(std::string_view name) const;
  /// Double-gauge value by full name, 0 when absent.
  double DoubleGaugeValue(std::string_view name) const;

  StatsSnapshot Snapshot(uint64_t unit = 0) const;

  /// Composes "name{key=value}".
  static std::string LabeledName(std::string_view name,
                                 std::string_view label_key,
                                 std::string_view label_value);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<DoubleGauge>, std::less<>> dgauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Null-safe increment helpers: instrumented components hold raw metric
/// pointers that are null when observability is off, so the disabled-path
/// cost is a predictable branch.
inline void ObsAdd(Counter* c, uint64_t delta = 1) {
  if (c != nullptr) c->Add(delta);
}
inline void ObsAdd(Gauge* g, int64_t delta) {
  if (g != nullptr) g->Add(delta);
}
inline void ObsSet(Gauge* g, int64_t v) {
  if (g != nullptr) g->Set(v);
}
inline void ObsRecord(Histogram* h, uint64_t v) {
  if (h != nullptr) h->Record(v);
}

}  // namespace obs
}  // namespace mto
