#include "src/obs/metrics.h"

#include <bit>

namespace mto {
namespace obs {

namespace {

// Bit s is set iff a live thread leases Counter slot s. A plain atomic word:
// no destructor, so it outlives every thread-exit release.
std::atomic<uint64_t> leased_slots{0};
static_assert(Counter::kShards < 64, "slot bits must fit the lease word");

}  // namespace

// Returns the thread's slot to the pool when the thread exits. The release
// order publishes the thread's last shard stores to the slot's next owner,
// whose leasing CAS acquires.
struct Counter::SlotLease {
  size_t slot;
  ~SlotLease() {
    tls_slot_ = kShards;  // adds from later thread-exit code overflow
    leased_slots.fetch_and(~(uint64_t{1} << slot), std::memory_order_release);
  }
};

size_t Counter::ThreadSlot() {
  if (tls_slot_ != kUnleased) return tls_slot_;
  constexpr uint64_t kAll = (uint64_t{1} << kShards) - 1;
  uint64_t leased = leased_slots.load(std::memory_order_relaxed);
  size_t slot = kShards;
  while (leased != kAll) {
    const auto lowest = static_cast<size_t>(std::countr_one(leased));
    if (leased_slots.compare_exchange_weak(
            leased, leased | (uint64_t{1} << lowest),
            std::memory_order_acquire, std::memory_order_relaxed)) {
      slot = lowest;
      break;
    }
  }
  tls_slot_ = slot;
  if (slot < kShards) {
    thread_local SlotLease lease{slot};
  }
  return slot;
}

void Counter::AddUnleased(uint64_t delta) {
  if (ThreadSlot() < kShards) {
    Add(delta);
  } else {
    shards_[kShards].value.fetch_add(delta, std::memory_order_relaxed);
  }
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Continuous rank in [0, count]; the winning bucket is the first whose
  // cumulative count reaches it (rank 0 degenerates to the first bucket).
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (const auto& [bound, n] : buckets) {
    const uint64_t before = cumulative;
    cumulative += n;
    if (static_cast<double>(cumulative) >= rank) {
      // Bucket 0 holds the exact value 0; the bucket with inclusive upper
      // bound B = 2^k - 1 spans [B/2 + 1, B] by the log2 scheme.
      if (bound == 0) return 0.0;
      const double lower = static_cast<double>(bound / 2) + 1.0;
      const double upper = static_cast<double>(bound);
      const double fraction =
          (rank - static_cast<double>(before)) / static_cast<double>(n);
      const double f = fraction < 0.0 ? 0.0 : fraction;
      return lower + f * (upper - lower);
    }
  }
  return static_cast<double>(buckets.back().first);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  std::array<uint64_t, kBuckets> merged{};
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      merged[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kBuckets; ++i) {
    if (merged[i] == 0) continue;
    snap.count += merged[i];
    snap.buckets.emplace_back(BucketUpperBound(i), merged[i]);
  }
  snap.p50 = snap.Quantile(0.50);
  snap.p95 = snap.Quantile(0.95);
  snap.p99 = snap.Quantile(0.99);
  return snap;
}

std::string MetricsRegistry::LabeledName(std::string_view name,
                                         std::string_view label_key,
                                         std::string_view label_value) {
  std::string full;
  full.reserve(name.size() + label_key.size() + label_value.size() + 3);
  full.append(name);
  full.push_back('{');
  full.append(label_key);
  full.push_back('=');
  full.append(label_value);
  full.push_back('}');
  return full;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view label_key,
                                     std::string_view label_value) {
  return GetCounter(LabeledName(name, label_key, label_value));
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view label_key,
                                 std::string_view label_value) {
  return GetGauge(LabeledName(name, label_key, label_value));
}

DoubleGauge* MetricsRegistry::GetDoubleGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = dgauges_.find(name);
  if (it == dgauges_.end()) {
    it = dgauges_.emplace(std::string(name), std::make_unique<DoubleGauge>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view label_key,
                                         std::string_view label_value) {
  return GetHistogram(LabeledName(name, label_key, label_value));
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

int64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->Value();
}

double MetricsRegistry::DoubleGaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = dgauges_.find(name);
  return it == dgauges_.end() ? 0.0 : it->second->Value();
}

StatsSnapshot MetricsRegistry::Snapshot(uint64_t unit) const {
  StatsSnapshot snap;
  snap.unit = unit;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.metrics.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kCounter;
    m.counter = counter->Value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kGauge;
    m.gauge = gauge->Value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, gauge] : dgauges_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kDoubleGauge;
    m.dgauge = gauge->Value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kHistogram;
    m.histogram = histogram->Snap();
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

JsonValue StatsSnapshot::ToJson() const {
  JsonValue root = JsonValue::Object();
  auto& obj = root.MutableObject();
  obj.emplace("unit", JsonValue(static_cast<double>(unit)));
  JsonValue counters = JsonValue::Object();
  JsonValue gauges = JsonValue::Object();
  JsonValue histograms = JsonValue::Object();
  for (const MetricSnapshot& m : metrics) {
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        counters.MutableObject().emplace(
            m.name, JsonValue(static_cast<double>(m.counter)));
        break;
      case MetricSnapshot::Kind::kGauge:
        gauges.MutableObject().emplace(
            m.name, JsonValue(static_cast<double>(m.gauge)));
        break;
      case MetricSnapshot::Kind::kDoubleGauge:
        gauges.MutableObject().emplace(m.name, JsonValue(m.dgauge));
        break;
      case MetricSnapshot::Kind::kHistogram: {
        JsonValue h = JsonValue::Object();
        h.MutableObject().emplace(
            "count", JsonValue(static_cast<double>(m.histogram.count)));
        h.MutableObject().emplace(
            "sum", JsonValue(static_cast<double>(m.histogram.sum)));
        h.MutableObject().emplace("p50", JsonValue(m.histogram.p50));
        h.MutableObject().emplace("p95", JsonValue(m.histogram.p95));
        h.MutableObject().emplace("p99", JsonValue(m.histogram.p99));
        JsonValue buckets = JsonValue::Object();
        for (const auto& [bound, count] : m.histogram.buckets) {
          buckets.MutableObject().emplace(
              std::to_string(bound), JsonValue(static_cast<double>(count)));
        }
        h.MutableObject().emplace("buckets", std::move(buckets));
        histograms.MutableObject().emplace(m.name, std::move(h));
        break;
      }
    }
  }
  obj.emplace("counters", std::move(counters));
  obj.emplace("gauges", std::move(gauges));
  obj.emplace("histograms", std::move(histograms));
  return root;
}

}  // namespace obs
}  // namespace mto
