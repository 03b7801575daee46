// Repo benchmark binary. Runs one named crawl workload against the public
// API, checks its outputs from the outside, and prints one JSON document on
// stdout: metrics (name -> {value, unit}), checks, operation counts, and the
// stamps of the build that produced them. run.py builds this binary, relays
// the document, and prints the one-line result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --dir BENCH_DIR --tmp SCRATCH_DIR [--tiny]
//
// --trace 0 measures the end-to-end metrics with telemetry as the scenario
// defines it. --trace 1 is a separate run for the per-layer numbers: the
// workload with telemetry off / metrics on / metrics + spans, counters read
// through public getters and the metrics registry, the program's spans
// folded to self time, and the layer-peel ledger. --tiny shrinks every
// workload and the ledger for the self-check (selfcheck.py).
//
// A workload is `BENCH_DIR/workloads/NAME.json`, a scenario loaded with
// ScenarioConfig::FromFile. Workloads with a `NAME.stack.json` beside them
// are driven through BackendPool -> ConcurrentInterfaceCache ->
// CrawlScheduler directly, because CrawlService only charges latency to
// virtual clocks and never sleeps.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/experiments/harness.h"
#include "src/graph/datasets.h"
#include "src/net/restricted_interface.h"
#include "src/net/social_network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/service/backend_pool.h"
#include "src/service/crawl_service.h"
#include "src/service/scenario_config.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/walk/srw.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace mto;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over the raw bytes of everything fed in: the run digest that
/// repeats of one seed must reproduce.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void AddBackends(const std::vector<BackendStats>& stats) {
    for (const BackendStats& s : stats) {
      Add(s.unique_queries);
      Add(s.requests);
      Add(s.failed_requests);
      Add(s.timeouts);
      Add(s.transient_errors);
      Add(s.quota_rejections);
      Add(s.budget_refusals);
      Add(s.simulated_us);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// ---------------------------------------------------------------------------
// Result document
// ---------------------------------------------------------------------------

/// Collects metrics, named checks, and operation counts. A check that fails
/// in any operation fails the run; each operation with a failed check
/// counts once in `failed`.
class Results {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    JsonValue m = JsonValue::Object();
    m.MutableObject()["value"] = JsonValue(value);
    m.MutableObject()["unit"] = JsonValue(unit);
    metrics_.MutableObject()[name] = std::move(m);
  }

  /// Records one evaluation of check `name`; returns `ok`.
  bool Expect(const std::string& name, bool ok, const std::string& detail) {
    auto [it, inserted] = checks_.try_emplace(name, true, std::string());
    if (!ok && it->second.first) {
      it->second = {false, detail};
    }
    return ok;
  }

  /// Counts one operation (a crawl or a ledger rep) and whether it passed.
  void Operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void Note(const std::string& key, JsonValue value) {
    notes_.MutableObject()[key] = std::move(value);
  }

  bool AllPassed() const {
    if (failed_ != 0) return false;
    for (const auto& [name, result] : checks_) {
      if (!result.first) return false;
    }
    return true;
  }

  JsonValue ToJson(JsonValue stamp) const {
    JsonValue root = JsonValue::Object();
    auto& obj = root.MutableObject();
    obj["stamp"] = std::move(stamp);
    obj["correct"] = JsonValue(AllPassed());
    obj["attempted"] = JsonValue(static_cast<double>(attempted_));
    obj["failed"] = JsonValue(static_cast<double>(failed_));
    obj["metrics"] = metrics_;
    JsonValue checks = JsonValue::Object();
    for (const auto& [name, result] : checks_) {
      JsonValue c = JsonValue::Object();
      c.MutableObject()["ok"] = JsonValue(result.first);
      c.MutableObject()["detail"] = JsonValue(result.second);
      checks.MutableObject()[name] = std::move(c);
    }
    obj["checks"] = std::move(checks);
    obj["notes"] = notes_;
    return root;
  }

 private:
  JsonValue metrics_ = JsonValue::Object();
  JsonValue notes_ = JsonValue::Object();
  std::map<std::string, std::pair<bool, std::string>> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string dir;
  std::string tmp;
};

/// The benchmark-side half of a workload: the scenario plus, for the
/// direct-stack regime, the real per-trip sleep.
struct Workload {
  ScenarioConfig scenario;
  /// Real microseconds slept per backend round trip; set only for
  /// workloads with a stack file (the direct-stack regime).
  std::optional<uint64_t> real_rtt_us;
};

/// SplitMix64 finalizer: derives the fault-stream seed from the workload
/// seed so one command-line seed fixes every random input.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Self-check sizes: the same shape on the small datasets, a few hundred
/// walkers, and a handful of rounds.
void ShrinkForSelfCheck(ScenarioConfig& s) {
  if (s.dataset == "epinions") s.dataset = "epinions_small";
  if (s.dataset == "gplus") s.dataset = "gplus_small";
  s.num_walkers = std::min<size_t>(s.num_walkers, 256);
  s.geweke_check_every = std::min<size_t>(s.geweke_check_every, 10);
  s.max_burn_in_rounds = std::min<size_t>(s.max_burn_in_rounds, 40);
  s.thinning = std::min<size_t>(s.thinning, 20);
  s.num_samples = 2 * s.num_walkers;
}

Workload LoadWorkload(const Args& args, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(args.dir) / "workloads";
  const std::filesystem::path scenario_path = dir / (name + ".json");
  if (!std::filesystem::exists(scenario_path)) {
    throw std::invalid_argument("unknown workload: " + name);
  }
  Workload w;
  w.scenario = ScenarioConfig::FromFile(scenario_path.string());
  w.scenario.seed = args.seed;
  w.scenario.fault_seed = Mix(args.seed);
  if (args.tiny) ShrinkForSelfCheck(w.scenario);
  if (!w.scenario.checkpoint.path.empty()) {
    w.scenario.checkpoint.path =
        (std::filesystem::path(args.tmp) /
         std::filesystem::path(w.scenario.checkpoint.path).filename())
            .string();
  }
  const std::filesystem::path stack_path = dir / (name + ".stack.json");
  if (std::filesystem::exists(stack_path)) {
    const JsonValue stack = ParseJsonFile(stack_path.string());
    w.real_rtt_us = stack.At("real_rtt_us").AsUint();
    if (w.scenario.backends.empty()) {
      throw std::invalid_argument(name + ": the direct stack needs backends");
    }
  }
  w.scenario.Validate();
  return w;
}

// ---------------------------------------------------------------------------
// One crawl
// ---------------------------------------------------------------------------

/// Telemetry attached to a crawl: off, metrics registry, or registry plus
/// the program's span log.
enum class Telemetry { kOff, kMetrics, kTrace };

const char* TelemetryName(Telemetry t) {
  switch (t) {
    case Telemetry::kOff:
      return "off";
    case Telemetry::kMetrics:
      return "metrics";
    case Telemetry::kTrace:
      return "trace";
  }
  return "?";
}

/// A span the benchmark records around one public call it makes.
struct BenchSpan {
  std::string name;
  double dur_s = 0.0;
};

/// Everything one crawl produced that the metrics and checks read.
struct CrawlOutcome {
  double setup_s = 0.0;
  double crawl_s = 0.0;
  uint64_t steps = 0;
  uint64_t expected_steps = 0;
  uint64_t unique = 0;
  uint64_t requests = 0;
  uint64_t failed_fetches = 0;
  uint64_t total_requests = 0;
  uint64_t sim_us = 0;
  uint64_t users = 0;
  size_t samples = 0;
  size_t expected_samples = 0;
  size_t keys = 1;
  size_t total_rounds = 0;
  std::vector<BackendStats> backends;
  double estimate = 0.0;
  double truth = 0.0;
  uint64_t digest = 0;
  std::optional<uint64_t> real_rtt_us;

  // Telemetry (kMetrics / kTrace only).
  bool has_registry = false;
  int64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t dedupe_waits = 0;
  double miss_batch_p50 = 0.0;
  int64_t spec_commits = 0;
  int64_t spec_hits = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_consumed = 0;
  uint64_t prefetch_mispredicted = 0;
  uint64_t prefetch_stale = 0;
  double ckpt_bytes = 0.0;

  /// The benchmark's spans (crawls it drives unit by unit).
  std::vector<BenchSpan> bench_spans;
  // kTrace only.
  JsonValue program_trace;
  uint64_t dropped_events = 0;
};

double RelError(const CrawlOutcome& o) {
  return o.truth != 0.0 ? std::fabs(o.estimate - o.truth) / o.truth : 0.0;
}

/// Modelled share of the fleet bound: the fleet's trips spread evenly over
/// its keys, divided by the crawl's duration. The direct stack pays real
/// trips, so both sides are wall time; the service charges virtual clocks
/// only, so both sides are modelled time (mean over max backend clock).
double FleetBoundFrac(const CrawlOutcome& o) {
  if (o.real_rtt_us.has_value()) {
    const double bound_s = static_cast<double>(o.requests) *
                           static_cast<double>(*o.real_rtt_us) * 1e-6 /
                           static_cast<double>(o.keys);
    return o.crawl_s > 0.0 ? bound_s / o.crawl_s : 0.0;
  }
  uint64_t sum = 0;
  uint64_t max = 0;
  for (const BackendStats& s : o.backends) {
    sum += s.simulated_us;
    max = std::max(max, s.simulated_us);
  }
  return max > 0 ? static_cast<double>(sum) /
                       static_cast<double>(o.backends.size()) /
                       static_cast<double>(max)
                 : 0.0;
}

void ReadRegistry(obs::MetricsRegistry& registry, CrawlOutcome& out) {
  out.has_registry = true;
  out.cache_hits = registry.GaugeValue("cache.hits");
  out.cache_misses = registry.CounterValue("cache.misses");
  out.dedupe_waits = registry.CounterValue("cache.dedupe_waits");
  out.spec_commits = registry.GaugeValue("scheduler.speculative_commits");
  out.spec_hits = registry.GaugeValue("scheduler.speculation_hits");
  out.prefetch_issued = registry.CounterValue("prefetch.issued");
  out.prefetch_consumed = registry.CounterValue("prefetch.consumed");
  out.prefetch_mispredicted = registry.CounterValue("prefetch.mispredicted");
  out.prefetch_stale = registry.CounterValue("prefetch.stale_cancelled");
  for (const obs::MetricSnapshot& m : registry.Snapshot().metrics) {
    if (m.name == "cache.miss_batch_size") {
      out.miss_batch_p50 = m.histogram.p50;
    } else if (m.name == "checkpoint.save_bytes" && m.histogram.count > 0) {
      out.ckpt_bytes = static_cast<double>(m.histogram.sum) /
                       static_cast<double>(m.histogram.count);
    }
  }
}

void ApplyTelemetry(ScenarioConfig& s, Telemetry telemetry,
                    const std::string& tmp) {
  if (telemetry == Telemetry::kOff) {
    s.observability = ObservabilityConfig{};
    return;
  }
  s.observability.metrics = true;
  if (telemetry == Telemetry::kTrace) {
    s.observability.trace_path =
        (std::filesystem::path(tmp) / "program.trace.json").string();
  }
}

/// A CrawlService crawl. Without `telemetry` it keeps the scenario's and
/// times the single public Run(). With it (the traced run) it sets that
/// telemetry and calls Advance and SaveCheckpoint itself, on Run()'s
/// cadence, so it can span each call.
CrawlOutcome RunServiceCrawl(const Workload& w,
                             std::optional<Telemetry> telemetry,
                             const std::string& tmp) {
  ScenarioConfig config = w.scenario;
  if (telemetry.has_value()) ApplyTelemetry(config, *telemetry, tmp);
  CrawlOutcome out;
  const auto t0 = Clock::now();
  CrawlService service(config);
  const auto t1 = Clock::now();
  ServiceResult result;
  if (!telemetry.has_value()) {
    result = service.Run();
    out.crawl_s = SecondsBetween(t1, Clock::now());
  } else {
    const size_t every = config.checkpoint.every_units;
    size_t units = 0;
    for (;;) {
      const bool burn_in = service.phase() == CrawlPhase::kBurnIn;
      const auto a = Clock::now();
      if (!service.Advance()) break;
      out.bench_spans.push_back(
          {burn_in ? "unit.burn_in" : "unit.collect",
           SecondsBetween(a, Clock::now())});
      ++units;
      if (every > 0 && units % every == 0 && !service.Done()) {
        const auto c = Clock::now();
        service.SaveCheckpoint(config.checkpoint.path);
        out.bench_spans.push_back(
            {"checkpoint.save", SecondsBetween(c, Clock::now())});
      }
    }
    out.crawl_s = SecondsBetween(t1, Clock::now());
    result = service.Finish();
  }
  out.setup_s = SecondsBetween(t0, t1);
  out.bench_spans.push_back({"service.construct", out.setup_s});

  out.steps = result.total_steps;
  out.expected_steps =
      static_cast<uint64_t>(result.total_rounds) * config.num_walkers;
  out.total_rounds = result.total_rounds;
  out.unique = result.total_query_cost;
  out.requests = result.backend_requests;
  out.failed_fetches = result.failed_fetches;
  out.total_requests = service.session().TotalRequests();
  out.sim_us = result.simulated_time_us;
  out.users = service.network().num_users();
  out.samples = result.samples.size();
  out.expected_samples =
      (config.num_samples + config.num_walkers - 1) / config.num_walkers *
      config.num_walkers;
  out.keys = service.pool().num_backends();
  out.backends = result.backend_stats;
  out.estimate = result.final_estimate;
  out.truth = service.network().TrueAverageDegree();

  Digest digest;
  for (NodeId v : result.samples) digest.Add(v);
  digest.Add(result.final_estimate);
  digest.Add(result.total_query_cost);
  digest.Add(result.backend_requests);
  digest.Add(result.failed_fetches);
  digest.Add(result.simulated_time_us);
  digest.AddBackends(result.backend_stats);
  out.digest = digest.value();

  if (service.metrics() != nullptr) ReadRegistry(*service.metrics(), out);
  if (service.trace_log() != nullptr) {
    out.program_trace = service.trace_log()->ToJson();
    out.dropped_events = service.trace_log()->DroppedEvents();
  }
  return out;
}

/// Walker factory shared by the direct stack and the ledger: walker i
/// starts at the first draw of its own (seed, i) stream, as in CrawlService.
template <typename Walker>
CrawlScheduler::WalkerFactory FactoryOf() {
  return [](RestrictedInterface& iface, Rng& rng, size_t) {
    const NodeId start = static_cast<NodeId>(rng.UniformInt(iface.num_users()));
    return std::make_unique<Walker>(iface, rng, start);
  };
}

/// Sets the real per-trip sleep on `pool` and returns it, so the sleep is in
/// place before the cache wrapping the pool is built (the cache takes the
/// latency over at construction).
BackendPool& WithRealLatency(BackendPool& pool, uint64_t rtt_us) {
  pool.SetSimulatedLatency(std::chrono::microseconds(rtt_us));
  return pool;
}

CrawlConfig DirectCrawlConfig(const ScenarioConfig& s) {
  CrawlConfig crawl;
  crawl.num_walkers = s.num_walkers;
  crawl.num_threads = s.num_threads;
  crawl.coalesce_frontier = s.coalesce_frontier;
  crawl.fetch_mode = s.fetch_mode;
  crawl.fetch_threads = s.fetch_threads != 0 ? s.fetch_threads : s.backends.size();
  crawl.pipeline_depth = s.pipeline_depth;
  return crawl;
}

/// The latency regime's stack: BackendPool -> ConcurrentInterfaceCache ->
/// CrawlScheduler over the scenario's dataset and fleet.
struct DirectStack {
  explicit DirectStack(const Workload& w)
      : network(MakeDataset(w.scenario.dataset)),
        pool(network, w.scenario.backends, w.scenario.retry, w.scenario.strategy,
             w.scenario.fault_seed),
        cache(WithRealLatency(pool, *w.real_rtt_us)),
        scheduler(cache, DirectCrawlConfig(w.scenario), w.scenario.seed,
                  FactoryOf<SimpleRandomWalk>()) {}

  SocialNetwork network;
  BackendPool pool;
  ConcurrentInterfaceCache cache;
  CrawlScheduler scheduler;
};

/// A crawl through the direct stack, with `telemetry` or else the
/// scenario's metrics switch. Burn-in is a fixed max_burn_in_rounds;
/// collection mirrors CrawlService.
CrawlOutcome RunDirectCrawl(const Workload& w,
                            std::optional<Telemetry> telemetry_override) {
  const ScenarioConfig& s = w.scenario;
  const Telemetry telemetry = telemetry_override.value_or(
      s.observability.metrics ? Telemetry::kMetrics : Telemetry::kOff);
  CrawlOutcome out;
  out.real_rtt_us = w.real_rtt_us;
  // Telemetry outlives the stack, whose threads record into it until joined.
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::TraceLog> trace;
  if (telemetry != Telemetry::kOff) {
    registry = std::make_unique<obs::MetricsRegistry>();
  }
  if (telemetry == Telemetry::kTrace) trace = std::make_unique<obs::TraceLog>();
  const auto t0 = Clock::now();
  DirectStack st(w);
  CrawlScheduler& scheduler = st.scheduler;
  if (registry != nullptr) scheduler.SetObservability(registry.get(), trace.get());
  const auto t1 = Clock::now();

  const size_t chunk = std::max<size_t>(1, s.geweke_check_every);
  size_t rounds = 0;
  while (rounds < s.max_burn_in_rounds) {
    const size_t n = std::min(chunk, s.max_burn_in_rounds - rounds);
    const auto a = Clock::now();
    scheduler.RunRounds(n);
    out.bench_spans.push_back({"unit.burn_in", SecondsBetween(a, Clock::now())});
    rounds += n;
  }
  std::vector<double> values;
  std::vector<double> weights;
  const size_t collections = (s.num_samples + s.num_walkers - 1) / s.num_walkers;
  for (size_t k = 0; k < collections; ++k) {
    const auto a = Clock::now();
    if (k > 0) {
      scheduler.RunRounds(s.thinning);
      rounds += s.thinning;
    }
    scheduler.Collect(
        [](Sampler& walker) { return AttributeValue(walker, Attribute::kDegree); },
        values, weights);
    out.bench_spans.push_back({"unit.collect", SecondsBetween(a, Clock::now())});
  }
  out.crawl_s = SecondsBetween(t1, Clock::now());
  out.setup_s = SecondsBetween(t0, t1);
  out.bench_spans.push_back({"service.construct", out.setup_s});

  double weighted = 0.0;
  double weight_sum = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    weighted += values[i] * weights[i];
    weight_sum += weights[i];
  }
  out.estimate = weight_sum > 0.0 ? weighted / weight_sum : 0.0;
  out.truth = st.network.TrueAverageDegree();
  out.steps = scheduler.total_steps();
  out.expected_steps = static_cast<uint64_t>(rounds) * s.num_walkers;
  out.total_rounds = rounds;
  out.unique = st.cache.QueryCost();
  out.requests = st.cache.BackendRequests();
  out.failed_fetches = st.pool.FailedFetches();
  out.total_requests = st.cache.TotalRequests();
  out.sim_us = st.pool.SimulatedTimeUs();
  out.users = st.network.num_users();
  out.samples = values.size();
  out.expected_samples = collections * s.num_walkers;
  out.keys = st.pool.num_backends();
  out.backends = st.pool.AllBackendStats();

  Digest digest;
  for (NodeId v : scheduler.Positions()) digest.Add(v);
  digest.Add(out.estimate);
  digest.Add(out.unique);
  digest.Add(out.requests);
  digest.Add(out.failed_fetches);
  digest.AddBackends(out.backends);
  out.digest = digest.value();

  if (registry != nullptr) {
    st.cache.PublishMetrics();
    ReadRegistry(*registry, out);
  }
  if (trace != nullptr) {
    out.program_trace = trace->ToJson();
    out.dropped_events = trace->DroppedEvents();
  }
  return out;
}

/// One crawl of the workload; `telemetry` overrides the scenario's.
CrawlOutcome RunCrawl(const Workload& w, std::optional<Telemetry> telemetry,
                      const std::string& tmp) {
  return w.real_rtt_us.has_value() ? RunDirectCrawl(w, telemetry)
                                   : RunServiceCrawl(w, telemetry, tmp);
}

/// Seconds to build the workload's stack, dataset included; teardown is not
/// timed.
double SetupSeconds(const Workload& w) {
  const auto t0 = Clock::now();
  if (w.real_rtt_us.has_value()) {
    const DirectStack stack(w);
    return SecondsBetween(t0, Clock::now());
  }
  const CrawlService service(w.scenario);
  return SecondsBetween(t0, Clock::now());
}

/// The outside checks every crawl must pass: ROADMAP's conservation laws,
/// step and sample accounting, a sane estimate, and the repeat digest.
/// Returns whether this crawl passed all of them.
bool CheckCrawl(Results& results, const CrawlOutcome& o, uint64_t first_digest) {
  bool ok = true;
  uint64_t sum_requests = 0;
  uint64_t sum_unique = 0;
  for (size_t b = 0; b < o.backends.size(); ++b) {
    const BackendStats& s = o.backends[b];
    const std::string tag = "backend " + std::to_string(b);
    ok &= results.Expect("law.requests_eq_unique_plus_failed",
                         s.requests == s.unique_queries + s.failed_requests,
                         tag + ": requests " + std::to_string(s.requests) +
                             " != unique " + std::to_string(s.unique_queries) +
                             " + failed " + std::to_string(s.failed_requests));
    ok &= results.Expect(
        "law.failed_eq_timeouts_transient_quota",
        s.failed_requests == s.timeouts + s.transient_errors + s.quota_rejections,
        tag + ": failed " + std::to_string(s.failed_requests) +
            " != fault sum " +
            std::to_string(s.timeouts + s.transient_errors + s.quota_rejections));
    sum_requests += s.requests;
    sum_unique += s.unique_queries;
  }
  ok &= results.Expect("law.backends_sum_to_pool",
                       sum_requests == o.requests && sum_unique == o.unique,
                       "backend sums (" + std::to_string(sum_requests) + ", " +
                           std::to_string(sum_unique) + ") != pool (" +
                           std::to_string(o.requests) + ", " +
                           std::to_string(o.unique) + ")");
  if (o.has_registry) {
    ok &= results.Expect(
        "law.hits_plus_misses_eq_total_requests",
        o.cache_hits >= 0 &&
            static_cast<uint64_t>(o.cache_hits) + o.cache_misses == o.total_requests,
        "hits " + std::to_string(o.cache_hits) + " + misses " +
            std::to_string(o.cache_misses) + " != " +
            std::to_string(o.total_requests));
    ok &= results.Expect("law.misses_eq_unique_plus_refused",
                         o.cache_misses == o.unique + o.failed_fetches,
                         "misses " + std::to_string(o.cache_misses) +
                             " != unique " + std::to_string(o.unique) +
                             " + refused " + std::to_string(o.failed_fetches));
  }
  ok &= results.Expect("crawl.steps_eq_rounds_times_walkers",
                       o.steps == o.expected_steps && o.steps > 0,
                       "steps " + std::to_string(o.steps) + " != " +
                           std::to_string(o.expected_steps));
  ok &= results.Expect("crawl.samples_collected",
                       o.samples == o.expected_samples,
                       "samples " + std::to_string(o.samples) + " != " +
                           std::to_string(o.expected_samples));
  ok &= results.Expect("crawl.unique_within_users",
                       o.unique > 0 && o.unique <= o.users,
                       "unique " + std::to_string(o.unique) + " of " +
                           std::to_string(o.users) + " users");
  ok &= results.Expect("crawl.estimate_within_half_of_truth",
                       std::isfinite(o.estimate) && RelError(o) < 0.5,
                       "estimate " + std::to_string(o.estimate) + " vs truth " +
                           std::to_string(o.truth));
  ok &= results.Expect("repeat.same_digest", o.digest == first_digest,
                       "digest differs from the first crawl of this seed");
  return ok;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

/// Crawls the workload back to back until `seconds` have passed (at least
/// three times; twice in the self-check, which still needs a repeat to
/// compare digests) and reports medians over the crawls.
void RunEndToEnd(const Workload& w, const Args& args, Results& results) {
  constexpr size_t kMinSetups = 9;
  const size_t min_crawls = args.tiny ? 2 : 3;
  const auto start = Clock::now();
  std::vector<double> steps_per_s;
  std::vector<double> setup_s;
  std::vector<double> fleet_frac;
  std::optional<CrawlOutcome> first;
  while (steps_per_s.size() < min_crawls ||
         SecondsBetween(start, Clock::now()) < args.seconds) {
    CrawlOutcome o = RunCrawl(w, std::nullopt, args.tmp);
    if (!first) first = o;
    results.Operation(CheckCrawl(results, o, first->digest));
    steps_per_s.push_back(static_cast<double>(o.steps) / o.crawl_s);
    setup_s.push_back(o.setup_s);
    fleet_frac.push_back(FleetBoundFrac(o));
  }
  // Set-up is short next to a crawl on most workloads: top its samples up
  // with stack builds alone, so its median rests on enough of them.
  while (setup_s.size() < kMinSetups) setup_s.push_back(SetupSeconds(w));
  const CrawlOutcome& o = *first;
  results.Metric("steps_per_s", Median(steps_per_s), "1/s");
  results.Metric("setup_s", Median(setup_s), "s");
  results.Metric("peak_rss_mb", PeakRssMb(), "MB");
  results.Metric("unique_queries", static_cast<double>(o.unique), "count");
  results.Metric("backend_requests", static_cast<double>(o.requests), "count");
  results.Metric("served_fetch_frac",
                 static_cast<double>(o.unique) /
                     static_cast<double>(o.unique + o.failed_fetches),
                 "ratio");
  results.Metric("sim_crawl_s", static_cast<double>(o.sim_us) * 1e-6, "s");
  results.Metric("fleet_bound_frac", Median(fleet_frac), "ratio");

  JsonValue crawls = JsonValue::Object();
  crawls.MutableObject()["count"] = JsonValue(static_cast<double>(steps_per_s.size()));
  crawls.MutableObject()["steps_per_crawl"] = JsonValue(static_cast<double>(o.steps));
  JsonValue per_crawl = JsonValue::Array();
  for (double v : steps_per_s) per_crawl.MutableArray().push_back(JsonValue(v));
  crawls.MutableObject()["steps_per_s"] = std::move(per_crawl);
  crawls.MutableObject()["rel_error"] = JsonValue(RelError(o));
  crawls.MutableObject()["digest"] = JsonValue(std::to_string(o.digest));
  results.Note("crawls", std::move(crawls));
}

// ---------------------------------------------------------------------------
// --trace 1: span folding
// ---------------------------------------------------------------------------

/// One program span from the Chrome trace, in microseconds.
struct ProgramSpan {
  std::string name;
  uint64_t tid = 0;
  uint64_t ts = 0;
  uint64_t dur = 0;
  uint64_t self = 0;
};

/// Parses the complete events of a Chrome trace and folds each span to its
/// self time: its duration minus the part its direct children on the same
/// thread cover. Children nest strictly inside their parent (RAII spans).
std::vector<ProgramSpan> FoldSelfTime(const JsonValue& trace) {
  std::vector<ProgramSpan> spans;
  if (!trace.is_object() || !trace.Has("traceEvents")) return spans;
  for (const JsonValue& e : trace.At("traceEvents").AsArray()) {
    if (e.At("ph").AsString() != "X") continue;
    ProgramSpan s;
    s.name = e.At("name").AsString();
    s.tid = e.At("tid").AsUint();
    s.ts = e.At("ts").AsUint();
    s.dur = e.At("dur").AsUint();
    s.self = s.dur;
    spans.push_back(std::move(s));
  }
  // Per thread, by start then longest first: a stack of open ancestors.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const ProgramSpan& a, const ProgramSpan& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.dur > b.dur;
                   });
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].tid != spans[i].tid ||
            spans[open.back()].ts + spans[open.back()].dur < spans[i].ts + spans[i].dur)) {
      open.pop_back();
    }
    if (!open.empty()) {
      ProgramSpan& parent = spans[open.back()];
      parent.self -= std::min(parent.self, spans[i].dur);
    }
    open.push_back(i);
  }
  return spans;
}

/// Per-layer numbers from the traced crawls of one workload.
void ReportWorkloadLayers(const std::vector<CrawlOutcome>& traced,
                          const std::vector<double>& sps_off,
                          const std::vector<double>& sps_metrics,
                          const std::vector<double>& sps_trace,
                          const std::vector<double>& dataset_s,
                          const std::vector<double>& construct_s,
                          Results& results) {
  const CrawlOutcome& o = traced.back();
  const double off = Median(sps_off);
  results.Metric("obs.metrics_overhead", off > 0 ? Median(sps_metrics) / off : 0.0,
                 "ratio");
  results.Metric("obs.trace_overhead", off > 0 ? Median(sps_trace) / off : 0.0,
                 "ratio");
  results.Metric("estimate.rel_error", RelError(o), "ratio");

  // Counters through the registry and the public getters.
  const double claims = static_cast<double>(o.total_requests);
  results.Metric("runtime.cache.hit_ratio",
                 claims > 0 ? static_cast<double>(o.cache_hits) / claims : 0.0,
                 "ratio");
  results.Metric("runtime.cache.dedupe_waits", static_cast<double>(o.dedupe_waits),
                 "count");
  results.Metric("runtime.cache.miss_batch.p50", o.miss_batch_p50, "count");
  results.Metric("core.mto.spec_hit_rate",
                 o.spec_commits > 0 ? static_cast<double>(o.spec_hits) /
                                          static_cast<double>(o.spec_commits)
                                    : 0.0,
                 "ratio");
  uint64_t timeouts = 0;
  uint64_t transient = 0;
  uint64_t quota = 0;
  uint64_t max_clock = 0;
  uint64_t sum_clock = 0;
  for (const BackendStats& s : o.backends) {
    timeouts += s.timeouts;
    transient += s.transient_errors;
    quota += s.quota_rejections;
    max_clock = std::max(max_clock, s.simulated_us);
    sum_clock += s.simulated_us;
  }
  results.Metric("service.pool.requests_per_unique",
                 o.unique > 0 ? static_cast<double>(o.requests) /
                                    static_cast<double>(o.unique)
                              : 0.0,
                 "ratio");
  results.Metric("service.pool.timeouts", static_cast<double>(timeouts), "count");
  results.Metric("service.pool.transient_errors", static_cast<double>(transient),
                 "count");
  results.Metric("service.pool.quota_rejections", static_cast<double>(quota),
                 "count");
  results.Metric("service.pool.clock_imbalance",
                 sum_clock > 0 ? static_cast<double>(max_clock) *
                                     static_cast<double>(o.backends.size()) /
                                     static_cast<double>(sum_clock)
                               : 0.0,
                 "ratio");
  results.Metric("util.lanes.prefetch_consumed_ratio",
                 o.prefetch_issued > 0
                     ? static_cast<double>(o.prefetch_consumed) /
                           static_cast<double>(o.prefetch_issued)
                     : 0.0,
                 "ratio");
  results.Metric("util.lanes.prefetch_mispredicted",
                 static_cast<double>(o.prefetch_mispredicted), "count");
  results.Metric("util.lanes.prefetch_stale", static_cast<double>(o.prefetch_stale),
                 "count");

  // The benchmark's own spans, pooled over the traced crawls.
  std::map<std::string, std::vector<double>> bench_ms;
  for (const CrawlOutcome& c : traced) {
    for (const BenchSpan& s : c.bench_spans) bench_ms[s.name].push_back(s.dur_s * 1e3);
  }
  results.Metric("service.unit_ms.burn_in.p50", Median(bench_ms["unit.burn_in"]), "ms");
  results.Metric("service.unit_ms.burn_in.p99",
                 Quantile(bench_ms["unit.burn_in"], 0.99), "ms");
  results.Metric("service.unit_ms.collect.p50", Median(bench_ms["unit.collect"]), "ms");
  results.Metric("service.unit_ms.collect.p99",
                 Quantile(bench_ms["unit.collect"], 0.99), "ms");
  results.Metric("service.ckpt.save_ms.p50", Median(bench_ms["checkpoint.save"]), "ms");
  results.Metric("service.ckpt.save_ms.p99",
                 Quantile(bench_ms["checkpoint.save"], 0.99), "ms");
  results.Metric("service.ckpt.bytes", o.ckpt_bytes, "bytes");
  results.Metric("graph.dataset_s", Median(dataset_s), "s");
  results.Metric("service.construct_s", Median(construct_s), "s");

  // The program's spans, folded to self time. Rings keep the newest events
  // per thread; when some were dropped, totals are scaled from the rounds
  // that survived to the crawl's rounds.
  std::map<std::string, std::vector<double>> dur_ms;
  std::map<std::string, double> self_ms;
  size_t round_spans = 0;
  for (const ProgramSpan& s : FoldSelfTime(o.program_trace)) {
    dur_ms[s.name].push_back(static_cast<double>(s.dur) * 1e-3);
    self_ms[s.name] += static_cast<double>(s.self) * 1e-3;
    if (s.name == "round.coalesced" || s.name == "round.pipelined") ++round_spans;
  }
  const double scale =
      o.dropped_events > 0 && round_spans > 0
          ? static_cast<double>(o.total_rounds) / static_cast<double>(round_spans)
          : 1.0;
  results.Metric("runtime.sched.rounds_ms.p50", Median(dur_ms["scheduler.rounds"]), "ms");
  results.Metric("runtime.sched.rounds_ms.p99",
                 Quantile(dur_ms["scheduler.rounds"], 0.99), "ms");
  results.Metric("runtime.sched.frontier_ms",
                 scale * (self_ms["frontier.fetch"] + self_ms["frontier.plan"]), "ms");
  results.Metric("util.lanes.wait_ms",
                 scale * (self_ms["lane.wait_until"] + self_ms["lane.drain"]), "ms");
  results.Metric("runtime.pipeline.converge_wait_ms",
                 self_ms["pipeline.converge_wait"], "ms");

  JsonValue samples = JsonValue::Object();
  for (const auto& [name, v] : bench_ms) {
    samples.MutableObject()["bench:" + name] = JsonValue(static_cast<double>(v.size()));
  }
  for (const auto& [name, v] : dur_ms) {
    samples.MutableObject()["program:" + name] = JsonValue(static_cast<double>(v.size()));
  }
  samples.MutableObject()["dropped_events"] =
      JsonValue(static_cast<double>(o.dropped_events));
  samples.MutableObject()["crawls_per_variant"] =
      JsonValue(static_cast<double>(sps_off.size()));
  results.Note("span_samples", std::move(samples));
}

// ---------------------------------------------------------------------------
// --trace 1: the layer-peel ledger
// ---------------------------------------------------------------------------

/// One seeded SRW stream: W walkers, walker i on Rng(seed).Fork(i) starting
/// at its stream's first draw, stepped `rounds` times walker-major.
struct Stream {
  const SocialNetwork* network = nullptr;
  size_t walkers = 0;
  size_t rounds = 0;
  uint64_t seed = 0;
};

/// Positions and unique queries a depth lands; every depth must agree.
struct Landing {
  std::vector<NodeId> positions;
  uint64_t unique = 0;
  bool operator==(const Landing&) const = default;
};

/// Forks the per-walker streams exactly as CrawlScheduler does.
std::vector<std::unique_ptr<Rng>> ForkStreams(const Stream& s) {
  Rng parent(s.seed);
  std::vector<std::unique_ptr<Rng>> rngs;
  rngs.reserve(s.walkers);
  for (size_t i = 0; i < s.walkers; ++i) {
    rngs.push_back(std::make_unique<Rng>(parent.Fork(i)));
  }
  return rngs;
}

/// The floor: plain CSR + RNG, no interface. With `visited` it also counts
/// the distinct nodes the stream stands on — the unique queries any
/// correct depth must pay.
Landing CsrWalk(const Stream& s, std::vector<uint8_t>* visited) {
  const Graph& g = s.network->graph();
  auto rngs = ForkStreams(s);
  Landing landing;
  landing.positions.resize(s.walkers);
  for (size_t i = 0; i < s.walkers; ++i) {
    Rng& rng = *rngs[i];
    NodeId cur = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    if (visited != nullptr) (*visited)[cur] = 1;
    for (size_t r = 0; r < s.rounds; ++r) {
      const auto nbrs = g.Neighbors(cur);
      if (nbrs.empty()) continue;
      cur = nbrs[static_cast<size_t>(rng.UniformInt(nbrs.size()))];
      if (visited != nullptr) (*visited)[cur] = 1;
    }
    landing.positions[i] = cur;
  }
  if (visited != nullptr) {
    landing.unique = static_cast<uint64_t>(
        std::count(visited->begin(), visited->end(), uint8_t{1}));
  }
  return landing;
}

Landing CsrReference(const Stream& s) {
  std::vector<uint8_t> visited(s.network->num_users(), 0);
  return CsrWalk(s, &visited);
}

/// Samplers over `iface`, built like the scheduler's factory would.
template <typename Walker>
std::vector<std::unique_ptr<Sampler>> MakeWalkers(
    RestrictedInterface& iface, std::vector<std::unique_ptr<Rng>>& rngs) {
  std::vector<std::unique_ptr<Sampler>> walkers;
  walkers.reserve(rngs.size());
  for (auto& rng : rngs) {
    const NodeId start = static_cast<NodeId>(rng->UniformInt(iface.num_users()));
    walkers.push_back(std::make_unique<Walker>(iface, *rng, start));
  }
  return walkers;
}

/// A timed ledger row: `setup` builds the depth (untimed) and returns the
/// timed body, which returns what it landed.
using TimedBody = std::function<Landing()>;
using DepthSetup = std::function<TimedBody()>;

struct LedgerRow {
  std::string name;
  std::vector<double> ns_per_unit;
  double rep_ms_min = 0.0;
};

/// Runs `reps` fresh builds of one depth, timing only the body, and checks
/// each landing against `reference`.
LedgerRow RunDepth(const std::string& name, size_t reps, double units,
                   const DepthSetup& setup, const Landing& reference,
                   Results& results) {
  LedgerRow row;
  row.name = name;
  row.rep_ms_min = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    TimedBody body = setup();
    const auto a = Clock::now();
    const Landing landing = body();
    const double s = SecondsBetween(a, Clock::now());
    row.ns_per_unit.push_back(s * 1e9 / units);
    row.rep_ms_min = std::min(row.rep_ms_min, s * 1e3);
    const bool same = results.Expect(
        "ledger.same_landing", landing == reference,
        name + " landed different positions or unique queries (" +
            std::to_string(landing.unique) + " vs " +
            std::to_string(reference.unique) + ")");
    results.Operation(same);
  }
  return row;
}

/// Sizes of the ledger's streams. The SRW rows share one stream on
/// epinions_small; slower depths use fewer rounds and their own CSR
/// reference so every timed rep stays near or above 100 ms.
struct LedgerSizes {
  size_t reps = 5;
  size_t walkers = 64;
  size_t floor_rounds = 250000;
  size_t fast_rounds = 40000;
  size_t slow_rounds = 8000;
  size_t mto_rounds = 5000;
  size_t block_walkers = 100000;
  size_t block_rounds = 4;
  size_t block_resident = 8;
  NodeId block_size = 4096;
  size_t pool_chunk = 64;
};

void RunLedger(const Args& args, Results& results) {
  LedgerSizes z;
  std::string block_dataset = "gplus";
  if (args.tiny) {
    z.reps = 2;
    z.floor_rounds = 400;
    z.fast_rounds = 200;
    z.slow_rounds = 100;
    z.mto_rounds = 50;
    z.block_walkers = 2000;
    z.block_rounds = 2;
    block_dataset = "gplus_small";
  }
  const size_t tn = std::max<size_t>(1, std::thread::hardware_concurrency());
  const SocialNetwork small(MakeDataset("epinions_small"));
  const SocialNetwork wide(MakeDataset(block_dataset));

  const Stream floor{&small, z.walkers, z.floor_rounds, args.seed};
  const Stream fast{&small, z.walkers, z.fast_rounds, args.seed};
  const Stream slow{&small, z.walkers, z.slow_rounds, args.seed};
  const Landing floor_ref = CsrReference(floor);
  const Landing fast_ref = CsrReference(fast);
  const Landing slow_ref = CsrReference(slow);
  const double floor_steps = static_cast<double>(z.walkers * z.floor_rounds);
  const double fast_steps = static_cast<double>(z.walkers * z.fast_rounds);
  const double slow_steps = static_cast<double>(z.walkers * z.slow_rounds);
  std::vector<LedgerRow> rows;

  rows.push_back(RunDepth(
      "graph.ns_per_step", z.reps, floor_steps,
      [&] {
        return TimedBody([&] {
          Landing l = CsrWalk(floor, nullptr);
          l.unique = floor_ref.unique;  // the floor pays no queries
          return l;
        });
      },
      floor_ref, results));

  // Walker-major stepping of prepared samplers on the calling thread.
  struct Stack {
    std::unique_ptr<RestrictedInterface> base;
    std::unique_ptr<ConcurrentInterfaceCache> cache;
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<std::unique_ptr<Sampler>> walkers;
    std::unique_ptr<CrawlScheduler> scheduler;
  };
  auto landing_of = [](const std::vector<std::unique_ptr<Sampler>>& walkers,
                       const RestrictedInterface& iface) {
    Landing l;
    for (const auto& w : walkers) l.positions.push_back(w->current());
    l.unique = iface.QueryCost();
    return l;
  };

  rows.push_back(RunDepth(
      "net.ns_per_step", z.reps, floor_steps,
      [&] {
        auto st = std::make_shared<Stack>();
        st->base = std::make_unique<RestrictedInterface>(small);
        st->rngs = ForkStreams(floor);
        st->walkers = MakeWalkers<SimpleRandomWalk>(*st->base, st->rngs);
        return TimedBody([st, &floor, &landing_of] {
          for (auto& w : st->walkers) {
            for (size_t r = 0; r < floor.rounds; ++r) w->Step();
          }
          return landing_of(st->walkers, *st->base);
        });
      },
      floor_ref, results));

  // The cache from plain threads: thread t steps its contiguous walker block.
  for (size_t threads : {size_t{1}, tn}) {
    rows.push_back(RunDepth(
        threads == 1 ? "runtime.cache.ns_per_step.t1" : "runtime.cache.ns_per_step.tn",
        z.reps, fast_steps,
        [&, threads] {
          auto st = std::make_shared<Stack>();
          st->base = std::make_unique<RestrictedInterface>(small);
          st->cache = std::make_unique<ConcurrentInterfaceCache>(*st->base);
          st->rngs = ForkStreams(fast);
          st->walkers = MakeWalkers<SimpleRandomWalk>(*st->cache, st->rngs);
          return TimedBody([st, threads, &fast, &landing_of] {
            std::vector<std::exception_ptr> errors(threads);
            std::vector<std::thread> pool;
            for (size_t t = 0; t < threads; ++t) {
              pool.emplace_back([st, t, threads, &fast, &errors] {
                try {
                  auto [begin, end] =
                      ThreadPool::BlockRange(st->walkers.size(), threads, t);
                  for (size_t i = begin; i < end; ++i) {
                    for (size_t r = 0; r < fast.rounds; ++r) st->walkers[i]->Step();
                  }
                } catch (...) {
                  errors[t] = std::current_exception();
                }
              });
            }
            for (auto& th : pool) th.join();
            for (const auto& error : errors) {
              if (error) std::rethrow_exception(error);
            }
            return landing_of(st->walkers, *st->cache);
          });
        },
        fast_ref, results));
  }

  auto scheduler_depth = [](const Stream* stream, size_t threads, bool coalesce) {
    return [stream, threads, coalesce] {
      auto st = std::make_shared<Stack>();
      st->base = std::make_unique<RestrictedInterface>(*stream->network);
      st->cache = std::make_unique<ConcurrentInterfaceCache>(*st->base);
      CrawlConfig config;
      config.num_walkers = stream->walkers;
      config.num_threads = threads;
      config.coalesce_frontier = coalesce;
      st->scheduler = std::make_unique<CrawlScheduler>(
          *st->cache, config, stream->seed, FactoryOf<SimpleRandomWalk>());
      return TimedBody([st, stream] {
        st->scheduler->RunRounds(stream->rounds);
        return Landing{st->scheduler->Positions(), st->cache->QueryCost()};
      });
    };
  };
  rows.push_back(RunDepth("runtime.sched.free.ns_per_step.t1", z.reps, fast_steps,
                          scheduler_depth(&fast, 1, false), fast_ref, results));
  rows.push_back(RunDepth("runtime.sched.free.ns_per_step.tn", z.reps, fast_steps,
                          scheduler_depth(&fast, tn, false), fast_ref, results));
  rows.push_back(RunDepth("runtime.sched.coalesced.ns_per_step", z.reps, slow_steps,
                          scheduler_depth(&slow, tn, true), slow_ref, results));

  // Block schedule at wide-crawl's shape, against its own CSR reference.
  const Stream block{&wide, z.block_walkers, z.block_rounds, args.seed};
  const Landing block_ref = CsrReference(block);
  const std::string spill_root =
      (std::filesystem::path(args.tmp) / ("spill-" + std::to_string(::getpid())))
          .string();
  size_t spill_seq = 0;
  rows.push_back(RunDepth(
      "runtime.sched.block.ns_per_step", std::min<size_t>(z.reps, 3),
      static_cast<double>(z.block_walkers * z.block_rounds),
      [&] {
        auto st = std::make_shared<Stack>();
        st->base = std::make_unique<RestrictedInterface>(wide);
        st->cache = std::make_unique<ConcurrentInterfaceCache>(*st->base);
        CrawlConfig config;
        config.num_walkers = block.walkers;
        config.num_threads = tn;
        config.schedule = ScheduleMode::kBlock;
        config.block_size = z.block_size;
        config.resident_blocks = z.block_resident;
        config.spill_dir = spill_root + "/" + std::to_string(spill_seq++);
        st->scheduler = std::make_unique<CrawlScheduler>(
            *st->cache, config, block.seed, FactoryOf<SimpleRandomWalk>());
        return TimedBody([st, &block] {
          st->scheduler->RunRounds(block.rounds);
          return Landing{st->scheduler->Positions(), st->cache->QueryCost()};
        });
      },
      block_ref, results));
  std::error_code ec;
  std::filesystem::remove_all(spill_root, ec);

  // MTO over the plain interface; its reference is the same walk driven by
  // the scheduler over the cache from every thread.
  const Stream mto{&small, z.walkers, z.mto_rounds, args.seed};
  Landing mto_ref;
  {
    RestrictedInterface base(small);
    ConcurrentInterfaceCache cache(base);
    CrawlConfig config;
    config.num_walkers = mto.walkers;
    config.num_threads = tn;
    CrawlScheduler scheduler(cache, config, mto.seed, FactoryOf<MtoSampler>());
    scheduler.RunRounds(mto.rounds);
    mto_ref = Landing{scheduler.Positions(), cache.QueryCost()};
  }
  rows.push_back(RunDepth(
      "core.mto.ns_per_step", z.reps, static_cast<double>(z.walkers * z.mto_rounds),
      [&] {
        auto st = std::make_shared<Stack>();
        st->base = std::make_unique<RestrictedInterface>(small);
        st->rngs = ForkStreams(mto);
        st->walkers = MakeWalkers<MtoSampler>(*st->base, st->rngs);
        return TimedBody([st, &mto, &landing_of] {
          for (auto& w : st->walkers) {
            for (size_t r = 0; r < mto.rounds; ++r) w->Step();
          }
          return landing_of(st->walkers, *st->base);
        });
      },
      mto_ref, results));

  // BackendPool's routing front over distinct uncached ids, with
  // wide-crawl's fleet. Its landing is the fetched/refused split; every
  // rep must reproduce the first one.
  {
    const ScenarioConfig fleet = LoadWorkload(args, "wide-crawl").scenario;
    std::vector<NodeId> ids(wide.num_users());
    for (NodeId v = 0; v < wide.num_users(); ++v) ids[v] = v;
    Rng shuffle(args.seed);
    shuffle.Shuffle(ids);
    auto pool_setup = [&] {
      auto pool = std::make_shared<BackendPool>(wide, fleet.backends, fleet.retry,
                                                fleet.strategy, fleet.fault_seed);
      return TimedBody([pool, &ids, &z] {
        for (size_t i = 0; i < ids.size(); i += z.pool_chunk) {
          const size_t n = std::min(z.pool_chunk, ids.size() - i);
          pool->BatchQuery(std::span<const NodeId>(ids.data() + i, n));
        }
        Landing l;
        l.positions.push_back(static_cast<NodeId>(pool->FailedFetches()));
        l.positions.push_back(static_cast<NodeId>(pool->BackendRequests()));
        l.unique = pool->QueryCost();
        return l;
      });
    };
    const Landing pool_ref = pool_setup()();
    results.Expect("ledger.pool_fetches_accounted",
                   pool_ref.unique + pool_ref.positions[0] == ids.size(),
                   "unique + refused != distinct ids fetched");
    rows.push_back(RunDepth("service.pool.ns_per_miss", z.reps,
                            static_cast<double>(ids.size()), pool_setup, pool_ref,
                            results));
  }

  JsonValue table = JsonValue::Array();
  for (const LedgerRow& row : rows) {
    results.Metric(row.name, Median(row.ns_per_unit), "ns");
    JsonValue r = JsonValue::Object();
    r.MutableObject()["name"] = JsonValue(row.name);
    r.MutableObject()["median_ns"] = JsonValue(Median(row.ns_per_unit));
    r.MutableObject()["min_ns"] =
        JsonValue(*std::min_element(row.ns_per_unit.begin(), row.ns_per_unit.end()));
    r.MutableObject()["max_ns"] =
        JsonValue(*std::max_element(row.ns_per_unit.begin(), row.ns_per_unit.end()));
    r.MutableObject()["reps"] = JsonValue(static_cast<double>(row.ns_per_unit.size()));
    r.MutableObject()["rep_ms_min"] = JsonValue(row.rep_ms_min);
    table.MutableArray().push_back(std::move(r));
  }
  results.Note("ledger", std::move(table));
  results.Note("ledger_threads_tn", JsonValue(static_cast<double>(tn)));
}

/// The traced run: the workload under three telemetry settings, crawled
/// in rotation until `seconds` have passed, then the ledger.
void RunTraced(const Workload& w, const Args& args, Results& results) {
  const size_t min_rounds = args.tiny ? 1 : 2;
  const auto start = Clock::now();
  std::vector<double> sps[3];
  std::vector<CrawlOutcome> traced;
  std::vector<double> dataset_s;
  std::vector<double> construct_s;
  std::optional<uint64_t> first_digest;
  const Telemetry order[3] = {Telemetry::kOff, Telemetry::kMetrics, Telemetry::kTrace};
  while (sps[0].size() < min_rounds ||
         SecondsBetween(start, Clock::now()) < args.seconds) {
    for (size_t k = 0; k < 3; ++k) {
      CrawlOutcome o = RunCrawl(w, order[k], args.tmp);
      if (!first_digest) first_digest = o.digest;
      // Telemetry is passive: every setting must land the same digest.
      results.Operation(CheckCrawl(results, o, *first_digest));
      sps[k].push_back(static_cast<double>(o.steps) / o.crawl_s);
      construct_s.push_back(o.setup_s);
      if (order[k] == Telemetry::kTrace) {
        const auto a = Clock::now();
        MakeDataset(w.scenario.dataset);
        dataset_s.push_back(SecondsBetween(a, Clock::now()));
        traced.push_back(std::move(o));
      }
    }
  }
  JsonValue by_variant = JsonValue::Object();
  for (size_t k = 0; k < 3; ++k) {
    by_variant.MutableObject()[TelemetryName(order[k])] = JsonValue(Median(sps[k]));
  }
  results.Note("steps_per_s_by_telemetry", std::move(by_variant));
  ReportWorkloadLayers(traced, sps[0], sps[1], sps[2], dataset_s, construct_s,
                       results);
  RunLedger(args, results);
}

JsonValue Stamp(const Args& args) {
  JsonValue stamp = JsonValue::Object();
  auto& s = stamp.MutableObject();
  s["nproc"] = JsonValue(static_cast<double>(std::thread::hardware_concurrency()));
  s["compiler"] = JsonValue(std::string(PERFBENCH_COMPILER));
  s["build_type"] = JsonValue(std::string(PERFBENCH_BUILD_TYPE));
  s["workload"] = JsonValue(args.workload);
  s["seed"] = JsonValue(static_cast<double>(args.seed));
  s["seconds"] = JsonValue(args.seconds);
  s["trace"] = JsonValue(args.trace);
  s["tiny"] = JsonValue(args.tiny);
  return stamp;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && !args.dir.empty() && !args.tmp.empty() &&
         args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --dir BENCH_DIR --tmp SCRATCH_DIR [--tiny]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build; "
                 "configure with CMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    std::filesystem::create_directories(args.tmp);
    const Workload w = LoadWorkload(args, args.workload);
    Results results;
    if (args.trace) {
      RunTraced(w, args, results);
    } else {
      RunEndToEnd(w, args, results);
    }
    std::printf("%s\n", DumpJson(results.ToJson(Stamp(args))).c_str());
    return results.AllPassed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
