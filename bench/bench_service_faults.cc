// Crawl-service fault economics: failure rate x backend count x retry
// policy over the multi-backend session (src/service/BackendPool), driven
// by the concurrent scheduler.
//
// Two tables:
//  * Failover strategies: how each backend-selection strategy (sharded,
//    rendezvous) spreads a fixed-fault crawl across 1..8 keys (load
//    balance, retries, simulated time).
//  * Fault rate x retry budget: how many round trips and how much simulated
//    time a unique query costs as faults climb and the retry policy deepens
//    — and when fetches start failing permanently.
//
// Simulated time comes from the pool's per-backend virtual clocks; nothing
// sleeps, so the sweep runs at full CPU speed. Both routing policies are
// pure functions of the node, so every field but wall_ms repeats exactly
// run to run. --json=PATH dumps every row for CI artifact tracking;
// --fault-seed=N reseeds the fault/latency draws (for seed sweeps).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/graph/datasets.h"
#include "src/obs/metrics.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/service/backend_pool.h"
#include "src/util/table.h"
#include "src/walk/srw.h"

namespace {

using namespace mto;

constexpr uint64_t kSeed = 0x5EED5;
constexpr uint64_t kDefaultFaultSeed = 0xFA17;

struct Row {
  std::string section;
  std::string strategy;
  size_t backends = 0;
  double fault_rate = 0.0;
  size_t retry_attempts = 0;
  uint64_t unique_queries = 0;
  uint64_t requests = 0;
  uint64_t failed_requests = 0;
  uint64_t failed_fetches = 0;
  uint64_t min_unique = 0;  ///< least-loaded backend's unique queries
  uint64_t max_unique = 0;  ///< most-loaded backend's unique queries
  double simulated_ms = 0.0;
  double wall_ms = 0.0;
};

Row RunCrawl(const SocialNetwork& net, const std::string& section,
             BackendSelection strategy, size_t num_backends,
             double fault_rate, size_t retry_attempts, size_t walkers,
             size_t rounds, uint64_t fault_seed) {
  std::vector<BackendConfig> backends(num_backends);
  for (auto& backend : backends) {
    // Split the failure mass across the three fault kinds.
    backend.timeout_rate = fault_rate * 0.25;
    backend.error_rate = fault_rate * 0.5;
    backend.quota_rate = fault_rate * 0.25;
    backend.timeout_us = 20'000;
    backend.latency_mean_us = 200;
    backend.latency_sigma = 0.3;
  }
  RetryPolicy retry;
  retry.max_attempts_per_backend = retry_attempts;
  BackendPool pool(net, backends, retry, strategy, fault_seed);
  ConcurrentInterfaceCache session(pool);
  CrawlConfig config;
  config.num_walkers = walkers;
  config.num_threads = 4;
  CrawlScheduler scheduler(session, config, kSeed,
                           [&](RestrictedInterface& iface, Rng& rng, size_t i) {
                             return std::make_unique<SimpleRandomWalk>(
                                 iface, rng,
                                 static_cast<NodeId>(i % iface.num_users()));
                           });
  const auto start = std::chrono::steady_clock::now();
  scheduler.RunRounds(rounds);
  const auto end = std::chrono::steady_clock::now();

  Row row;
  row.section = section;
  row.strategy = BackendSelectionName(strategy);
  row.backends = num_backends;
  row.fault_rate = fault_rate;
  row.retry_attempts = retry_attempts;
  // Per-backend accounting through the metrics registry: the pool pulls
  // its ledgers into labeled gauges and the bench reads them back by name,
  // the same surface a monitoring scrape would use.
  obs::MetricsRegistry registry;
  pool.PublishMetrics(registry);
  const auto gauge = [&](const char* name, const std::string& backend) {
    return static_cast<uint64_t>(registry.GaugeValue(
        obs::MetricsRegistry::LabeledName(name, "backend", backend)));
  };
  row.unique_queries = session.QueryCost();
  row.requests =
      static_cast<uint64_t>(registry.GaugeValue("pool.backend_requests"));
  row.failed_fetches =
      static_cast<uint64_t>(registry.GaugeValue("pool.failed_fetches"));
  row.min_unique = UINT64_MAX;
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    const std::string& name = pool.backend_config(b).name;
    row.failed_requests += gauge("backend.failed_requests", name);
    const uint64_t unique = gauge("backend.unique_queries", name);
    row.min_unique = std::min(row.min_unique, unique);
    row.max_unique = std::max(row.max_unique, unique);
  }
  row.simulated_ms =
      static_cast<double>(registry.GaugeValue("pool.simulated_us")) / 1000.0;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return row;
}

void PrintRows(const std::string& title, const std::vector<Row>& rows) {
  PrintBanner(std::cout, title);
  Table table({"strategy", "backends", "fault", "retries", "unique",
               "requests", "failed", "refused", "min/max unique", "sim ms",
               "wall ms"});
  for (const Row& r : rows) {
    table.AddRow({r.strategy, std::to_string(r.backends),
                  Table::Num(r.fault_rate, 2),
                  std::to_string(r.retry_attempts),
                  std::to_string(r.unique_queries),
                  std::to_string(r.requests),
                  std::to_string(r.failed_requests),
                  std::to_string(r.failed_fetches),
                  std::to_string(r.min_unique) + "/" +
                      std::to_string(r.max_unique),
                  Table::Num(r.simulated_ms, 1), Table::Num(r.wall_ms, 1)});
  }
  table.PrintText(std::cout);
  std::cout << "\n";
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"section\": \"" << r.section << "\", \"strategy\": \""
        << r.strategy << "\", \"backends\": " << r.backends
        << ", \"fault_rate\": " << r.fault_rate
        << ", \"retry_attempts\": " << r.retry_attempts
        << ", \"unique_queries\": " << r.unique_queries
        << ", \"requests\": " << r.requests
        << ", \"failed_requests\": " << r.failed_requests
        << ", \"failed_fetches\": " << r.failed_fetches
        << ", \"min_unique\": " << r.min_unique
        << ", \"max_unique\": " << r.max_unique
        << ", \"simulated_ms\": " << r.simulated_ms
        << ", \"wall_ms\": " << r.wall_ms << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "wrote " << rows.size() << " rows to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (mto::bench::SmokeOrHelpExit(
          argc, argv, "bench_service_faults",
          "[--dataset=NAME] [--walkers=N] [--rounds=N] [--fault-seed=N] "
          "[--json=PATH]")) {
    return 0;
  }
  std::string dataset = "epinions_small";
  size_t walkers = 32;
  size_t rounds = 300;
  uint64_t fault_seed = kDefaultFaultSeed;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dataset=", 10) == 0) dataset = argv[i] + 10;
    if (std::strncmp(argv[i], "--walkers=", 10) == 0) {
      walkers = static_cast<size_t>(std::atoll(argv[i] + 10));
    }
    if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = static_cast<size_t>(std::atoll(argv[i] + 9));
    }
    if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      fault_seed = std::stoull(argv[i] + 13, nullptr, 0);
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  SocialNetwork net(MakeDataset(dataset));
  std::cout << "dataset " << dataset << ": " << net.num_users() << " users, "
            << net.graph().num_edges() << " edges, " << walkers
            << " walkers x " << rounds << " rounds, fault seed " << fault_seed
            << "\n\n";
  std::vector<Row> all;

  // --- Failover strategies at a fixed 10% fault rate. ---
  std::vector<Row> strategy_rows;
  for (BackendSelection strategy :
       {BackendSelection::kSharded, BackendSelection::kRendezvous}) {
    for (size_t backends : {1u, 2u, 4u, 8u}) {
      strategy_rows.push_back(RunCrawl(net, "strategies", strategy, backends,
                                       0.10, 3, walkers, rounds, fault_seed));
    }
  }
  PrintRows("Failover strategies (fault rate 0.10, 3 attempts/backend)",
            strategy_rows);

  // --- Fault rate x retry budget on 4 sharded backends. ---
  std::vector<Row> fault_rows;
  for (double fault : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    for (size_t attempts : {1u, 2u, 4u, 8u}) {
      fault_rows.push_back(RunCrawl(net, "fault-x-retry",
                                    BackendSelection::kSharded, 4, fault,
                                    attempts, walkers, rounds, fault_seed));
    }
  }
  PrintRows("Fault rate x retry budget (4 backends, sharded)", fault_rows);

  all.insert(all.end(), strategy_rows.begin(), strategy_rows.end());
  all.insert(all.end(), fault_rows.begin(), fault_rows.end());
  if (!json_path.empty()) WriteJson(json_path, all);
  return 0;
}
