#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/estimate/estimators.h"
#include "src/experiments/harness.h"
#include "src/mcmc/geweke.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/service/backend_pool.h"
#include "src/service/checkpoint.h"
#include "src/service/scenario_config.h"
#include "src/walk/walk_program.h"

namespace mto {

/// Result of a crawl-service run: samples, estimate trace, and costs of the
/// multi-walker crawl, plus the service layer's fault/failover accounting.
struct ServiceResult {
  std::vector<NodeId> samples;    ///< node ids, round-major in walker order
  std::vector<TracePoint> trace;  ///< running estimate after each sample
  double final_estimate = 0.0;
  bool burn_in_converged = false;
  size_t burn_in_rounds = 0;
  uint64_t burn_in_query_cost = 0;
  size_t total_rounds = 0;
  uint64_t total_steps = 0;
  uint64_t total_query_cost = 0;
  uint64_t backend_requests = 0;   ///< round trips incl. failed attempts
  uint64_t failed_fetches = 0;     ///< fetches permanently refused
  uint64_t simulated_time_us = 0;  ///< max over backend virtual clocks
  std::vector<BackendStats> backend_stats;
};

/// The fault-tolerant crawl driver: wires a ScenarioConfig into a
/// BackendPool (multi-backend session) behind a ConcurrentInterfaceCache
/// and a CrawlScheduler (sharded walkers), and drives burn-in then sampling
/// in resumable units. Estimation runs on the driver thread, in stream
/// order: a GewekeMonitor ends burn-in and one RunningImportanceMean is the
/// estimate behind the result, the mid-run report and the estimate.current
/// gauge.
///
/// `Advance()` performs one unit — a burn-in epoch (geweke_check_every
/// rounds) or one collection round — and every unit boundary is a valid
/// checkpoint point: `SaveCheckpoint` captures the session, backend
/// ledgers, walker positions + RNG states, driver progress, the full
/// estimation-stream prefix, and (for MTO crawls) every walker's overlay
/// delta. A fresh service constructed from the same config can
/// `LoadCheckpoint` and continue; the resumed run's samples, trace,
/// estimate, and per-backend unique-query costs are bit-identical to an
/// uninterrupted run for every sampler, MTO's mutable overlay included
/// (crawl_service_test pins this, including under multi-thread scheduling
/// and injected faults; the one caveat is the runtime's usual one —
/// exhausting a budget mid-crawl voids bit-identity).
class CrawlService {
 public:
  /// Builds the full stack; throws on invalid config or unknown dataset.
  explicit CrawlService(const ScenarioConfig& config);

  CrawlService(const CrawlService&) = delete;
  CrawlService& operator=(const CrawlService&) = delete;

  const ScenarioConfig& config() const { return config_; }
  const SocialNetwork& network() const { return network_; }
  const BackendPool& pool() const { return *pool_; }
  const ConcurrentInterfaceCache& session() const { return *session_; }
  CrawlPhase phase() const { return phase_; }
  size_t rounds() const { return rounds_; }

  /// The resolved walk program driving this run's walkers.
  const WalkProgram& program() const { return *program_; }

  /// The underlying scheduler — walker access between Advance units only
  /// (ablation tests read per-walker overlay state through this).
  CrawlScheduler& scheduler() { return *scheduler_; }

  bool Done() const { return phase_ == CrawlPhase::kDone; }

  /// One resumable unit of progress; returns false once the crawl is done
  /// or Finish() froze the result surface (then it does nothing).
  bool Advance();

  /// Runs to completion, saving a checkpoint every
  /// `config.checkpoint.every_units` units when configured, then finalizes.
  ServiceResult Run();

  /// Freezes the result surface and returns it. Idempotent. Callable
  /// before Done() for partial results; the crawl cannot advance after it.
  ServiceResult Finish();

  /// Saves a checkpoint at the current unit boundary. For MTO crawls the
  /// image includes every walker's overlay delta (checksummed on disk).
  void SaveCheckpoint(const std::string& path);

  /// Restores a checkpoint into this *freshly constructed* service (no
  /// Advance/Load yet), replaying the estimation streams. Throws
  /// std::logic_error when the service already ran, std::runtime_error on
  /// fingerprint mismatch or corrupt files.
  void LoadCheckpoint(const std::string& path);

  /// The run's metrics registry / trace log; null unless the scenario's
  /// observability block enabled them. Telemetry is strictly passive —
  /// results are bit-identical with it on or off (the equivalence suites
  /// pin this) — so these exist purely for reading.
  obs::MetricsRegistry* metrics() { return registry_.get(); }
  obs::TraceLog* trace_log() { return trace_log_.get(); }

  /// Periodic StatsSnapshots taken every snapshot_every_units Advance
  /// units (plus the final one Finish() appends). After a LoadCheckpoint
  /// the cadence restarts from the resume point; counters restart from
  /// zero (telemetry is not checkpoint state — only results are).
  const std::vector<obs::StatsSnapshot>& snapshots() const { return snapshots_; }

  /// The run report as JSON: scenario echo, result surface, run status,
  /// every obs::StatsSnapshot, live-introspection coordinates, and
  /// trace-drop accounting. Always valid — mid-run the result section
  /// carries the current partial values (final_estimate is the running
  /// estimate so far); "status.finished" says which you are reading.
  JsonValue RunReport() const;

  /// The live introspection server's bound port, when the scenario enabled
  /// observability.http_port (resolves port 0 to the ephemeral pick).
  std::optional<uint16_t> http_port() const;

  /// The introspection server / progress watchdog; null unless the
  /// scenario set observability.http_port.
  obs::IntrospectionServer* exporter() { return exporter_.get(); }
  obs::ProgressWatchdog* watchdog() { return watchdog_.get(); }

 private:
  void EndBurnIn();
  void CollectionRound();
  /// Appends one collected sample: feeds the running mean, extends the
  /// result trace, and keeps the record (checkpoint payload).
  void RecordSample(const ServiceCheckpoint::SampleRecord& record);
  /// The running self-normalized mean; nullopt until a positively weighted
  /// sample arrived.
  std::optional<double> RunningEstimate() const;
  /// Captures a obs::StatsSnapshot tagged with the current unit count,
  /// publishing the pool ledgers and estimator-quality telemetry into the
  /// registry first (pull model), then feeds the watchdog, the live
  /// exporter, and the incremental on-disk report.
  void TakeSnapshot();

  ScenarioConfig config_;
  SocialNetwork network_;
  /// Registry singleton for config_.program.name; resolved at
  /// construction, never null afterwards.
  const WalkProgram* program_ = nullptr;

  // Observability (all null/empty when the scenario leaves it off).
  // Declared before the crawl components: the scheduler's pool threads
  // record into these until its destructor joins them, so the registry and
  // trace log must be destroyed last (reverse declaration order).
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::TraceLog> trace_log_;
  // Watchdog before exporter: the exporter's serving thread reads the
  // watchdog, so it must be torn down first (reverse declaration order).
  std::unique_ptr<obs::ProgressWatchdog> watchdog_;
  std::unique_ptr<obs::IntrospectionServer> exporter_;

  std::unique_ptr<BackendPool> pool_;
  std::unique_ptr<ConcurrentInterfaceCache> session_;
  std::unique_ptr<CrawlScheduler> scheduler_;

  CrawlPhase phase_ = CrawlPhase::kBurnIn;
  bool burn_in_converged_ = false;
  size_t rounds_ = 0;
  size_t burn_in_rounds_ = 0;
  uint64_t burn_in_query_cost_ = 0;
  size_t collection_rounds_done_ = 0;
  size_t collection_rounds_target_ = 0;

  // Estimation state and the stream prefix it was fed (checkpoint payload
  // / replay source). The monitor's trace is the diagnostics stream.
  GewekeMonitor monitor_;
  RunningImportanceMean estimate_;
  std::vector<ServiceCheckpoint::SampleRecord> samples_stream_;
  std::vector<double> diag_scratch_;

  bool started_ = false;  ///< any Advance or LoadCheckpoint happened
  bool finished_ = false;
  ServiceResult result_;

  // Observability outputs (registry_/trace_log_ live above the components).
  std::vector<obs::StatsSnapshot> snapshots_;
  uint64_t units_done_ = 0;  ///< Advance units completed (snapshot cadence)
  /// Checkpoint I/O telemetry, resolved once at construction.
  obs::Histogram* ckpt_save_us_ = nullptr;
  obs::Histogram* ckpt_save_bytes_ = nullptr;
  obs::Histogram* ckpt_load_us_ = nullptr;
  obs::Histogram* ckpt_load_bytes_ = nullptr;
};

}  // namespace mto
