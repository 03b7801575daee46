#include "src/service/crawl_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "src/graph/datasets.h"
#include "src/obs/convergence.h"

namespace mto {
namespace {

/// Profile seed is a function of nothing but this constant so ground truth
/// depends only on the dataset, not on the crawl seed.
constexpr uint64_t kProfileSeed = 0x50C1A1;

}  // namespace

CrawlService::CrawlService(const ScenarioConfig& config)
    : config_(config),
      network_(SocialNetwork::WithSyntheticProfiles(
          MakeDataset(config.dataset), kProfileSeed)),
      monitor_(config.geweke_threshold, config.geweke_min_length,
               config.geweke_check_every) {
  config_.Validate();
  program_ = &GetWalkProgram(config_.program.name);

  std::vector<BackendConfig> backends = config_.backends;
  if (backends.empty()) backends.push_back(BackendConfig{});  // perfect key
  pool_ = std::make_unique<BackendPool>(network_, std::move(backends),
                                        config_.retry, config_.strategy,
                                        config_.fault_seed);
  if (config_.total_budget > 0) pool_->SetBudget(config_.total_budget);
  session_ = std::make_unique<ConcurrentInterfaceCache>(*pool_);

  CrawlConfig crawl;
  crawl.num_walkers = config_.num_walkers;
  crawl.num_threads = config_.num_threads;
  crawl.coalesce_frontier = config_.coalesce_frontier;
  crawl.fetch_mode = config_.fetch_mode;
  // Auto-size the lanes to the backend fleet: one lane per backend is
  // exactly the overlap the pool's sharded ledgers admit.
  crawl.fetch_threads = config_.fetch_threads != 0 ? config_.fetch_threads
                                                   : pool_->num_backends();
  crawl.pipeline_depth = config_.pipeline_depth;
  crawl.program_label = config_.program.name;
  scheduler_ = std::make_unique<CrawlScheduler>(
      *session_, crawl, config_.seed,
      [this](RestrictedInterface& iface, Rng& rng, size_t) {
        // Walker i's start is the first draw of its own (seed, i) stream:
        // a function of (seed, i) only, like everything downstream.
        const NodeId start =
            static_cast<NodeId>(rng.UniformInt(network_.num_users()));
        WalkProgramParams params;
        params.jump_probability = config_.jump_probability;
        params.p = config_.program.p;
        params.q = config_.program.q;
        params.restart = config_.program.restart;
        params.mto = config_.mto;
        return program_->MakeWalker(iface, rng, start, params);
      });

  collection_rounds_target_ =
      (config_.num_samples + config_.num_walkers - 1) / config_.num_walkers;

  // Observability: the service owns the registry and trace log; every layer
  // below holds raw pointers into them (null = off). Attaching is strictly
  // passive — wall-clock reads and atomic telemetry writes only — so the
  // crawl's results are bit-identical with or without this block.
  if (config_.observability.metrics) {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    ckpt_save_us_ = registry_->GetHistogram("checkpoint.save_us");
    ckpt_save_bytes_ = registry_->GetHistogram("checkpoint.save_bytes");
    ckpt_load_us_ = registry_->GetHistogram("checkpoint.load_us");
    ckpt_load_bytes_ = registry_->GetHistogram("checkpoint.load_bytes");
  }
  if (!config_.observability.trace_path.empty()) {
    trace_log_ = std::make_unique<obs::TraceLog>();
  }
  if (registry_ != nullptr || trace_log_ != nullptr) {
    scheduler_->SetObservability(registry_.get(), trace_log_.get());
  }
  if (config_.observability.http_port.has_value()) {
    obs::ProgressWatchdog::Options wd;
    wd.stall_timeout_ms = config_.observability.watchdog_stall_ms;
    wd.starved_snapshots = config_.observability.watchdog_starved_snapshots;
    watchdog_ = std::make_unique<obs::ProgressWatchdog>(wd);
    obs::IntrospectionServer::Options server;
    server.port = *config_.observability.http_port;
    server.allow_quit = config_.observability.allow_quit;
    exporter_ =
        std::make_unique<obs::IntrospectionServer>(server, watchdog_.get());
    // Seed the endpoints before the first unit so an early scrape sees a
    // coherent (if empty) image rather than a 404 or garbage.
    exporter_->Publish(registry_->Snapshot(0), DumpJson(RunReport(), 2));
  }
}

void CrawlService::EndBurnIn() {
  burn_in_rounds_ = rounds_;
  burn_in_query_cost_ = session_->QueryCost();
  // MTO chains sample from a frozen overlay (harness default). The "mto"
  // scenario block exposes the rewiring ablations; freezing stays fixed —
  // it is what makes the sampling chain's importance weights consistent.
  for (size_t i = 0; i < scheduler_->size(); ++i) {
    if (auto* mto = dynamic_cast<MtoSampler*>(&scheduler_->walker(i))) {
      mto->FreezeTopology();
    }
  }
  phase_ = CrawlPhase::kSampling;
}

void CrawlService::CollectionRound() {
  const size_t W = config_.num_walkers;
  if (collection_rounds_done_ > 0) {
    scheduler_->RunRounds(config_.thinning);
    rounds_ += config_.thinning;
  }
  for (size_t i = 0; i < W; ++i) {
    Sampler& walker = scheduler_->walker(i);
    ServiceCheckpoint::SampleRecord record;
    record.node = walker.current();
    record.value = AttributeValue(walker, config_.attribute);
    record.weight = walker.ImportanceWeight();
    record.query_cost = session_->QueryCost();
    RecordSample(record);
  }
  ++collection_rounds_done_;
  if (collection_rounds_done_ >= collection_rounds_target_) {
    phase_ = CrawlPhase::kDone;
  }
}

void CrawlService::RecordSample(
    const ServiceCheckpoint::SampleRecord& record) {
  if (record.weight > 0.0) estimate_.Add(record.value, record.weight);
  if (estimate_.Valid()) {
    result_.trace.push_back({record.query_cost, estimate_.Estimate()});
  }
  samples_stream_.push_back(record);
}

std::optional<double> CrawlService::RunningEstimate() const {
  if (!estimate_.Valid()) return std::nullopt;
  return estimate_.Estimate();
}

void CrawlService::TakeSnapshot() {
  if (registry_ == nullptr) return;
  // Pull model: the pool's ledgers become labeled gauges and the cache's
  // hit split is derived only now, at a quiescent unit boundary — the
  // fetch and hit paths never touch the registry.
  pool_->PublishMetrics(*registry_);
  session_->PublishMetrics();
  // Estimator-quality bridge (src/obs/convergence): pure functions of the
  // already-kept estimation streams and the running estimate, published as
  // double gauges.
  {
    std::vector<double> values;
    std::vector<double> weights;
    values.reserve(samples_stream_.size());
    weights.reserve(samples_stream_.size());
    for (const auto& record : samples_stream_) {
      values.push_back(record.value);
      weights.push_back(record.weight);
    }
    obs::PublishEstimateTelemetry(
        *registry_,
        obs::ComputeEstimateTelemetry(monitor_.trace(), values, weights,
                                      RunningEstimate()));
  }
  snapshots_.push_back(registry_->Snapshot(units_done_));
  if (watchdog_ != nullptr) watchdog_->ObserveSnapshot(snapshots_.back());
  // Live surfaces: the exporter's published image and the incremental
  // last-known-good report on disk (atomic tmp+rename, so a kill mid-run
  // always leaves a parseable report behind).
  if (exporter_ != nullptr || !config_.observability.report_path.empty()) {
    const JsonValue report = RunReport();
    if (exporter_ != nullptr) {
      exporter_->Publish(snapshots_.back(), DumpJson(report, 2));
    }
    if (!config_.observability.report_path.empty()) {
      WriteJsonFile(config_.observability.report_path, report);
    }
  }
}

bool CrawlService::Advance() {
  if (phase_ == CrawlPhase::kDone || finished_) return false;
  started_ = true;
  if (phase_ == CrawlPhase::kBurnIn) {
    obs::TraceSpan span(trace_log_.get(), "unit.burn_in", units_done_ + 1);
    const size_t epoch = std::max<size_t>(1, config_.geweke_check_every);
    const size_t chunk =
        std::min(epoch, config_.max_burn_in_rounds - rounds_);
    if (chunk > 0 && !burn_in_converged_) {
      diag_scratch_.clear();
      scheduler_->RunRounds(chunk, &diag_scratch_);
      rounds_ += chunk;
      // The monitor checks after every value, so the epoch-boundary
      // verdict ("converged at any check so far") is a pure function of
      // the diagnostic stream, however it was split into epochs.
      burn_in_converged_ = monitor_.AddAll(diag_scratch_);
    }
    if (burn_in_converged_ || rounds_ >= config_.max_burn_in_rounds) {
      EndBurnIn();
    }
  } else {
    obs::TraceSpan span(trace_log_.get(), "unit.collect", units_done_ + 1);
    CollectionRound();
  }
  ++units_done_;
  if (watchdog_ != nullptr) watchdog_->NoteUnitComplete();
  if (config_.observability.snapshot_every_units > 0 &&
      units_done_ % config_.observability.snapshot_every_units == 0) {
    TakeSnapshot();
  }
  return true;
}

ServiceResult CrawlService::Run() {
  size_t units = 0;
  while (Advance()) {
    ++units;
    if (config_.checkpoint.every_units > 0 &&
        units % config_.checkpoint.every_units == 0 && !Done()) {
      SaveCheckpoint(config_.checkpoint.path);
    }
    // Graceful stop: /quitquitquit only flips a flag on the serving
    // thread; the driver honors it here, at a unit boundary, where a
    // checkpoint is valid — so a resumed run continues bit-identically.
    if (exporter_ != nullptr && exporter_->QuitRequested() && !Done()) {
      if (!config_.checkpoint.path.empty()) {
        SaveCheckpoint(config_.checkpoint.path);
      }
      break;
    }
  }
  return Finish();
}

ServiceResult CrawlService::Finish() {
  if (!finished_) {
    result_.samples.reserve(samples_stream_.size());
    for (const auto& record : samples_stream_) {
      result_.samples.push_back(record.node);
    }
    result_.final_estimate = RunningEstimate().value_or(0.0);
    result_.burn_in_converged = burn_in_converged_;
    result_.burn_in_rounds = burn_in_rounds_;
    result_.burn_in_query_cost = burn_in_query_cost_;
    result_.total_rounds = rounds_;
    result_.total_steps = scheduler_->total_steps();
    result_.total_query_cost = session_->QueryCost();
    result_.backend_requests = session_->BackendRequests();
    result_.failed_fetches = pool_->FailedFetches();
    result_.simulated_time_us = pool_->SimulatedTimeUs();
    result_.backend_stats = pool_->AllBackendStats();
    finished_ = true;
    // Telemetry epilogue: one final snapshot — which also publishes the
    // final report to the exporter and (atomically) to disk — then the
    // trace file. Writing happens after the result surface is frozen, so
    // a report failure cannot corrupt a crawl that already succeeded.
    if (watchdog_ != nullptr) watchdog_->NoteDone();
    TakeSnapshot();
    if (trace_log_ != nullptr && !config_.observability.trace_path.empty()) {
      trace_log_->WriteChromeTrace(config_.observability.trace_path);
    }
  }
  return result_;
}

JsonValue CrawlService::RunReport() const {
  JsonValue report = JsonValue::Object();
  auto& root = report.MutableObject();

  JsonValue scenario = JsonValue::Object();
  auto& sc = scenario.MutableObject();
  sc["dataset"] = JsonValue(config_.dataset);
  sc["program"] = JsonValue(config_.program.name);
  sc["attribute"] = JsonValue(std::string(AttributeKey(config_.attribute)));
  sc["seed"] = JsonValue(static_cast<double>(config_.seed));
  sc["walkers"] = JsonValue(static_cast<double>(config_.num_walkers));
  sc["threads"] = JsonValue(static_cast<double>(config_.num_threads));
  sc["routing"] =
      JsonValue(std::string(BackendSelectionName(config_.strategy)));
  sc["backends"] = JsonValue(static_cast<double>(
      config_.backends.empty() ? 1 : config_.backends.size()));
  sc["fingerprint"] = JsonValue(static_cast<double>(config_.Fingerprint()));
  root["scenario"] = std::move(scenario);

  // The result section is always present. Once Finish() froze the result
  // surface it echoes that; mid-run (the incremental report behind
  // /report and report_path) it carries the current partial values, with
  // the running self-normalized mean as the estimate so far.
  JsonValue result = JsonValue::Object();
  auto& res = result.MutableObject();
  if (finished_) {
    res["final_estimate"] = JsonValue(result_.final_estimate);
    res["burn_in_converged"] = JsonValue(result_.burn_in_converged);
    res["burn_in_rounds"] =
        JsonValue(static_cast<double>(result_.burn_in_rounds));
    res["total_rounds"] =
        JsonValue(static_cast<double>(result_.total_rounds));
    res["total_steps"] = JsonValue(static_cast<double>(result_.total_steps));
    res["num_samples"] =
        JsonValue(static_cast<double>(result_.samples.size()));
    res["total_query_cost"] =
        JsonValue(static_cast<double>(result_.total_query_cost));
    res["backend_requests"] =
        JsonValue(static_cast<double>(result_.backend_requests));
    res["failed_fetches"] =
        JsonValue(static_cast<double>(result_.failed_fetches));
    res["simulated_time_us"] =
        JsonValue(static_cast<double>(result_.simulated_time_us));
  } else {
    res["final_estimate"] = JsonValue(RunningEstimate().value_or(0.0));
    res["burn_in_converged"] = JsonValue(burn_in_converged_);
    res["burn_in_rounds"] =
        JsonValue(static_cast<double>(burn_in_rounds_));
    res["total_rounds"] = JsonValue(static_cast<double>(rounds_));
    res["total_steps"] =
        JsonValue(static_cast<double>(scheduler_->total_steps()));
    res["num_samples"] =
        JsonValue(static_cast<double>(samples_stream_.size()));
    res["total_query_cost"] =
        JsonValue(static_cast<double>(session_->QueryCost()));
    res["backend_requests"] =
        JsonValue(static_cast<double>(session_->BackendRequests()));
    res["failed_fetches"] =
        JsonValue(static_cast<double>(pool_->FailedFetches()));
    res["simulated_time_us"] =
        JsonValue(static_cast<double>(pool_->SimulatedTimeUs()));
  }
  root["result"] = std::move(result);

  JsonValue status = JsonValue::Object();
  auto& st = status.MutableObject();
  st["phase"] = JsonValue(std::string(
      phase_ == CrawlPhase::kBurnIn
          ? "burn_in"
          : phase_ == CrawlPhase::kSampling ? "sampling" : "done"));
  st["finished"] = JsonValue(finished_);
  st["units"] = JsonValue(static_cast<double>(units_done_));
  root["status"] = std::move(status);

  // Live-introspection coordinates: how to reach this run while it runs.
  // CI's scrape step discovers the ephemeral port from here.
  JsonValue live = JsonValue::Object();
  auto& lv = live.MutableObject();
  lv["enabled"] = JsonValue(exporter_ != nullptr);
  if (exporter_ != nullptr) {
    lv["http_port"] = JsonValue(static_cast<double>(exporter_->port()));
  }
  root["live"] = std::move(live);

  JsonValue snaps = JsonValue::Array();
  for (const obs::StatsSnapshot& snapshot : snapshots_) {
    snaps.MutableArray().push_back(snapshot.ToJson());
  }
  root["snapshots"] = std::move(snaps);

  JsonValue trace = JsonValue::Object();
  auto& tr = trace.MutableObject();
  tr["enabled"] = JsonValue(trace_log_ != nullptr);
  tr["dropped_events"] = JsonValue(static_cast<double>(
      trace_log_ != nullptr ? trace_log_->DroppedEvents() : 0));
  root["trace"] = std::move(trace);

  return report;
}

std::optional<uint16_t> CrawlService::http_port() const {
  if (exporter_ == nullptr) return std::nullopt;
  return exporter_->port();
}

void CrawlService::SaveCheckpoint(const std::string& path) {
  // checkpoint.save_us times the whole save: the snapshots (session,
  // walkers, overlay deltas) as well as the serialization and write.
  const auto start = std::chrono::steady_clock::now();
  ServiceCheckpoint ckpt;
  ckpt.config_fingerprint = config_.Fingerprint();
  ckpt.session = session_->SnapshotSession();
  const BackendPool::PoolSnapshot backends = pool_->SnapshotBackends();
  ckpt.ledgers = backends.ledgers;
  ckpt.failed_fetches = backends.failed_fetches;
  ckpt.walkers = scheduler_->SnapshotWalkers();
  ckpt.total_steps = scheduler_->total_steps();
  ckpt.phase = phase_;
  ckpt.rounds = rounds_;
  ckpt.collection_rounds_done = collection_rounds_done_;
  ckpt.burn_in_converged = burn_in_converged_ ? 1 : 0;
  ckpt.burn_in_rounds = burn_in_rounds_;
  ckpt.burn_in_query_cost = burn_in_query_cost_;
  ckpt.diagnostics = monitor_.trace();
  ckpt.samples = samples_stream_;
  // Overlay-carrying walkers (MTO) additionally snapshot their delta per
  // walker (walker order). The rewiring RNG is the walker RNG, already
  // captured in WalkerState.
  if (program_->uses_overlay()) {
    ckpt.overlays.reserve(scheduler_->size());
    for (size_t i = 0; i < scheduler_->size(); ++i) {
      auto& walker = dynamic_cast<MtoSampler&>(scheduler_->walker(i));
      ckpt.overlays.push_back({walker.SnapshotOverlay(),
                               walker.frozen() ? uint8_t{1} : uint8_t{0}});
    }
  }
  // Second-order programs carry a (prev, cur) register per walker; the
  // snapshot already captured it in WalkerState, serialize it in the v3
  // section (one record per walker, walker order).
  if (program_->frontier_shape() == FrontierShape::kSecondOrder) {
    ckpt.second_order.reserve(ckpt.walkers.size());
    for (const auto& walker : ckpt.walkers) {
      ckpt.second_order.push_back(
          {walker.previous.has_value() ? uint8_t{1} : uint8_t{0},
           walker.previous.value_or(0)});
    }
  }
  {
    obs::TraceSpan span(trace_log_.get(), "checkpoint.save");
    ckpt.Save(path);
  }
  ObsRecord(ckpt_save_us_,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
  if (ckpt_save_bytes_ != nullptr) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    if (!ec) ckpt_save_bytes_->Record(static_cast<uint64_t>(bytes));
  }
}

void CrawlService::LoadCheckpoint(const std::string& path) {
  if (started_ || finished_) {
    throw std::logic_error(
        "LoadCheckpoint: restore requires a freshly constructed service");
  }
  const auto load_start = std::chrono::steady_clock::now();
  const ServiceCheckpoint ckpt = ServiceCheckpoint::Load(path);
  ObsRecord(ckpt_load_us_,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - load_start)
                    .count()));
  if (ckpt_load_bytes_ != nullptr) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    if (!ec) ckpt_load_bytes_->Record(static_cast<uint64_t>(bytes));
  }
  if (ckpt.config_fingerprint != config_.Fingerprint()) {
    throw std::runtime_error(
        "LoadCheckpoint: checkpoint was written by a different scenario");
  }
  session_->RestoreSession(ckpt.session);
  pool_->RestoreBackends({ckpt.ledgers, ckpt.failed_fetches});

  // Second-order programs require their register section — a checkpoint
  // without it would silently restart every walker's (prev, cur) frontier
  // mid-edge, so its absence (or a count mismatch) is a hard error, and a
  // one-node program rejects a populated section symmetrically.
  std::vector<CrawlScheduler::WalkerState> walker_states = ckpt.walkers;
  if (program_->frontier_shape() == FrontierShape::kSecondOrder) {
    if (ckpt.second_order.size() != walker_states.size()) {
      throw std::runtime_error(
          "LoadCheckpoint: second-order record count does not match walkers");
    }
    for (size_t i = 0; i < walker_states.size(); ++i) {
      if (ckpt.second_order[i].has_prev != 0) {
        walker_states[i].previous = ckpt.second_order[i].prev;
      }
    }
  } else if (!ckpt.second_order.empty()) {
    throw std::runtime_error(
        "LoadCheckpoint: checkpoint carries second-order state for a "
        "one-node program");
  }
  scheduler_->RestoreWalkers(walker_states, ckpt.total_steps);

  // MTO overlays: rebuild each walker's overlay from its delta. Responses
  // come from network ground truth — every registered node was once
  // successfully queried, so its cached response equals the network's
  // neighbor list — which keeps the restore free of interface traffic.
  if (program_->uses_overlay()) {
    if (ckpt.overlays.size() != scheduler_->size()) {
      throw std::runtime_error(
          "LoadCheckpoint: overlay record count does not match walkers");
    }
    const Graph& graph = network_.graph();
    const auto neighbors = [&graph](NodeId v) -> std::span<const NodeId> {
      if (v >= graph.num_nodes()) {
        throw std::runtime_error(
            "LoadCheckpoint: overlay references an unknown node");
      }
      return graph.Neighbors(v);
    };
    for (size_t i = 0; i < scheduler_->size(); ++i) {
      auto& walker = dynamic_cast<MtoSampler&>(scheduler_->walker(i));
      walker.RestoreOverlay(ckpt.overlays[i].delta, neighbors,
                            ckpt.overlays[i].frozen != 0);
    }
  } else if (!ckpt.overlays.empty()) {
    throw std::runtime_error(
        "LoadCheckpoint: checkpoint carries overlays for a non-overlay "
        "program");
  }

  // Replay the estimation streams: the monitor's and the running mean's
  // state after n items is a pure function of the stream prefix, so the
  // resumed service reaches the exact state of the interrupted one (the
  // same Geweke check schedule, estimate and trace).
  monitor_.AddAll(ckpt.diagnostics);
  samples_stream_.reserve(ckpt.samples.size());
  for (const auto& record : ckpt.samples) RecordSample(record);

  phase_ = ckpt.phase;
  rounds_ = static_cast<size_t>(ckpt.rounds);
  collection_rounds_done_ = static_cast<size_t>(ckpt.collection_rounds_done);
  burn_in_converged_ = ckpt.burn_in_converged != 0;
  burn_in_rounds_ = static_cast<size_t>(ckpt.burn_in_rounds);
  burn_in_query_cost_ = ckpt.burn_in_query_cost;
  started_ = true;
}

}  // namespace mto
