#include "src/service/scenario_config.h"

#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>

#include "src/walk/walk_program.h"

namespace mto {
namespace {

/// FNV-1a over a byte-wise view of the values mixed into the fingerprint.
class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Mix(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  void Mix(const std::string& s) {
    for (char c : s) hash_ = (hash_ ^ static_cast<uint8_t>(c)) * 0x100000001B3ULL;
    Mix(static_cast<uint64_t>(s.size()));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void CheckKeys(const JsonValue& obj, const char* where,
               std::initializer_list<const char*> allowed) {
  const std::set<std::string> allowed_set(allowed.begin(), allowed.end());
  for (const auto& key : obj.Keys()) {
    if (allowed_set.count(key) == 0) {
      throw std::invalid_argument(std::string("ScenarioConfig: unknown key \"") +
                                  key + "\" in " + where);
    }
  }
}

Attribute ParseAttribute(const std::string& s) {
  if (s == "degree") return Attribute::kDegree;
  if (s == "description_length") return Attribute::kDescriptionLength;
  if (s == "age") return Attribute::kAge;
  throw std::invalid_argument("ScenarioConfig: unknown attribute \"" + s +
                              "\"");
}

FetchMode ParseFetchMode(const std::string& s) {
  if (s == "sync") return FetchMode::kSync;
  if (s == "async") return FetchMode::kAsync;
  throw std::invalid_argument("ScenarioConfig: unknown fetch_mode \"" + s +
                              "\"");
}

BackendSelection ParseSelection(const std::string& s) {
  if (s == "sharded") return BackendSelection::kSharded;
  if (s == "rendezvous") return BackendSelection::kRendezvous;
  throw std::invalid_argument("ScenarioConfig: unknown routing \"" + s +
                              "\" (expected \"sharded\" or \"rendezvous\")");
}

CriterionBasis ParseCriterionBasis(const std::string& s) {
  if (s == "overlay") return CriterionBasis::kOverlay;
  if (s == "original") return CriterionBasis::kOriginal;
  throw std::invalid_argument("ScenarioConfig: unknown mto.criterion_basis \"" +
                              s + "\"");
}

OverlayDegreeMode ParseWeightMode(const std::string& s) {
  if (s == "overlay_view") return OverlayDegreeMode::kOverlayView;
  if (s == "probe") return OverlayDegreeMode::kProbe;
  if (s == "exact") return OverlayDegreeMode::kExact;
  throw std::invalid_argument("ScenarioConfig: unknown mto.weight_mode \"" + s +
                              "\"");
}

// An "mto" knob stored as uint32_t: a larger value is an error, never a
// silent wrap (the wrapped value would be what runs and what is
// fingerprinted).
uint32_t MtoUint32(const JsonValue& mto, const char* key) {
  const uint64_t value = mto.At(key).AsUint();
  if (value > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument(std::string("ScenarioConfig: mto.") + key +
                                " must be <= 4294967295");
  }
  return static_cast<uint32_t>(value);
}

BackendConfig ParseBackend(const JsonValue& obj, size_t index) {
  CheckKeys(obj, "backends[]",
            {"name", "budget", "rate_per_sec", "burst", "latency_us",
             "latency_sigma", "timeout_rate", "error_rate", "quota_rate",
             "timeout_us"});
  BackendConfig backend;
  backend.name = obj.Has("name") ? obj.At("name").AsString()
                                 : "key-" + std::to_string(index);
  if (obj.Has("budget") && obj.At("budget").AsUint() > 0) {
    backend.budget = obj.At("budget").AsUint();
  }
  if (obj.Has("rate_per_sec")) backend.rate_per_sec = obj.At("rate_per_sec").AsDouble();
  if (obj.Has("burst")) backend.burst = obj.At("burst").AsDouble();
  if (obj.Has("latency_us")) backend.latency_mean_us = obj.At("latency_us").AsUint();
  if (obj.Has("latency_sigma")) backend.latency_sigma = obj.At("latency_sigma").AsDouble();
  if (obj.Has("timeout_rate")) backend.timeout_rate = obj.At("timeout_rate").AsDouble();
  if (obj.Has("error_rate")) backend.error_rate = obj.At("error_rate").AsDouble();
  if (obj.Has("quota_rate")) backend.quota_rate = obj.At("quota_rate").AsDouble();
  if (obj.Has("timeout_us")) backend.timeout_us = obj.At("timeout_us").AsUint();
  backend.Validate();
  return backend;
}

}  // namespace

const char* AttributeKey(Attribute attribute) {
  switch (attribute) {
    case Attribute::kDegree: return "degree";
    case Attribute::kDescriptionLength: return "description_length";
    case Attribute::kAge: return "age";
  }
  return "?";
}

ScenarioConfig ScenarioConfig::FromJson(const JsonValue& root) {
  CheckKeys(root, "the document",
            {"dataset", "seed", "program", "mto", "attribute",
             "jump_probability", "walkers", "threads", "coalesce_frontier",
             "fetch_mode", "fetch_threads", "pipeline_depth", "geweke",
             "max_burn_in_rounds", "num_samples", "thinning", "total_budget",
             "backends", "routing", "retry", "fault_seed", "checkpoint",
             "observability"});
  ScenarioConfig config;
  if (root.Has("dataset")) config.dataset = root.At("dataset").AsString();
  if (root.Has("seed")) config.seed = root.At("seed").AsUint();
  if (root.Has("program")) {
    const JsonValue& program = root.At("program");
    CheckKeys(program, "program", {"name", "p", "q", "restart"});
    if (!program.Has("name")) {
      throw std::invalid_argument("ScenarioConfig: program.name is required");
    }
    config.program.name = program.At("name").AsString();
    if (FindWalkProgram(config.program.name) == nullptr) {
      throw std::invalid_argument("ScenarioConfig: unknown program \"" +
                                  config.program.name + "\"");
    }
    // Canonical registry name ("rj" -> "random_jump") so fingerprints and
    // metric labels never depend on which alias the document used.
    config.program.name =
        std::string(GetWalkProgram(config.program.name).name());
    // Per-program knobs are rejected for programs that ignore them — a knob
    // that silently does nothing is the same bug class as an unknown key.
    if ((program.Has("p") || program.Has("q")) &&
        config.program.name != "node2vec") {
      throw std::invalid_argument(
          "ScenarioConfig: program.p/q apply only to node2vec");
    }
    if (program.Has("restart") && config.program.name != "pagerank") {
      throw std::invalid_argument(
          "ScenarioConfig: program.restart applies only to pagerank");
    }
    if (program.Has("p")) config.program.p = program.At("p").AsDouble();
    if (program.Has("q")) config.program.q = program.At("q").AsDouble();
    if (program.Has("restart")) {
      config.program.restart = program.At("restart").AsDouble();
    }
  }
  if (root.Has("mto")) {
    const JsonValue& mto = root.At("mto");
    CheckKeys(mto, "mto",
              {"enable_removal", "criterion_basis", "min_overlay_degree",
               "enable_replacement", "use_degree_extension", "lazy",
               "replace_probability", "weight_mode", "degree_probe",
               "max_inner_iterations"});
    config.mto_configured = true;
    if (mto.Has("enable_removal")) {
      config.mto.enable_removal = mto.At("enable_removal").AsBool();
    }
    if (mto.Has("criterion_basis")) {
      config.mto.criterion_basis =
          ParseCriterionBasis(mto.At("criterion_basis").AsString());
    }
    if (mto.Has("min_overlay_degree")) {
      config.mto.min_overlay_degree = MtoUint32(mto, "min_overlay_degree");
    }
    if (mto.Has("enable_replacement")) {
      config.mto.enable_replacement = mto.At("enable_replacement").AsBool();
    }
    if (mto.Has("use_degree_extension")) {
      config.mto.use_degree_extension =
          mto.At("use_degree_extension").AsBool();
    }
    if (mto.Has("lazy")) config.mto.lazy = mto.At("lazy").AsBool();
    if (mto.Has("replace_probability")) {
      config.mto.replace_probability =
          mto.At("replace_probability").AsDouble();
    }
    if (mto.Has("weight_mode")) {
      config.mto.weight_mode = ParseWeightMode(mto.At("weight_mode").AsString());
    }
    if (mto.Has("degree_probe")) {
      config.mto.degree_probe = MtoUint32(mto, "degree_probe");
    }
    if (mto.Has("max_inner_iterations")) {
      config.mto.max_inner_iterations = MtoUint32(mto, "max_inner_iterations");
    }
  }
  if (root.Has("attribute")) {
    config.attribute = ParseAttribute(root.At("attribute").AsString());
  }
  if (root.Has("jump_probability")) {
    // Same rule as program.p/q/restart: a knob its program never reads
    // would still move the fingerprint and block an honest resume.
    if (config.program.name != "random_jump") {
      throw std::invalid_argument(
          "ScenarioConfig: jump_probability applies only to random_jump");
    }
    config.jump_probability = root.At("jump_probability").AsDouble();
  }
  if (root.Has("walkers")) config.num_walkers = root.At("walkers").AsUint();
  if (root.Has("threads")) config.num_threads = root.At("threads").AsUint();
  if (root.Has("coalesce_frontier")) {
    config.coalesce_frontier = root.At("coalesce_frontier").AsBool();
  }
  if (root.Has("fetch_mode")) {
    config.fetch_mode = ParseFetchMode(root.At("fetch_mode").AsString());
  }
  if (root.Has("fetch_threads")) {
    config.fetch_threads = root.At("fetch_threads").AsUint();
  }
  if (root.Has("pipeline_depth")) {
    config.pipeline_depth = root.At("pipeline_depth").AsUint();
  }
  if (root.Has("geweke")) {
    const JsonValue& geweke = root.At("geweke");
    CheckKeys(geweke, "geweke", {"threshold", "min_length", "check_every"});
    if (geweke.Has("threshold")) {
      config.geweke_threshold = geweke.At("threshold").AsDouble();
    }
    if (geweke.Has("min_length")) {
      config.geweke_min_length = geweke.At("min_length").AsUint();
    }
    if (geweke.Has("check_every")) {
      config.geweke_check_every = geweke.At("check_every").AsUint();
    }
  }
  if (root.Has("max_burn_in_rounds")) {
    config.max_burn_in_rounds = root.At("max_burn_in_rounds").AsUint();
  }
  if (root.Has("num_samples")) {
    config.num_samples = root.At("num_samples").AsUint();
  }
  if (root.Has("thinning")) config.thinning = root.At("thinning").AsUint();
  if (root.Has("total_budget")) {
    config.total_budget = root.At("total_budget").AsUint();
  }
  if (root.Has("backends")) {
    const auto& array = root.At("backends").AsArray();
    for (size_t i = 0; i < array.size(); ++i) {
      config.backends.push_back(ParseBackend(array[i], i));
    }
  }
  if (root.Has("routing")) {
    config.strategy = ParseSelection(root.At("routing").AsString());
  }
  if (root.Has("retry")) {
    const JsonValue& retry = root.At("retry");
    CheckKeys(retry, "retry",
              {"max_attempts_per_backend", "base_backoff_us", "multiplier",
               "max_backoff_us", "jitter"});
    if (retry.Has("max_attempts_per_backend")) {
      config.retry.max_attempts_per_backend =
          retry.At("max_attempts_per_backend").AsUint();
    }
    if (retry.Has("base_backoff_us")) {
      config.retry.base_backoff_us = retry.At("base_backoff_us").AsUint();
    }
    if (retry.Has("multiplier")) {
      config.retry.backoff_multiplier = retry.At("multiplier").AsDouble();
    }
    if (retry.Has("max_backoff_us")) {
      config.retry.max_backoff_us = retry.At("max_backoff_us").AsUint();
    }
    if (retry.Has("jitter")) config.retry.jitter = retry.At("jitter").AsDouble();
  }
  if (root.Has("fault_seed")) config.fault_seed = root.At("fault_seed").AsUint();
  if (root.Has("checkpoint")) {
    const JsonValue& checkpoint = root.At("checkpoint");
    CheckKeys(checkpoint, "checkpoint", {"path", "every_units"});
    if (checkpoint.Has("path")) {
      config.checkpoint.path = checkpoint.At("path").AsString();
    }
    if (checkpoint.Has("every_units")) {
      config.checkpoint.every_units = checkpoint.At("every_units").AsUint();
    }
  }
  if (root.Has("observability")) {
    const JsonValue& obs = root.At("observability");
    CheckKeys(obs, "observability",
              {"metrics", "trace_path", "report_path", "snapshot_every_units",
               "http_port", "allow_quit", "watchdog_stall_ms",
               "watchdog_starved_snapshots"});
    if (obs.Has("metrics")) {
      config.observability.metrics = obs.At("metrics").AsBool();
    }
    if (obs.Has("trace_path")) {
      config.observability.trace_path = obs.At("trace_path").AsString();
    }
    if (obs.Has("report_path")) {
      config.observability.report_path = obs.At("report_path").AsString();
    }
    if (obs.Has("snapshot_every_units")) {
      config.observability.snapshot_every_units =
          obs.At("snapshot_every_units").AsUint();
    }
    if (obs.Has("http_port")) {
      const uint64_t port = obs.At("http_port").AsUint();
      if (port > 65535) {
        throw std::invalid_argument(
            "ScenarioConfig: observability.http_port must be <= 65535");
      }
      config.observability.http_port = static_cast<uint16_t>(port);
    }
    if (obs.Has("allow_quit")) {
      config.observability.allow_quit = obs.At("allow_quit").AsBool();
    }
    if (obs.Has("watchdog_stall_ms")) {
      config.observability.watchdog_stall_ms =
          obs.At("watchdog_stall_ms").AsUint();
    }
    if (obs.Has("watchdog_starved_snapshots")) {
      config.observability.watchdog_starved_snapshots =
          obs.At("watchdog_starved_snapshots").AsUint();
    }
  }
  config.Validate();
  return config;
}

ScenarioConfig ScenarioConfig::FromJsonText(std::string_view text) {
  return FromJson(ParseJson(text));
}

ScenarioConfig ScenarioConfig::FromFile(const std::string& path) {
  return FromJson(ParseJsonFile(path));
}

void ScenarioConfig::Validate() const {
  if (num_walkers == 0) {
    throw std::invalid_argument("ScenarioConfig: walkers must be >= 1");
  }
  if (num_threads == 0) {
    throw std::invalid_argument("ScenarioConfig: threads must be >= 1");
  }
  if (num_samples == 0) {
    throw std::invalid_argument("ScenarioConfig: num_samples must be >= 1");
  }
  if (jump_probability < 0.0 || jump_probability > 1.0) {
    throw std::invalid_argument(
        "ScenarioConfig: jump_probability must be in [0, 1]");
  }
  if (FindWalkProgram(program.name) == nullptr) {
    throw std::invalid_argument("ScenarioConfig: unknown program \"" +
                                program.name + "\"");
  }
  if (!(program.p > 0.0) || !(program.q > 0.0)) {
    throw std::invalid_argument(
        "ScenarioConfig: program.p and program.q must be > 0");
  }
  if (program.restart < 0.0 || program.restart > 1.0) {
    throw std::invalid_argument(
        "ScenarioConfig: program.restart must be in [0, 1]");
  }
  if (mto_configured && program.name != "mto") {
    throw std::invalid_argument(
        "ScenarioConfig: the \"mto\" block requires the mto program");
  }
  if (mto.replace_probability < 0.0 || mto.replace_probability > 1.0) {
    throw std::invalid_argument(
        "ScenarioConfig: mto.replace_probability must be in [0, 1]");
  }
  if (mto_configured && mto.weight_mode == OverlayDegreeMode::kProbe &&
      mto.degree_probe == 0) {
    throw std::invalid_argument(
        "ScenarioConfig: mto.degree_probe must be >= 1 under weight_mode "
        "\"probe\"");
  }
  if (mto.max_inner_iterations == 0) {
    throw std::invalid_argument(
        "ScenarioConfig: mto.max_inner_iterations must be >= 1");
  }
  retry.Validate();
  for (const auto& backend : backends) backend.Validate();
  if (checkpoint.every_units > 0 && checkpoint.path.empty()) {
    throw std::invalid_argument(
        "ScenarioConfig: checkpoint.every_units set without checkpoint.path");
  }
  if (observability.snapshot_every_units > 0 && !observability.metrics) {
    throw std::invalid_argument(
        "ScenarioConfig: observability.snapshot_every_units requires "
        "observability.metrics");
  }
  if (!observability.report_path.empty() && !observability.metrics) {
    throw std::invalid_argument(
        "ScenarioConfig: observability.report_path requires "
        "observability.metrics");
  }
  if (observability.http_port.has_value() && !observability.metrics) {
    throw std::invalid_argument(
        "ScenarioConfig: observability.http_port requires "
        "observability.metrics");
  }
  if (observability.allow_quit && !observability.http_port.has_value()) {
    throw std::invalid_argument(
        "ScenarioConfig: observability.allow_quit requires "
        "observability.http_port");
  }
}

uint64_t ScenarioConfig::Fingerprint() const {
  Fnv fnv;
  fnv.Mix(dataset);
  fnv.Mix(seed);
  fnv.Mix(program.name);
  fnv.Mix(program.p);
  fnv.Mix(program.q);
  fnv.Mix(program.restart);
  // MTO ablation knobs: every one changes the walk's trajectory, so every
  // one invalidates checkpoints. Mixed unconditionally (they sit at their
  // defaults for non-MTO programs).
  fnv.Mix(static_cast<uint64_t>(mto.enable_removal));
  fnv.Mix(static_cast<uint64_t>(mto.criterion_basis));
  fnv.Mix(static_cast<uint64_t>(mto.min_overlay_degree));
  fnv.Mix(static_cast<uint64_t>(mto.enable_replacement));
  fnv.Mix(static_cast<uint64_t>(mto.use_degree_extension));
  fnv.Mix(static_cast<uint64_t>(mto.lazy));
  fnv.Mix(mto.replace_probability);
  fnv.Mix(static_cast<uint64_t>(mto.weight_mode));
  fnv.Mix(static_cast<uint64_t>(mto.degree_probe));
  fnv.Mix(static_cast<uint64_t>(mto.max_inner_iterations));
  fnv.Mix(static_cast<uint64_t>(attribute));
  fnv.Mix(jump_probability);
  fnv.Mix(static_cast<uint64_t>(num_walkers));
  fnv.Mix(geweke_threshold);
  fnv.Mix(static_cast<uint64_t>(geweke_min_length));
  fnv.Mix(static_cast<uint64_t>(geweke_check_every));
  fnv.Mix(static_cast<uint64_t>(max_burn_in_rounds));
  fnv.Mix(static_cast<uint64_t>(num_samples));
  fnv.Mix(static_cast<uint64_t>(thinning));
  fnv.Mix(total_budget);
  fnv.Mix(static_cast<uint64_t>(retry.max_attempts_per_backend));
  fnv.Mix(retry.base_backoff_us);
  fnv.Mix(retry.backoff_multiplier);
  fnv.Mix(retry.max_backoff_us);
  fnv.Mix(retry.jitter);
  fnv.Mix(fault_seed);
  fnv.Mix(static_cast<uint64_t>(backends.size()));
  for (const auto& backend : backends) {
    fnv.Mix(backend.name);
    fnv.Mix(backend.budget.value_or(0));
    fnv.Mix(backend.rate_per_sec);
    fnv.Mix(backend.burst);
    fnv.Mix(backend.latency_mean_us);
    fnv.Mix(backend.latency_sigma);
    fnv.Mix(backend.timeout_rate);
    fnv.Mix(backend.error_rate);
    fnv.Mix(backend.quota_rate);
    fnv.Mix(backend.timeout_us);
  }
  // num_threads, coalesce_frontier, fetch_mode, fetch_threads, and
  // pipeline_depth are deliberately excluded: results are bit-identical
  // across them (the runtime contract), so a checkpoint from a 1-thread
  // sync run may resume on 8 threads with pipelined async fetches, and
  // vice versa. The observability block is excluded for the
  // same reason — telemetry is strictly passive (no RNG draws, no queries,
  // no session-state mutation), so a run may be resumed with observability
  // toggled either way. The routing strategy is
  // excluded too — not because results match across policies (they
  // don't), but because resuming sharded under rendezvous or back is a
  // legitimate live rotation: the ledgers, cache, and walker states are
  // policy-independent facts (neither policy keeps routing state), and the
  // trajectory simply becomes hybrid from the resume point on.
  return fnv.hash();
}

}  // namespace mto
