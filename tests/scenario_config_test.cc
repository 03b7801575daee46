#include "src/service/scenario_config.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace mto {
namespace {

constexpr const char* kFullDocument = R"({
  "dataset": "epinions_small",
  "seed": 42,
  "program": {"name": "mhrw"},
  "attribute": "description_length",
  "walkers": 16,
  "threads": 4,
  "coalesce_frontier": true,
  "geweke": {"threshold": 0.2, "min_length": 100, "check_every": 25},
  "max_burn_in_rounds": 500,
  "num_samples": 64,
  "thinning": 10,
  "total_budget": 9000,
  "routing": "rendezvous",
  "fault_seed": 1337,
  "retry": {"max_attempts_per_backend": 5, "base_backoff_us": 2000,
            "multiplier": 1.5, "max_backoff_us": 50000, "jitter": 0.25},
  "backends": [
    {"name": "us-east", "budget": 5000, "rate_per_sec": 50,
     "burst": 10, "latency_us": 200, "latency_sigma": 0.3,
     "timeout_rate": 0.02, "error_rate": 0.05, "quota_rate": 0.01,
     "timeout_us": 40000},
    {"name": "eu-west", "latency_us": 350}
  ],
  "checkpoint": {"path": "crawl.ckpt", "every_units": 4}
})";

TEST(ScenarioConfigTest, ParsesFullDocument) {
  const ScenarioConfig config = ScenarioConfig::FromJsonText(kFullDocument);
  EXPECT_EQ(config.dataset, "epinions_small");
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.program.name, "mhrw");
  EXPECT_EQ(config.attribute, Attribute::kDescriptionLength);
  EXPECT_EQ(config.num_walkers, 16u);
  EXPECT_EQ(config.num_threads, 4u);
  EXPECT_TRUE(config.coalesce_frontier);
  EXPECT_DOUBLE_EQ(config.geweke_threshold, 0.2);
  EXPECT_EQ(config.geweke_check_every, 25u);
  EXPECT_EQ(config.max_burn_in_rounds, 500u);
  EXPECT_EQ(config.num_samples, 64u);
  EXPECT_EQ(config.total_budget, 9000u);
  EXPECT_EQ(config.strategy, BackendSelection::kRendezvous);
  EXPECT_EQ(config.fault_seed, 1337u);
  EXPECT_EQ(config.retry.max_attempts_per_backend, 5u);
  EXPECT_DOUBLE_EQ(config.retry.jitter, 0.25);
  ASSERT_EQ(config.backends.size(), 2u);
  EXPECT_EQ(config.backends[0].name, "us-east");
  ASSERT_TRUE(config.backends[0].budget.has_value());
  EXPECT_EQ(*config.backends[0].budget, 5000u);
  EXPECT_EQ(config.backends[0].latency_mean_us, 200u);
  EXPECT_EQ(config.backends[1].name, "eu-west");
  EXPECT_FALSE(config.backends[1].budget.has_value());
  EXPECT_EQ(config.checkpoint.path, "crawl.ckpt");
  EXPECT_EQ(config.checkpoint.every_units, 4u);
}

TEST(ScenarioConfigTest, EmptyDocumentYieldsDefaults) {
  const ScenarioConfig config = ScenarioConfig::FromJsonText("{}");
  EXPECT_EQ(config.program.name, "srw");
  EXPECT_EQ(config.num_walkers, 8u);
  EXPECT_TRUE(config.backends.empty());
  EXPECT_EQ(config.strategy, BackendSelection::kSharded);
  EXPECT_EQ(config.checkpoint.every_units, 0u);
}

TEST(ScenarioConfigTest, UnknownKeysAreRejected) {
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"wakers": 8})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"retry": {"mx_attempts": 3}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"backends": [{"latency": 5}]})"),
               std::invalid_argument);
  // Every nested block is strict, not just the top level.
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"geweke": {"treshold": 0.1}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"checkpoint": {"path": "x.ckpt", "every": 2}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"observability": {"metrix": true}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "srw", "nmae": "srw"}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "mto"}, "mto": {"lzay": true}})"),
               std::invalid_argument);
}

TEST(ScenarioConfigTest, RemovedSelectorKeysAreUnknown) {
  // "program" is the one program selector and "routing" the one routing
  // key; the retired aliases fail like any typo, with the unknown-key
  // error naming them.
  // The block schedule is gone too: walker-major is the one order. The
  // estimator runs on the driver thread, so no queue between threads has
  // a capacity to set.
  for (const char* doc : {R"({"sampler": "srw"})", R"({"strategy": "sharded"})",
                          R"({"sampler": "mto", "program": {"name": "mto"}})",
                          R"({"schedule": "walker"})",
                          R"({"schedule": "block"})",
                          R"({"block": {"size": 4096}})",
                          R"({"queue_capacity": 16})"}) {
    try {
      ScenarioConfig::FromJsonText(doc);
      ADD_FAILURE() << "accepted " << doc;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioConfigTest, JumpProbabilityRequiresRandomJump) {
  // Like program.p/q/restart: a knob the program never reads is rejected,
  // so it can never move the fingerprint of a crawl that ignores it.
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"jump_probability": 0.3})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "mto"}, "jump_probability": 0.3})"),
               std::invalid_argument);
  const ScenarioConfig rj = ScenarioConfig::FromJsonText(
      R"({"program": {"name": "rj"}, "jump_probability": 0.3})");
  EXPECT_DOUBLE_EQ(rj.jump_probability, 0.3);
  EXPECT_THROW(
      ScenarioConfig::FromJsonText(
          R"({"program": {"name": "random_jump"}, "jump_probability": 1.5})"),
      std::invalid_argument);
  // The knob is behavioral for random_jump.
  ScenarioConfig other = rj;
  other.jump_probability = 0.5;
  EXPECT_NE(rj.Fingerprint(), other.Fingerprint());
}

TEST(ScenarioConfigTest, ProgramBlockSelectsTheWalkProgram) {
  // The "program" object resolves through the WalkProgram registry and
  // carries per-program parameters.
  {
    const ScenarioConfig config = ScenarioConfig::FromJsonText(
        R"({"program": {"name": "node2vec", "p": 0.5, "q": 2.0}})");
    EXPECT_EQ(config.program.name, "node2vec");
    EXPECT_DOUBLE_EQ(config.program.p, 0.5);
    EXPECT_DOUBLE_EQ(config.program.q, 2.0);
  }
  {
    const ScenarioConfig config = ScenarioConfig::FromJsonText(
        R"({"program": {"name": "pagerank", "restart": 0.3}})");
    EXPECT_EQ(config.program.name, "pagerank");
    EXPECT_DOUBLE_EQ(config.program.restart, 0.3);
  }
  {
    const ScenarioConfig config =
        ScenarioConfig::FromJsonText(R"({"program": {"name": "mhrw"}})");
    EXPECT_EQ(config.program.name, "mhrw");
  }
  // The "rj" alias canonicalizes, so fingerprints never depend on spelling.
  EXPECT_EQ(ScenarioConfig::FromJsonText(R"({"program": {"name": "rj"}})")
                .program.name,
            "random_jump");
  // A program name must name a registered program; a knob must belong to
  // the chosen program; and name is required.
  EXPECT_THROW(
      ScenarioConfig::FromJsonText(R"({"program": {"name": "deepwalk"}})"),
      std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "srw", "p": 0.5}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "node2vec", "restart": 0.1}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"program": {"p": 0.5}})"),
               std::invalid_argument);
  // Out-of-range program parameters fail validation.
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "node2vec", "p": 0.0}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"program": {"name": "pagerank", "restart": 1.5}})"),
               std::invalid_argument);
}

TEST(ScenarioConfigTest, SemanticValidation) {
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"walkers": 0})"),
               std::invalid_argument);
  EXPECT_THROW(
      ScenarioConfig::FromJsonText(R"({"program": {"name": "bogus"}})"),
      std::invalid_argument);
  // Checkpointing requires a path...
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"checkpoint": {"every_units": 2}})"),
               std::invalid_argument);
  // MTO checkpoints its overlay delta since checkpoint format v2: a
  // checkpointed MTO scenario is a valid configuration.
  {
    const ScenarioConfig config = ScenarioConfig::FromJsonText(
        R"({"program": {"name": "mto"}, "checkpoint": {"path": "x.ckpt"}})");
    EXPECT_EQ(config.program.name, "mto");
    EXPECT_EQ(config.checkpoint.path, "x.ckpt");
  }
}

TEST(ScenarioConfigTest, OutOfRangeNumbersAreRejected) {
  // A double that overflows to inf is a parse error, not an infinite knob.
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"backends": [{"latency_us": 100, "latency_sigma": 1e999}]})"),
               std::runtime_error);
}

TEST(ScenarioConfigTest, MtoUint32KnobsRejectValuesThatWouldWrap) {
  // 2^32 + 1 would wrap to 1 in the uint32_t knob (and in the fingerprint).
  for (const char* key :
       {"min_overlay_degree", "degree_probe", "max_inner_iterations"}) {
    const std::string doc =
        std::string(R"({"program": {"name": "mto"}, "mto": {"weight_mode": )"
                    R"("probe", ")") +
        key + R"(": 4294967297}})";
    try {
      ScenarioConfig::FromJsonText(doc);
      ADD_FAILURE() << "accepted " << doc;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("mto.") + key),
                std::string::npos)
          << e.what();
    }
    // The largest representable value is still accepted.
    const std::string max_doc =
        std::string(R"({"program": {"name": "mto"}, "mto": {")") + key +
        R"(": 4294967295}})";
    EXPECT_NO_THROW(ScenarioConfig::FromJsonText(max_doc)) << max_doc;
  }
}

TEST(ScenarioConfigTest, FingerprintTracksBehavioralFieldsOnly) {
  const ScenarioConfig a = ScenarioConfig::FromJsonText(kFullDocument);
  ScenarioConfig b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.seed = 43;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a;
  b.backends[0].error_rate = 0.2;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  // Thread count and stepping mode do not change results (runtime
  // contract), so checkpoints port across them.
  b = a;
  b.num_threads = 1;
  b.coalesce_frontier = false;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // Same for the whole execution-shape family: fetch mode, fetch worker
  // count, and pipeline depth (pipeline_equivalence_test pins the bitwise
  // equivalence these exclusions rely on)...
  b = a;
  b.fetch_mode = FetchMode::kAsync;
  b.fetch_threads = 7;
  b.pipeline_depth = 2;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // ...and for the routing strategy, excluded on live-rotation grounds: a
  // sharded checkpoint resumed under rendezvous (or back) continues as a
  // hybrid trajectory instead of failing the fingerprint check.
  b = a;
  b.strategy = BackendSelection::kRendezvous;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // Program parameters are behavioral: a node2vec crawl with different
  // bias, or a pagerank crawl with a different restart, is a different
  // experiment.
  b = a;
  b.program.name = "node2vec";
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  const uint64_t node2vec_reference = b.Fingerprint();
  b.program.p = 0.5;
  EXPECT_NE(b.Fingerprint(), node2vec_reference);
  b.program.p = 1.0;
  b.program.q = 2.0;
  EXPECT_NE(b.Fingerprint(), node2vec_reference);
  b = a;
  b.program.name = "pagerank";
  const uint64_t pagerank_reference = b.Fingerprint();
  b.program.restart = 0.3;
  EXPECT_NE(b.Fingerprint(), pagerank_reference);
}

TEST(ScenarioConfigTest, RoutingSelectsTheBackendPolicy) {
  EXPECT_EQ(ScenarioConfig::FromJsonText(R"({"routing": "rendezvous"})")
                .strategy,
            BackendSelection::kRendezvous);
  EXPECT_THROW(ScenarioConfig::FromJsonText(R"({"routing": "random"})"),
               std::invalid_argument);
  // The stateful policies are gone: every legal routing is a pure function
  // of the node, and the error names both survivors.
  for (const char* gone : {"round_robin", "least_loaded", "budget_aware"}) {
    SCOPED_TRACE(gone);
    try {
      ScenarioConfig::FromJsonText(std::string(R"({"routing": ")") + gone +
                                   R"("})");
      FAIL() << "stateful routing accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("\"sharded\""), std::string::npos) << what;
      EXPECT_NE(what.find("\"rendezvous\""), std::string::npos) << what;
    }
  }
}

TEST(ScenarioConfigTest, ParsesPipelineDepth) {
  EXPECT_EQ(ScenarioConfig::FromJsonText("{}").pipeline_depth, 0u);
  EXPECT_EQ(
      ScenarioConfig::FromJsonText(R"({"pipeline_depth": 3})").pipeline_depth,
      3u);
}

TEST(ScenarioConfigTest, FromFileRoundTrips) {
  const std::string path =
      testing::TempDir() + "/scenario_config_test.json";
  {
    std::ofstream out(path);
    out << kFullDocument;
  }
  const ScenarioConfig config = ScenarioConfig::FromFile(path);
  EXPECT_EQ(config.backends.size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(ScenarioConfig::FromFile(path), std::runtime_error);
}

}  // namespace
}  // namespace mto
