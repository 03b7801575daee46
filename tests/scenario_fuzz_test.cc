// Seeded mutation fuzz over the checked-in scenario documents: every
// examples/scenarios/*.json and perfbench/workloads/*.json file (read, never
// written) is mutated with byte flips, truncations, span deletions, and
// duplicated spans, ~1k mutants in all. The parser's contract under
// malformed input is "reject or validate": ScenarioConfig::FromJsonText
// either throws a std::exception subclass or returns a config that passes
// its own Validate(). It must never crash, hang, or over-allocate (the
// ASan/UBSan preset runs this suite too).

#include "src/service/scenario_config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace mto {
namespace {

namespace fs = std::filesystem;

struct Seed {
  std::string name;
  std::string text;
};

/// The corpus: every JSON file of the two scenario directories, in sorted
/// order so the mutant stream is reproducible.
std::vector<Seed> LoadCorpus() {
  std::vector<fs::path> paths;
  for (const char* dir : {"examples/scenarios", "perfbench/workloads"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(MTO_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".json") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Seed> corpus;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    corpus.push_back({path.filename().string(),
                      {std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()}});
  }
  return corpus;
}

/// Bytes that steer a flip toward JSON structure rather than payload.
constexpr char kStructural[] = "{}[]\":,-.0123456789eEtfn \\";

std::string Mutate(const std::string& seed, Rng& rng) {
  std::string text = seed;
  const auto pos = [&](size_t bound) {
    return static_cast<size_t>(rng.UniformInt(bound));
  };
  switch (rng.UniformInt(4)) {
    case 0: {  // 1-8 byte flips, half of them to structural characters
      const uint64_t flips = 1 + rng.UniformInt(8);
      for (uint64_t f = 0; f < flips; ++f) {
        char& c = text[pos(text.size())];
        if (rng.UniformInt(2) == 0) {
          c = kStructural[pos(sizeof(kStructural) - 1)];
        } else {
          c ^= static_cast<char>(1 + rng.UniformInt(255));
        }
      }
      break;
    }
    case 1:  // truncation, possibly to nothing
      text.resize(pos(text.size()));
      break;
    case 2: {  // delete a span of 1-32 bytes
      const size_t at = pos(text.size());
      text.erase(at, 1 + pos(32));
      break;
    }
    default: {  // duplicate a span of 1-64 bytes at a random offset
      const size_t from = pos(text.size());
      const std::string span = text.substr(from, 1 + pos(64));
      text.insert(pos(text.size() + 1), span);
      break;
    }
  }
  return text;
}

TEST(ScenarioFuzzTest, CorpusIsTheCheckedInScenarios) {
  const std::vector<Seed> corpus = LoadCorpus();
  ASSERT_GE(corpus.size(), 6u);
  size_t parsed = 0;
  for (const Seed& seed : corpus) {
    SCOPED_TRACE(seed.name);
    ASSERT_FALSE(seed.text.empty());
    // The stack overlays (perfbench's *.stack.json) are not scenarios; the
    // rest must parse unmutated, or the fuzz would start from rejects.
    if (seed.name.find(".stack.") != std::string::npos) continue;
    EXPECT_NO_THROW(ScenarioConfig::FromJsonText(seed.text));
    ++parsed;
  }
  EXPECT_GE(parsed, 5u);
}

TEST(ScenarioFuzzTest, MutantsAreRejectedOrValid) {
  const std::vector<Seed> corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty());
  constexpr size_t kMutants = 1024;
  Rng rng(0x5CE7A210);
  size_t rejected = 0, accepted = 0;
  for (size_t m = 0; m < kMutants; ++m) {
    const Seed& seed = corpus[m % corpus.size()];
    const std::string text = Mutate(seed.text, rng);
    SCOPED_TRACE(seed.name + " mutant " + std::to_string(m) + ":\n" + text);
    try {
      const ScenarioConfig config = ScenarioConfig::FromJsonText(text);
      EXPECT_NO_THROW(config.Validate());
      config.Fingerprint();  // every accepted field must be hashable
      ++accepted;
    } catch (const std::exception&) {
      ++rejected;  // loud rejection: parse, type, key, or range error
    }
    // Anything that is not a std::exception escapes and fails the test.
  }
  // Both arms must be exercised: most mutants break syntax or types, while
  // some (a flipped digit, a duplicated whitespace run) stay valid.
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace mto
