#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "src/graph/generators.h"
#include "src/util/rng.h"

namespace mto {
namespace {

TEST(IoTest, ReadBasicEdgeList) {
  std::istringstream in("# comment\n0 1\n1 2\n");
  Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(IoTest, CompactsSparseIds) {
  std::istringstream in("100 200\n200 300\n");
  Graph g = ReadEdgeList(in, /*compact_ids=*/true);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IoTest, NoCompactionKeepsIds) {
  std::istringstream in("0 5\n");
  Graph g = ReadEdgeList(in, /*compact_ids=*/false);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_TRUE(g.HasEdge(0, 5));
}

TEST(IoTest, DuplicateLinesCollapse) {
  std::istringstream in("0 1\n1 0\n0 1\n");
  Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(IoTest, MalformedLineThrows) {
  std::istringstream in("0 not-a-number\n");
  EXPECT_THROW(ReadEdgeList(in), std::runtime_error);
}

/// Expects `text` to be rejected with a std::runtime_error whose message
/// contains `needle` and names line `line_no`.
void ExpectRejected(const std::string& text, bool compact_ids,
                    const std::string& needle, int line_no) {
  SCOPED_TRACE(text);
  std::istringstream in(text);
  try {
    ReadEdgeList(in, compact_ids);
    FAIL() << "accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_NE(what.find("line " + std::to_string(line_no)), std::string::npos)
        << what;
  }
}

TEST(IoTest, NegativeIdsAreRejected) {
  // Both modes: `-1` used to wrap to 2^64 - 1 (a fresh node under
  // compaction, an invalid_argument from Graph without it).
  ExpectRejected("0 1\n-1 2\n", /*compact_ids=*/true, "negative", 2);
  ExpectRejected("-1 2\n", /*compact_ids=*/false, "negative", 1);
  ExpectRejected("# c\n3 -7\n", /*compact_ids=*/false, "negative", 2);
}

TEST(IoTest, IdsBeyondNodeIdAreRejectedWithoutCompaction) {
  // 2^32 + 1 used to truncate to 1: a 3-node graph with the edge 1-2.
  ExpectRejected("4294967297 2\n", /*compact_ids=*/false, "out of range", 1);
  // 2^32 - 1 is kInvalidNode, never a real id.
  ExpectRejected("0 1\n4294967295 2\n", /*compact_ids=*/false,
                 "out of range", 2);
  // Past uint64 entirely: out of range in both modes.
  ExpectRejected("99999999999999999999 1\n", /*compact_ids=*/true,
                 "out of range", 1);
  // Compaction remaps any uint64, so large ids are fine there.
  std::istringstream in("4294967297 2\n");
  Graph g = ReadEdgeList(in, /*compact_ids=*/true);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(IoTest, SeededMutationFuzzThrowsOrParses) {
  // ~2k mutants of a small edge list (byte flips, inserted minus signs and
  // digits, truncations) under compaction: every mutant either parses or
  // is rejected with std::runtime_error. Any other exception escapes and
  // fails the test.
  Rng rng(0x10F022);
  std::ostringstream pristine_out;
  WriteEdgeList(ErdosRenyiM(40, 80, rng), pristine_out);
  const std::string pristine = pristine_out.str();
  const std::string alphabet = "0123456789- #\n\t+x";
  size_t parsed = 0, rejected = 0;
  for (int m = 0; m < 2000; ++m) {
    std::string text = pristine;
    const uint64_t edits = 1 + rng.UniformInt(6);
    for (uint64_t e = 0; e < edits && !text.empty(); ++e) {
      const size_t at = static_cast<size_t>(rng.UniformInt(text.size()));
      switch (rng.UniformInt(4)) {
        case 0:
          text[at] = static_cast<char>(rng.UniformInt(256));
          break;
        case 1:
          text[at] = alphabet[rng.UniformInt(alphabet.size())];
          break;
        case 2:
          text.insert(at, 1, alphabet[rng.UniformInt(alphabet.size())]);
          break;
        default:
          text.resize(at);
          break;
      }
    }
    std::istringstream in(text);
    try {
      ReadEdgeList(in, /*compact_ids=*/true);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(IoTest, DirectedMutualConversion) {
  // The paper's conversion: keep only edges present in both directions.
  std::istringstream in("0 1\n1 0\n1 2\n2 0\n0 2\n");
  Graph g = ReadDirectedAsMutual(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(IoTest, RoundTrip) {
  Rng rng(5);
  Graph g = ErdosRenyi(30, 0.2, rng);
  std::ostringstream out;
  WriteEdgeList(g, out);
  std::istringstream in(out.str());
  Graph h = ReadEdgeList(in, /*compact_ids=*/false);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (const Edge& e : g.Edges()) EXPECT_TRUE(h.HasEdge(e.u, e.v));
}

TEST(IoTest, FileRoundTrip) {
  Graph g = Barbell(4);
  const std::string path = testing::TempDir() + "/mto_io_test_edges.txt";
  WriteEdgeListFile(g, path);
  Graph h = ReadEdgeListFile(path, /*compact_ids=*/false);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/path/file.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace mto
