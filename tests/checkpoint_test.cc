#include "src/service/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace mto {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/checkpoint_test_" + tag + ".ckpt";
}

/// A small but fully populated checkpoint, overlay section included.
ServiceCheckpoint MakeCheckpoint() {
  ServiceCheckpoint ckpt;
  ckpt.config_fingerprint = 0xFEEDFACE;
  ckpt.session.cached_ids = {1, 2, 5, 8};
  ckpt.session.unique_queries = 4;
  ckpt.session.total_requests = 11;
  ckpt.session.backend_requests = 6;
  ckpt.ledgers.resize(2);
  ckpt.ledgers[0].stats.unique_queries = 3;
  ckpt.ledgers[1].stats.requests = 7;
  ckpt.failed_fetches = 9;
  ckpt.walkers.resize(2);
  ckpt.walkers[0] = {5, {1, 2, 3, 4}};
  ckpt.walkers[1] = {8, {9, 10, 11, 12}};
  ckpt.total_steps = 40;
  ckpt.phase = CrawlPhase::kSampling;
  ckpt.rounds = 20;
  ckpt.diagnostics = {4.0, 2.5};
  ckpt.samples.push_back({6.0, 0.25, 4, 5});
  ServiceCheckpoint::OverlayRecord overlay;
  overlay.frozen = 1;
  overlay.delta.registered = {1, 2, 5};
  overlay.delta.removed = {(uint64_t{1} << 32) | 2};
  overlay.delta.added = {(uint64_t{2} << 32) | 5};
  overlay.delta.processed = {(uint64_t{1} << 32) | 2, (uint64_t{2} << 32) | 5};
  ckpt.overlays.push_back(overlay);
  // Second walker: no rewiring yet, but one classified-as-kept edge (so the
  // file ends in a payload word, which the corruption test flips).
  ServiceCheckpoint::OverlayRecord second;
  second.delta.registered = {8};
  second.delta.processed = {(uint64_t{8} << 32) | 9};
  ckpt.overlays.push_back(second);
  // Second-order walker section (v3): walker 0 mid-edge, walker 1 fresh.
  ckpt.second_order.push_back({1, 3});
  ckpt.second_order.push_back({0, 0});
  // Block-residency section (v4): two spilled entries, one loaded block.
  ckpt.residency.spilled = {2, 8};
  ckpt.residency.loaded_blocks = {0};
  return ckpt;
}

// v5 layout up to the walker section: header (magic, version,
// fingerprint), session (id count + 4 ids + 3 counters), then the pool
// section — ledger count, 2 ledgers of 12 words each, failed_fetches.
constexpr size_t kPoolSectionOffset = 8 + 4 + 8 + (8 + 4 * 4 + 3 * 8);
constexpr size_t kLedgerBytes = 12 * 8;
constexpr size_t kPoolSectionBytes = 8 + 2 * kLedgerBytes + 8;
constexpr size_t kWalkerCountOffset = kPoolSectionOffset + kPoolSectionBytes;

uint64_t U64At(const std::vector<char>& bytes, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, SaveLoadRoundTripsEveryField) {
  const ServiceCheckpoint saved = MakeCheckpoint();
  const std::string path = TempPath("roundtrip");
  saved.Save(path);
  const ServiceCheckpoint loaded = ServiceCheckpoint::Load(path);
  EXPECT_EQ(loaded.config_fingerprint, saved.config_fingerprint);
  EXPECT_EQ(loaded.session.cached_ids, saved.session.cached_ids);
  EXPECT_EQ(loaded.session.total_requests, saved.session.total_requests);
  ASSERT_EQ(loaded.ledgers.size(), 2u);
  EXPECT_EQ(loaded.ledgers[0].stats.unique_queries, 3u);
  EXPECT_EQ(loaded.ledgers[1].stats.requests, 7u);
  EXPECT_EQ(loaded.failed_fetches, 9u);
  ASSERT_EQ(loaded.walkers.size(), 2u);
  EXPECT_EQ(loaded.walkers[1].position, 8u);
  EXPECT_EQ(loaded.walkers[1].rng_state, saved.walkers[1].rng_state);
  EXPECT_EQ(loaded.phase, CrawlPhase::kSampling);
  EXPECT_EQ(loaded.diagnostics, saved.diagnostics);
  ASSERT_EQ(loaded.samples.size(), 1u);
  EXPECT_EQ(loaded.samples[0].node, 5u);
  ASSERT_EQ(loaded.overlays.size(), 2u);
  EXPECT_EQ(loaded.overlays[0].frozen, 1u);
  EXPECT_EQ(loaded.overlays[0].delta.registered,
            saved.overlays[0].delta.registered);
  EXPECT_EQ(loaded.overlays[0].delta.removed, saved.overlays[0].delta.removed);
  EXPECT_EQ(loaded.overlays[0].delta.added, saved.overlays[0].delta.added);
  EXPECT_EQ(loaded.overlays[0].delta.processed,
            saved.overlays[0].delta.processed);
  EXPECT_EQ(loaded.overlays[1].delta.registered,
            saved.overlays[1].delta.registered);
  EXPECT_EQ(loaded.overlays[1].delta.processed,
            saved.overlays[1].delta.processed);
  EXPECT_TRUE(loaded.overlays[1].delta.removed.empty());
  ASSERT_EQ(loaded.second_order.size(), 2u);
  EXPECT_EQ(loaded.second_order[0].has_prev, 1u);
  EXPECT_EQ(loaded.second_order[0].prev, 3u);
  EXPECT_EQ(loaded.second_order[1].has_prev, 0u);
  EXPECT_EQ(loaded.residency.spilled, saved.residency.spilled);
  EXPECT_EQ(loaded.residency.loaded_blocks, saved.residency.loaded_blocks);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileFailsLoudly) {
  const std::string path = TempPath("truncated");
  MakeCheckpoint().Save(path);
  const std::vector<char> bytes = ReadAll(path);
  // Cut the file at every interesting boundary: inside the magic, inside
  // the header, and at several points of the payload. Every cut must
  // throw, never return a half-read checkpoint.
  for (size_t keep : {size_t{0}, size_t{4}, size_t{9}, size_t{30},
                      bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    WriteAll(path, {bytes.begin(), bytes.begin() + keep});
    EXPECT_THROW(ServiceCheckpoint::Load(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, BadMagicFailsLoudly) {
  const std::string path = TempPath("magic");
  MakeCheckpoint().Save(path);
  std::vector<char> bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);
  EXPECT_THROW(ServiceCheckpoint::Load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointTest, FutureVersionFailsLoudly) {
  const std::string path = TempPath("future");
  MakeCheckpoint().Save(path);
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = 99;  // version u32 follows the 8-byte magic (little-endian)
  WriteAll(path, bytes);
  try {
    ServiceCheckpoint::Load(path);
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos)
        << e.what();
  }
  // Older versions are rejected too — v1 (pre-overlay), v2 (pre-
  // second-order-section), v3 (pre-block-residency-section), and v4 (whose
  // pool section still carries a routing cursor). A v5 loader never
  // silently downgrades, and the error names the version it refused.
  for (char version : {char{1}, char{2}, char{3}, char{4}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    bytes[8] = version;
    WriteAll(path, bytes);
    try {
      ServiceCheckpoint::Load(path);
      FAIL() << "older version accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

/// Canonical re-encoding of a checkpoint: Save is deterministic, so two
/// structurally equal checkpoints serialize to identical bytes.
std::vector<char> Reserialize(const ServiceCheckpoint& ckpt,
                              const std::string& path) {
  ckpt.Save(path);
  return ReadAll(path);
}

// Seeded corruption fuzz over the v5 image: random byte flips (1-8 bytes)
// anywhere, flips confined to the pool section, and random truncations,
// ~1k mutants. The loader's contract under
// corruption is "reject loudly or round-trip": every mutant must either
// throw std::runtime_error (detected corruption: bad magic/version,
// truncation, implausible count, checksum mismatch) or yield a checkpoint
// that re-serializes canonically — i.e. the loader accepted a
// *well-formed* image and parsed all of it. It must never crash, hang,
// over-allocate past the file size, or silently misparse structure.
//
// (Semantic integrity of non-overlay payload bytes is the fingerprint's
// and the overlay checksum's job; a flipped stat value is a well-formed
// different checkpoint, which the round-trip arm accepts by design.)
TEST(CheckpointFuzzTest, RandomCorruptionNeverCrashesTheLoader) {
  const std::string path = TempPath("fuzz");
  const std::string canon_path = TempPath("fuzz_canon");
  MakeCheckpoint().Save(path);
  const std::vector<char> pristine = ReadAll(path);
  ASSERT_GT(pristine.size(), 64u);

  Rng rng(0xF0220);
  size_t rejected = 0, round_tripped = 0;
  constexpr size_t kMutants = 1000;
  for (size_t m = 0; m < kMutants; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::vector<char> bytes = pristine;
    if (m % 4 == 0) {
      // Truncation at a random point (possibly to zero bytes).
      bytes.resize(rng.UniformInt(bytes.size()));
    } else if (m % 4 == 1) {
      // 1-8 flips inside the pool section: its ledger count word guards the
      // only variable-length span between the session and the walkers.
      const uint64_t flips = 1 + rng.UniformInt(8);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t offset = kPoolSectionOffset + static_cast<size_t>(
            rng.UniformInt(kPoolSectionBytes));
        bytes[offset] ^= static_cast<char>(1 + rng.UniformInt(255));
      }
    } else {
      // 1-8 random byte flips anywhere in the image.
      const uint64_t flips = 1 + rng.UniformInt(8);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t offset = static_cast<size_t>(
            rng.UniformInt(bytes.size()));
        bytes[offset] ^= static_cast<char>(1 + rng.UniformInt(255));
      }
    }
    WriteAll(path, bytes);
    try {
      const ServiceCheckpoint loaded = ServiceCheckpoint::Load(path);
      // Accepted: must be a fully parsed, well-formed image. Its canonical
      // re-encoding must round-trip to itself bit-exactly.
      const std::vector<char> first = Reserialize(loaded, canon_path);
      const std::vector<char> second =
          Reserialize(ServiceCheckpoint::Load(canon_path), canon_path);
      ASSERT_EQ(first, second);
      ++round_tripped;
    } catch (const std::runtime_error&) {
      ++rejected;  // loud rejection is the expected common case
    }
    // Any other exception type (bad_alloc from an over-trusted count,
    // length_error, ...) escapes and fails the test.
  }
  // The corpus must exercise both arms: most mutants hit structure and are
  // rejected, while flips confined to payload values parse fine.
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(round_tripped, 0u);
  std::remove(path.c_str());
  std::remove(canon_path.c_str());
}

TEST(CheckpointTest, PoolSectionHoldsLedgersThenFailedFetches) {
  // Pins the v5 pool section byte for byte: the ledger count, the ledgers,
  // then failed_fetches, with the walker count immediately after — no
  // routing cursor in between.
  const std::string path = TempPath("pool_layout");
  MakeCheckpoint().Save(path);
  const std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), kWalkerCountOffset + 8);
  EXPECT_EQ(U64At(bytes, kPoolSectionOffset), 2u);  // ledger count
  EXPECT_EQ(U64At(bytes, kPoolSectionOffset + 8), 3u);  // ledger 0 unique
  EXPECT_EQ(U64At(bytes, kPoolSectionOffset + 8 + kLedgerBytes + 8),
            7u);  // ledger 1 requests
  EXPECT_EQ(U64At(bytes, kWalkerCountOffset - 8), 9u);  // failed_fetches
  EXPECT_EQ(U64At(bytes, kWalkerCountOffset), 2u);      // walker count
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, ImplausibleCountsAreRejectedBeforeAllocating) {
  // Hand-built worst cases the random corpus may miss: a vector count
  // rewritten to 2^32 — small enough to pass a naive sanity cap, large
  // enough that resizing would allocate gigabytes. The loader must reject
  // it against the actual file size instead. Covers the first count
  // (cached_ids), the pool section's ledger count, and the walker count
  // that follows the pool section.
  const std::string path = TempPath("fuzz_count");
  MakeCheckpoint().Save(path);
  const std::vector<char> pristine = ReadAll(path);
  for (size_t count_offset :
       {size_t{8 + 4 + 8}, kPoolSectionOffset, kWalkerCountOffset}) {
    SCOPED_TRACE("count_offset=" + std::to_string(count_offset));
    std::vector<char> bytes = pristine;
    for (size_t i = 0; i < 8; ++i) bytes[count_offset + i] = 0;
    bytes[count_offset + 4] = 1;  // little-endian 2^32
    WriteAll(path, bytes);
    try {
      ServiceCheckpoint::Load(path);
      FAIL() << "implausible count accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("implausible count"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, SectionChecksumMismatchFailsLoudly) {
  const std::string path = TempPath("checksum");
  MakeCheckpoint().Save(path);
  const std::vector<char> pristine = ReadAll(path);
  // The file ends with the three checksummed sections, back to back:
  //   ... overlay payload ..., overlay checksum u64,
  //   second-order count u64, 2 x (has_prev u8 + prev u32),
  //   second-order checksum u64,
  //   spilled count u64, 2 x u32, loaded count u64, 1 x u32,
  //   residency checksum u64
  // so the trailing residency section is 8 + 2*4 + 8 + 4 + 8 = 36 bytes
  // and the second-order section before it is 8 + 2*5 + 8 = 26. Flip a bit
  // inside each section's payload and inside each stored checksum; all six
  // must be caught as checksum mismatches. (Count words are excluded: a
  // flipped count is caught earlier, as an implausible count.)
  for (size_t offset_from_end :
       {size_t{1},     // residency stored checksum
        size_t{9},     // residency payload (the loaded-block word)
        size_t{21},    // residency payload (spilled id 8)
        size_t{37},    // second-order stored checksum
        size_t{45},    // second-order payload (walker 1's prev word)
        size_t{63},    // overlay stored checksum
        size_t{71}}) { // overlay payload (last processed edge key)
    SCOPED_TRACE("offset_from_end=" + std::to_string(offset_from_end));
    std::vector<char> bytes = pristine;
    bytes[bytes.size() - offset_from_end] ^= 0x40;
    WriteAll(path, bytes);
    try {
      ServiceCheckpoint::Load(path);
      FAIL() << "corrupted section accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
  // The pristine bytes still load (the test corrupts, not the save path).
  WriteAll(path, pristine);
  EXPECT_NO_THROW(ServiceCheckpoint::Load(path));
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingSectionsCannotBeSilentlyDropped) {
  // A v5 image with trailing sections cut off must be rejected as
  // truncated — never parsed as if it were an older-version file. Cut the
  // residency section alone, then residency + second-order together.
  const std::string path = TempPath("no_downgrade");
  MakeCheckpoint().Save(path);
  const std::vector<char> bytes = ReadAll(path);
  const size_t residency_bytes = 8 + 2 * 4 + 8 + 4 + 8;
  const size_t second_order_bytes = 8 + 2 * 5 + 8;
  for (size_t cut :
       {residency_bytes, residency_bytes + second_order_bytes}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    ASSERT_GT(bytes.size(), cut);
    WriteAll(path, {bytes.begin(), bytes.begin() + (bytes.size() - cut)});
    EXPECT_THROW(ServiceCheckpoint::Load(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mto
