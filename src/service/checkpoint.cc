#include "src/service/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace mto {
namespace {

constexpr char kMagic[8] = {'M', 'T', 'O', 'C', 'K', 'P', 'T', '\0'};

// Fixed-width little-endian scalar I/O. The encode/decode loops are
// byte-order independent, so checkpoints are portable across hosts. The
// writer serializes into memory; Save writes the image in one call.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(&out) {}

  void Bytes(const char* data, size_t size) { out_->append(data, size); }
  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

 private:
  std::string* out_;
};

class Reader {
 public:
  /// `remaining` is the byte count left in the stream (file size minus any
  /// header already consumed); every read is checked against it so a
  /// corrupted length can never drive reads past the end of the file.
  Reader(std::istream& in, uint64_t remaining)
      : in_(&in), remaining_(remaining) {}

  uint8_t U8() {
    if (remaining_ == 0) {
      throw std::runtime_error("checkpoint: truncated file");
    }
    int c = in_->get();
    if (c == EOF) throw std::runtime_error("checkpoint: truncated file");
    --remaining_;
    return static_cast<uint8_t>(c);
  }
  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
    return v;
  }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// Guards vector resizes against corrupted counts: a count of n elements
  /// of at least `min_element_bytes` each must fit in the bytes that are
  /// actually left in the file. This bounds every allocation by the file
  /// size, so a flipped length byte fails loudly instead of attempting a
  /// multi-gigabyte resize (pinned by checkpoint_test's corruption fuzz).
  uint64_t Count(uint64_t sane_max, uint64_t min_element_bytes) {
    const uint64_t n = U64();
    if (n > sane_max || n * min_element_bytes > remaining_) {
      throw std::runtime_error("checkpoint: implausible count");
    }
    return n;
  }
  uint64_t remaining() const { return remaining_; }

 private:
  std::istream* in_;
  uint64_t remaining_;
};

constexpr uint64_t kMaxCount = uint64_t{1} << 33;  // corruption guard

/// FNV-1a over the overlay section's encoded words: the same values are
/// mixed on write and on read, so any bit flip in the section (or in its
/// stored checksum) is detected before an overlay can be resumed.
class SectionChecksum {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

void ServiceCheckpoint::Save(const std::string& path) const {
  std::string image;
  {
    Writer w(image);
    w.Bytes(kMagic, sizeof(kMagic));
    w.U32(kVersion);
    w.U64(config_fingerprint);

    w.U64(session.cached_ids.size());
    for (NodeId v : session.cached_ids) w.U32(v);
    w.U64(session.unique_queries);
    w.U64(session.total_requests);
    w.U64(session.backend_requests);

    w.U64(ledgers.size());
    for (const BackendLedger& ledger : ledgers) {
      const BackendStats& s = ledger.stats;
      w.U64(s.unique_queries);
      w.U64(s.requests);
      w.U64(s.failed_requests);
      w.U64(s.timeouts);
      w.U64(s.transient_errors);
      w.U64(s.quota_rejections);
      w.U64(s.budget_refusals);
      w.U64(s.pacing_waits);
      w.U64(s.simulated_us);
      w.F64(ledger.bucket_tokens);
      w.U64(ledger.clock_us);
      w.U64(ledger.last_refill_us);
    }
    w.U64(failed_fetches);

    w.U64(walkers.size());
    for (const auto& walker : walkers) {
      w.U32(walker.position);
      for (uint64_t word : walker.rng_state) w.U64(word);
    }
    w.U64(total_steps);

    w.U8(static_cast<uint8_t>(phase));
    w.U64(rounds);
    w.U64(collection_rounds_done);
    w.U8(burn_in_converged);
    w.U64(burn_in_rounds);
    w.U64(burn_in_query_cost);

    w.U64(diagnostics.size());
    for (double d : diagnostics) w.F64(d);
    w.U64(samples.size());
    for (const SampleRecord& sample : samples) {
      w.F64(sample.value);
      w.F64(sample.weight);
      w.U64(sample.query_cost);
      w.U32(sample.node);
    }

    // Overlay section (v2): per-walker MTO overlay deltas, checksummed.
    SectionChecksum checksum;
    auto mixed_u64 = [&](uint64_t v) {
      checksum.Mix(v);
      w.U64(v);
    };
    auto mixed_u32 = [&](uint32_t v) {
      checksum.Mix(v);
      w.U32(v);
    };
    mixed_u64(overlays.size());
    for (const OverlayRecord& overlay : overlays) {
      checksum.Mix(overlay.frozen);
      w.U8(overlay.frozen);
      mixed_u64(overlay.delta.registered.size());
      for (NodeId v : overlay.delta.registered) mixed_u32(v);
      for (const auto* keys : {&overlay.delta.removed, &overlay.delta.added,
                               &overlay.delta.processed}) {
        mixed_u64(keys->size());
        for (uint64_t key : *keys) mixed_u64(key);
      }
    }
    w.U64(checksum.hash());

    // Second-order walker section (v3): the (prev, cur) register of
    // second-order programs, checksummed like the overlay section.
    SectionChecksum so_checksum;
    so_checksum.Mix(second_order.size());
    w.U64(second_order.size());
    for (const SecondOrderRecord& record : second_order) {
      so_checksum.Mix(record.has_prev);
      w.U8(record.has_prev);
      so_checksum.Mix(record.prev);
      w.U32(record.prev);
    }
    w.U64(so_checksum.hash());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot write " + tmp);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    // Flush + close before the rename so buffered-write errors surface
    // while the previous checkpoint is still intact on disk.
    out.flush();
    out.close();
    if (!out) throw std::runtime_error("checkpoint: write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path);
  }
}

ServiceCheckpoint ServiceCheckpoint::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot read " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff file_size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (file_size < static_cast<std::streamoff>(sizeof(kMagic))) {
    throw std::runtime_error("checkpoint: bad magic in " + path);
  }
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("checkpoint: bad magic in " + path);
  }
  Reader r(in, static_cast<uint64_t>(file_size) - sizeof(kMagic));
  const uint32_t version = r.U32();
  if (version != kVersion) {
    throw std::runtime_error(
        "checkpoint: unsupported version " + std::to_string(version) +
        (version > kVersion ? " (written by a future build)"
                            : " (predates v6, which drops the block-residency "
                              "section)"));
  }
  ServiceCheckpoint ckpt;
  ckpt.config_fingerprint = r.U64();

  ckpt.session.cached_ids.resize(r.Count(kMaxCount, 4));
  for (NodeId& v : ckpt.session.cached_ids) v = r.U32();
  ckpt.session.unique_queries = r.U64();
  ckpt.session.total_requests = r.U64();
  ckpt.session.backend_requests = r.U64();

  ckpt.ledgers.resize(r.Count(1 << 20, 96));
  for (BackendLedger& ledger : ckpt.ledgers) {
    BackendStats& s = ledger.stats;
    s.unique_queries = r.U64();
    s.requests = r.U64();
    s.failed_requests = r.U64();
    s.timeouts = r.U64();
    s.transient_errors = r.U64();
    s.quota_rejections = r.U64();
    s.budget_refusals = r.U64();
    s.pacing_waits = r.U64();
    s.simulated_us = r.U64();
    ledger.bucket_tokens = r.F64();
    ledger.clock_us = r.U64();
    ledger.last_refill_us = r.U64();
  }
  ckpt.failed_fetches = r.U64();

  ckpt.walkers.resize(r.Count(1 << 24, 36));
  for (auto& walker : ckpt.walkers) {
    walker.position = r.U32();
    for (uint64_t& word : walker.rng_state) word = r.U64();
  }
  ckpt.total_steps = r.U64();

  const uint8_t phase = r.U8();
  if (phase > static_cast<uint8_t>(CrawlPhase::kDone)) {
    throw std::runtime_error("checkpoint: bad phase byte");
  }
  ckpt.phase = static_cast<CrawlPhase>(phase);
  ckpt.rounds = r.U64();
  ckpt.collection_rounds_done = r.U64();
  ckpt.burn_in_converged = r.U8();
  ckpt.burn_in_rounds = r.U64();
  ckpt.burn_in_query_cost = r.U64();

  ckpt.diagnostics.resize(r.Count(kMaxCount, 8));
  for (double& d : ckpt.diagnostics) d = r.F64();
  ckpt.samples.resize(r.Count(kMaxCount, 28));
  for (SampleRecord& sample : ckpt.samples) {
    sample.value = r.F64();
    sample.weight = r.F64();
    sample.query_cost = r.U64();
    sample.node = r.U32();
  }

  // Overlay section (v2): verify the checksum before anything downstream
  // can rebuild a topology from it.
  SectionChecksum checksum;
  auto mixed_count = [&](uint64_t sane_max, uint64_t min_element_bytes) {
    const uint64_t n = r.Count(sane_max, min_element_bytes);
    checksum.Mix(n);
    return n;
  };
  // Every overlay record carries at least a frozen byte and four counts.
  ckpt.overlays.resize(mixed_count(1 << 24, 33));
  for (OverlayRecord& overlay : ckpt.overlays) {
    overlay.frozen = r.U8();
    checksum.Mix(overlay.frozen);
    overlay.delta.registered.resize(mixed_count(kMaxCount, 4));
    for (NodeId& v : overlay.delta.registered) {
      v = r.U32();
      checksum.Mix(v);
    }
    for (auto* keys : {&overlay.delta.removed, &overlay.delta.added,
                       &overlay.delta.processed}) {
      keys->resize(mixed_count(kMaxCount, 8));
      for (uint64_t& key : *keys) {
        key = r.U64();
        checksum.Mix(key);
      }
    }
  }
  if (r.U64() != checksum.hash()) {
    throw std::runtime_error(
        "checkpoint: overlay-section checksum mismatch in " + path);
  }

  // Second-order walker section (v3), checksummed like the overlay one.
  SectionChecksum so_checksum;
  // Each record is 5 encoded bytes (has_prev byte + prev word).
  ckpt.second_order.resize(r.Count(1 << 24, 5));
  so_checksum.Mix(ckpt.second_order.size());
  for (SecondOrderRecord& record : ckpt.second_order) {
    record.has_prev = r.U8();
    so_checksum.Mix(record.has_prev);
    record.prev = r.U32();
    so_checksum.Mix(record.prev);
  }
  if (r.U64() != so_checksum.hash()) {
    throw std::runtime_error(
        "checkpoint: second-order-section checksum mismatch in " + path);
  }
  // The second-order section is the last one: anything after it is not a
  // v6 image (an older file relabelled, or bytes appended to a valid one).
  if (r.remaining() != 0) {
    throw std::runtime_error("checkpoint: trailing bytes in " + path);
  }
  return ckpt;
}

}  // namespace mto
