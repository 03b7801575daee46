#include "src/core/mto_sampler.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/edge_rules.h"

namespace mto {

MtoSampler::MtoSampler(RestrictedInterface& interface, Rng& rng, NodeId start,
                       MtoConfig config)
    : Sampler(interface, rng, start), config_(config) {
  if (config.replace_probability < 0.0 || config.replace_probability > 1.0) {
    throw std::invalid_argument("MtoConfig: bad replace_probability");
  }
  if (config.max_inner_iterations == 0) {
    throw std::invalid_argument("MtoConfig: max_inner_iterations == 0");
  }
}

bool MtoSampler::Fetch(NodeId v) {
  if (overlay_.IsRegistered(v)) return true;
  // The view borrows the network's immutable CSR row, which outlives the
  // overlay (OverlayGraph's lifetime rule).
  auto r = interface().QueryRef(v);
  if (!r) return false;
  overlay_.RegisterNode(v, r->neighbors);
  return true;
}

bool MtoSampler::RemovableNow(NodeId u, NodeId v) const {
  // Guard on *overlay* degrees regardless of basis: removal must not strand
  // the walk (DESIGN.md §5).
  const uint32_t floor = std::max(config_.min_overlay_degree, 1u);
  if (overlay_.Degree(u) <= floor || overlay_.Degree(v) <= floor) {
    return false;
  }
  const bool original = config_.criterion_basis == CriterionBasis::kOriginal;
  const uint32_t ku = original ? overlay_.OriginalDegree(u) : overlay_.Degree(u);
  const uint32_t kv = original ? overlay_.OriginalDegree(v) : overlay_.Degree(v);
  if (RemovalWouldIsolate(ku, kv)) return false;
  const uint32_t common = original
                              ? overlay_.OriginalCommonNeighborCount(u, v)
                              : overlay_.CommonNeighborCount(u, v);
  // Theorem 3 always applies; Theorem 5 is a second sufficient condition,
  // not a uniformly stronger one (its ceil-rounding can lose half a unit
  // when a known common neighbor has kw = 3), so take the OR.
  if (RemovalCriterion(common, ku, kv)) return true;
  if (!config_.use_degree_extension) return false;
  // Theorem 5: collect cached small degrees of common neighbors. Degrees of
  // registered nodes come from the chosen basis; unregistered-but-cached
  // nodes contribute their true degree, exactly the "historical
  // information" of Section III-D.
  const NeighborView a =
      original ? overlay_.OriginalNeighbors(u) : overlay_.Neighbors(u);
  const NeighborView b =
      original ? overlay_.OriginalNeighbors(v) : overlay_.Neighbors(v);
  std::vector<uint32_t> small_degrees;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      NodeId w = a[i];
      uint32_t kw = 0;
      if (overlay_.IsRegistered(w)) {
        kw = original ? overlay_.OriginalDegree(w) : overlay_.Degree(w);
      } else if (auto cached = interface().CachedDegree(w)) {
        kw = *cached;
      }
      if (kw == 2 || kw == 3) small_degrees.push_back(kw);
      ++i;
      ++j;
    }
  }
  return RemovalCriterionExtended(common, ku, kv, small_degrees);
}

bool MtoSampler::ClassifyEdge(NodeId u, NodeId& v) {
  if (config_.enable_removal && RemovableNow(u, v)) {
    // Connectivity guard: only remove when a detour provably exists in the
    // known overlay. When the region is still too unexplored to prove it,
    // keep the edge *unprocessed* so a later, better-informed visit can
    // retry the removal.
    if (overlay_.PathExistsAvoiding(u, v)) {
      overlay_.RemoveEdge(u, v);
      overlay_.MarkProcessed(u, v);
      return true;
    }
    return false;
  }
  if (config_.enable_replacement && ReplacementAllowed(overlay_.Degree(v))) {
    overlay_.MarkProcessed(u, v);
    if (rng().Bernoulli(config_.replace_probability)) {
      // Candidate w ∈ N*(v) \ {u} with (u,w) not already an overlay edge.
      std::vector<NodeId> candidates;
      for (NodeId w : overlay_.Neighbors(v)) {
        if (w != u && !overlay_.HasEdge(u, w)) candidates.push_back(w);
      }
      if (!candidates.empty()) {
        NodeId w = candidates[static_cast<size_t>(
            rng().UniformInt(candidates.size()))];
        if (Fetch(w)) {
          overlay_.RemoveEdge(u, v);
          overlay_.AddEdge(u, w);
          overlay_.MarkProcessed(u, w);
          v = w;  // the walk now considers the new edge's endpoint
        }
      }
    }
    return false;
  }
  overlay_.MarkProcessed(u, v);
  return false;
}

NodeId MtoSampler::Step() {
  moved_first_try_ = false;
  if (!Fetch(current())) return current();
  const NodeId u = current();
  for (uint32_t iter = 0; iter < config_.max_inner_iterations; ++iter) {
    const uint32_t deg = overlay_.Degree(u);
    if (deg == 0) return current();  // overlay-isolated: absorbing
    NodeId v = overlay_.Neighbors(u)[static_cast<size_t>(rng().UniformInt(deg))];
    if (!Fetch(v)) return current();  // budget exhausted
    if (!frozen_ && !overlay_.IsProcessed(u, v)) {
      if (ClassifyEdge(u, v)) continue;  // edge removed: pick again
    }
    if (!config_.lazy || rng().Bernoulli(0.5)) {
      moved_first_try_ = iter == 0;
      set_current(v);
      return v;
    }
    // Lazy branch: stay at u this iteration and re-pick (Algorithm 1's
    // `continue`).
  }
  return current();
}

std::optional<NodeId> MtoSampler::ProposeStep() {
  // Propose must never pay a query: the current node's neighborhood is
  // read only when it is already registered or answerable from cache.
  if (!overlay_.IsRegistered(current())) {
    if (!interface().IsCached(current()) || !Fetch(current())) {
      return std::nullopt;
    }
  }
  const uint32_t deg = overlay_.Degree(current());
  if (deg == 0) return std::nullopt;  // overlay-isolated: absorbing
  // Peek the pick Step() will open with, without consuming the stream:
  // the commit replays this exact draw from the same RNG state against the
  // same (walker-private, hence unchanged) overlay neighborhood.
  const std::array<uint64_t, 4> saved = rng().SaveState();
  const NodeId v = overlay_.Neighbors(
      current())[static_cast<size_t>(rng().UniformInt(deg))];
  rng().RestoreState(saved);
  return v;
}

void MtoSampler::PeekNextTargets(size_t width, std::vector<NodeId>& out) {
  // Unlike ProposeStep this must not register the current node even from
  // cache: registration mutates the overlay, and a peek is observation
  // only. An unregistered current node simply announces nothing.
  if (width == 0 || !overlay_.IsRegistered(current())) return;
  const uint32_t deg = overlay_.Degree(current());
  if (deg == 0) return;
  // Draw the next `width` uniform overlay-neighbor picks on a saved RNG:
  // draw 0 is exactly the propose's speculation; draws 1..k-1 are what a
  // commit-time re-pick (removal, lazy re-draw) reaches first, modulo the
  // classification draws interleaved between them — good enough for a
  // wall-clock-only hint.
  const std::array<uint64_t, 4> saved = rng().SaveState();
  const size_t before = out.size();
  for (size_t i = 0; i < width && out.size() - before < width; ++i) {
    const NodeId v = overlay_.Neighbors(
        current())[static_cast<size_t>(rng().UniformInt(deg))];
    if (std::find(out.begin() + static_cast<std::ptrdiff_t>(before),
                  out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  rng().RestoreState(saved);
}

NodeId MtoSampler::CommitStep(NodeId target) {
  // Re-validate by replaying the full step: the first pick re-derives
  // `target` (same RNG state, same overlay), then classification decides
  // whether the speculated edge survives. Any re-pick fetches individually
  // — a speculation miss — while the prefetched target stays a warm cache
  // entry the sequential path would have queried anyway.
  ++speculative_commits_;
  const NodeId result = Step();
  if (moved_first_try_ && result == target) ++speculation_hits_;
  return result;
}

double MtoSampler::CurrentDegreeForDiagnostic() {
  auto r = interface().QueryRef(current());
  return r ? static_cast<double>(r->degree()) : 0.0;
}

double MtoSampler::EstimateOverlayDegree(NodeId u) {
  if (!Fetch(u)) return 0.0;
  const uint32_t k_before = overlay_.Degree(u);
  if (k_before == 0) return 0.0;
  if (frozen_) return static_cast<double>(k_before);
  if (config_.weight_mode == OverlayDegreeMode::kOverlayView) {
    // Zero-cost refinement: classify incident edges whose far endpoint is
    // already in the local cache (their queries are free), then report the
    // overlay degree. Unclassified edges to unseen nodes count as surviving.
    if (config_.enable_removal) {
      const NeighborView view = overlay_.Neighbors(u);
      const std::vector<NodeId> snapshot(view.begin(), view.end());  // copy
      for (NodeId w : snapshot) {
        if (overlay_.IsProcessed(u, w)) continue;
        if (!overlay_.IsRegistered(w) && !interface().IsCached(w)) continue;
        if (!Fetch(w)) continue;  // registers from cache, never costs
        if (RemovableNow(u, w)) {
          if (!overlay_.PathExistsAvoiding(u, w)) continue;  // retry later
          overlay_.RemoveEdge(u, w);
        }
        overlay_.MarkProcessed(u, w);
      }
    }
    return static_cast<double>(overlay_.Degree(u));
  }
  const NeighborView view = overlay_.Neighbors(u);
  const std::vector<NodeId> snapshot(view.begin(), view.end());  // copy

  auto classify = [&](NodeId w) -> bool {
    // Returns true iff the edge (u, w) survives classification. Removals are
    // applied for real so the estimate and the walked topology agree.
    if (overlay_.IsProcessed(u, w)) return overlay_.HasEdge(u, w);
    if (!Fetch(w)) return true;  // cannot classify: count as surviving
    if (config_.enable_removal && RemovableNow(u, w)) {
      if (!overlay_.PathExistsAvoiding(u, w)) return true;  // retry later
      overlay_.RemoveEdge(u, w);
      overlay_.MarkProcessed(u, w);
      return false;
    }
    overlay_.MarkProcessed(u, w);
    return true;
  };

  const uint32_t probe = config_.degree_probe;
  if (config_.weight_mode == OverlayDegreeMode::kExact || probe == 0 ||
      probe >= k_before) {
    for (NodeId w : snapshot) classify(w);
    return static_cast<double>(overlay_.Degree(u));
  }
  uint32_t survive = 0;
  for (size_t idx : rng().SampleWithoutReplacement(k_before, probe)) {
    if (classify(snapshot[idx])) ++survive;
  }
  // Unbiased scale-up of the survival fraction (paper Section IV-A).
  return static_cast<double>(k_before) * static_cast<double>(survive) /
         static_cast<double>(probe);
}

double MtoSampler::ImportanceWeight() {
  double k_star = EstimateOverlayDegree(current());
  if (k_star <= 0.0) {
    // All probed edges removed; the node still has at least one overlay
    // edge (the guard forbids isolation), so fall back to the known view.
    k_star = static_cast<double>(
        overlay_.IsRegistered(current()) ? overlay_.Degree(current()) : 1);
    if (k_star <= 0.0) k_star = 1.0;
  }
  return 1.0 / k_star;
}

}  // namespace mto
