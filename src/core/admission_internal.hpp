#pragma once

/// @file admission_internal.hpp
/// Admission internals shared between `AdmissionEngine` (the sequential
/// batched pipeline) and `ParallelAdmissionEngine` (the sharded one, which
/// the resident `AdmissionService` also runs). Both must reach bit-identical
/// decisions and diagnostics to the reference `AdmissionController`, so the
/// candidate trial itself, every rejection string and the link-conflict
/// partitioning primitives live in exactly one place. Not part of the
/// public API surface.

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/channel.hpp"
#include "core/network_state.hpp"
#include "edf/feasibility.hpp"

namespace rtether::core::admission_internal {

/// "<spec> is invalid", plus the d < 2C explanation when that is the cause —
/// exactly the string `AdmissionController::request` rejects with.
[[nodiscard]] std::string invalid_spec_detail(const ChannelSpec& spec);

/// "<side><node>: <report summary>" — the per-link rejection diagnostic.
[[nodiscard]] std::string link_rejection_detail(
    const char* side, NodeId node, const edf::FeasibilityReport& report);

/// The cache-backed candidate trial: test the two pseudo-tasks against the
/// source uplink and destination downlink via their `LinkScanCache`s, and on
/// success commit the channel into `state` and both caches. On failure,
/// fills `reason`/`detail` and leaves state and caches untouched (trials are
/// const; the grid is re-memoized via `reserve_horizon` so repeated trials
/// stay O(checkpoints)). `state` may be the engine's real network state or a
/// worker's shard-local projection — the caches passed in must shadow the
/// two affected link directions of that same state.
bool cached_candidate_test(NetworkState& state,
                           edf::LinkScanCache& uplink_cache,
                           edf::LinkScanCache& downlink_cache,
                           AdmissionStats& stats, const ChannelSpec& spec,
                           ChannelId id, const DeadlinePartition& partition,
                           RejectReason& reason, std::string& detail);

/// Batch pre-pass for one link direction: sizes the cache's checkpoint grid
/// once for all of `batch_specs` (busy-period fixed point of set ∪ batch,
/// capped by the hyperperiod of set ∪ batch), so per-request trials never
/// extend it piecemeal. `set` is the link's current task set; a no-op when
/// the aggregate diverges or overflows (lazy extension covers it).
void reserve_link_horizon(const edf::TaskSet& set, edf::LinkScanCache& cache,
                          const std::vector<ChannelSpec>& batch_specs);

/// Registry/ID/stat bookkeeping shared by every release path: removes the
/// channel from `state`, frees its ID and counts the release. Returns the
/// removed channel, or nullopt when `id` is unknown (nothing mutated).
/// Cache maintenance is the caller's job (the reference controller has no
/// caches; the engines `LinkScanCache::downdate` each affected link
/// direction).
[[nodiscard]] std::optional<RtChannel> release_channel(NetworkState& state,
                                                       ChannelIdAllocator& ids,
                                                       AdmissionStats& stats,
                                                       ChannelId id);

/// "channel <id> is not live" — the shared teardown-of-unknown-ID
/// diagnostic; every release path must reject with exactly this string.
[[nodiscard]] std::string unknown_channel_detail(ChannelId id);

/// Folds a release verdict into the typed outcome every release path
/// returns: the released ID on success, `kUnknownChannel` otherwise.
[[nodiscard]] ReleaseOutcome make_release_outcome(bool released, ChannelId id);

// ---------------------------------------------------------------------------
// Link-conflict partitioning primitives of the parallel engine's shard
// phase. A channel occupies exactly two link directions (source uplink,
// destination downlink); components of the conflict graph over those keys
// can be decided independently.

/// Dense key for one link direction.
[[nodiscard]] inline std::size_t link_key(NodeId node, LinkDirection dir) {
  return std::size_t{node.value()} * 2 +
         (dir == LinkDirection::kUplink ? 0 : 1);
}

[[nodiscard]] inline NodeId key_node(std::size_t key) {
  return NodeId{static_cast<NodeId::rep_type>(key / 2)};
}

[[nodiscard]] inline LinkDirection key_direction(std::size_t key) {
  return key % 2 == 0 ? LinkDirection::kUplink : LinkDirection::kDownlink;
}

/// Union-find over link-direction keys (path halving + union by size).
class LinkUnionFind {
 public:
  explicit LinkUnionFind(std::size_t keys)
      : parent_(keys), size_(keys, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  [[nodiscard]] std::uint32_t find(std::size_t key) {
    auto k = static_cast<std::uint32_t>(key);
    while (parent_[k] != k) {
      parent_[k] = parent_[parent_[k]];  // path halving
      k = parent_[k];
    }
    return k;
  }

  /// Unites the two components (the smaller under the larger). No-op when
  /// already united.
  void unite(std::size_t a, std::size_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) {
      return;
    }
    if (size_[ra] < size_[rb]) {
      std::swap(ra, rb);
    }
    parent_[rb] = ra;
    size_[ra] += size_[rb];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace rtether::core::admission_internal
