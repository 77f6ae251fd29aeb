#pragma once

/// @file network_state.hpp
/// The "system state" SS = {N, K} of paper §18.3.2: the set of end-nodes
/// plus the set of active RT channels, projected onto per-link-direction
/// EDF task sets. Each full-duplex link contributes two independent
/// "processors": the uplink (node → switch) and the downlink
/// (switch → node).

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/channel.hpp"
#include "edf/task_set.hpp"

namespace rtether::core {

/// Which direction of a node's full-duplex link to the switch.
enum class LinkDirection : std::uint8_t {
  kUplink,    ///< node → switch; scheduled by the node's RT layer
  kDownlink,  ///< switch → node; scheduled by the switch's output port
};

[[nodiscard]] const char* to_string(LinkDirection dir);

class NetworkState {
 public:
  /// A star network with `node_count` end-nodes (IDs 0 … node_count−1),
  /// all connected to the single switch.
  explicit NetworkState(std::uint32_t node_count);

  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(uplinks_.size());
  }

  [[nodiscard]] bool node_exists(NodeId node) const {
    return node.value() < node_count();
  }

  /// Task set scheduled on one link direction.
  [[nodiscard]] const edf::TaskSet& link(NodeId node,
                                         LinkDirection dir) const;

  /// LinkLoad LL — the number of channels traversing the link direction
  /// (paper §18.4.2).
  [[nodiscard]] std::size_t link_load(NodeId node, LinkDirection dir) const {
    return link(node, dir).size();
  }

  /// Inserts the channel's two pseudo-tasks (uplink at the source, downlink
  /// at the destination) and registers the channel. Asserts the ID is new
  /// and both nodes exist.
  void add_channel(const RtChannel& channel);

  /// Removes a channel and its pseudo-tasks and returns the removed
  /// channel; nullopt if unknown.
  std::optional<RtChannel> remove_channel(ChannelId id);

  /// Installs a wholesale copy of one link direction's task set — the shard
  /// projection used by the parallel admission engine. A worker's private
  /// state mirrors only the links its shard owns, byte-for-byte: task order
  /// and the accumulated floating-point utilization are preserved exactly,
  /// so load-weighted partitioners (ADPS/UDPS) see the same numbers they
  /// would on the full state. The channel registry is NOT updated; a
  /// projected state answers link-level queries only (`link`, `link_load`,
  /// `link_utilization`), which is all a `DeadlinePartitioner` reads.
  void adopt_link(NodeId node, LinkDirection dir, edf::TaskSet tasks);

  /// Drops `id`'s pseudo-task from one link direction without touching the
  /// registry — the shard-side half of a release in the parallel engine,
  /// applied to an `adopt_link` projection (the registry half runs on the
  /// full state at merge). False if the link carries no task for `id`.
  bool remove_link_task(NodeId node, LinkDirection dir, ChannelId id);

  [[nodiscard]] std::optional<RtChannel> find_channel(ChannelId id) const;

  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

  /// All active channels (unordered).
  [[nodiscard]] std::vector<RtChannel> channels() const;

  /// Sum of C_i/P_i over channels on the given link direction, as a double
  /// (reporting only; admission decisions use the exact Rational).
  [[nodiscard]] double link_utilization(NodeId node, LinkDirection dir) const;

 private:
  [[nodiscard]] edf::TaskSet& link_mutable(NodeId node, LinkDirection dir);

  std::vector<edf::TaskSet> uplinks_;
  std::vector<edf::TaskSet> downlinks_;
  std::unordered_map<ChannelId, RtChannel> channels_;

  friend class AdmissionController;  // tentative add/remove during the test
};

}  // namespace rtether::core
