#include "core/network_state.hpp"

#include <utility>

#include "common/assert.hpp"

namespace rtether::core {

const char* to_string(LinkDirection dir) {
  return dir == LinkDirection::kUplink ? "uplink" : "downlink";
}

NetworkState::NetworkState(std::uint32_t node_count)
    : uplinks_(node_count), downlinks_(node_count) {
  RTETHER_ASSERT_MSG(node_count >= 1, "network needs at least one node");
}

const edf::TaskSet& NetworkState::link(NodeId node, LinkDirection dir) const {
  RTETHER_ASSERT(node_exists(node));
  return dir == LinkDirection::kUplink ? uplinks_[node.value()]
                                       : downlinks_[node.value()];
}

edf::TaskSet& NetworkState::link_mutable(NodeId node, LinkDirection dir) {
  RTETHER_ASSERT(node_exists(node));
  return dir == LinkDirection::kUplink ? uplinks_[node.value()]
                                       : downlinks_[node.value()];
}

void NetworkState::add_channel(const RtChannel& channel) {
  RTETHER_ASSERT(node_exists(channel.spec.source));
  RTETHER_ASSERT(node_exists(channel.spec.destination));
  RTETHER_ASSERT_MSG(!channels_.contains(channel.id),
                     "duplicate RT channel ID");
  RTETHER_ASSERT_MSG(channel.partition.satisfies(channel.spec),
                     "partition violates Eq 18.8/18.9");

  link_mutable(channel.spec.source, LinkDirection::kUplink)
      .add({channel.id, channel.spec.period, channel.spec.capacity,
            channel.partition.uplink});
  link_mutable(channel.spec.destination, LinkDirection::kDownlink)
      .add({channel.id, channel.spec.period, channel.spec.capacity,
            channel.partition.downlink});
  channels_.emplace(channel.id, channel);
}

std::optional<RtChannel> NetworkState::remove_channel(ChannelId id) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) {
    return std::nullopt;
  }
  RtChannel channel = it->second;
  const bool up_removed =
      link_mutable(channel.spec.source, LinkDirection::kUplink).remove(id);
  const bool down_removed =
      link_mutable(channel.spec.destination, LinkDirection::kDownlink)
          .remove(id);
  RTETHER_ASSERT_MSG(up_removed && down_removed,
                     "channel registry out of sync with link task sets");
  channels_.erase(it);
  return channel;
}

void NetworkState::adopt_link(NodeId node, LinkDirection dir,
                              edf::TaskSet tasks) {
  link_mutable(node, dir) = std::move(tasks);
}

bool NetworkState::remove_link_task(NodeId node, LinkDirection dir,
                                    ChannelId id) {
  return link_mutable(node, dir).remove(id);
}

std::optional<RtChannel> NetworkState::find_channel(ChannelId id) const {
  const auto it = channels_.find(id);
  if (it == channels_.end()) return std::nullopt;
  return it->second;
}

std::vector<RtChannel> NetworkState::channels() const {
  std::vector<RtChannel> result;
  result.reserve(channels_.size());
  for (const auto& [id, channel] : channels_) {
    result.push_back(channel);
  }
  return result;
}

double NetworkState::link_utilization(NodeId node, LinkDirection dir) const {
  return link(node, dir).utilization();
}

}  // namespace rtether::core
