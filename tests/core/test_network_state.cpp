#include "core/network_state.hpp"

#include <gtest/gtest.h>

namespace rtether::core {
namespace {

RtChannel channel(std::uint16_t id, std::uint32_t src, std::uint32_t dst,
                  Slot p, Slot c, Slot du, Slot dd) {
  return RtChannel{ChannelId(id),
                   ChannelSpec{NodeId{src}, NodeId{dst}, p, c, du + dd},
                   DeadlinePartition{du, dd}};
}

TEST(NetworkState, StartsEmpty) {
  const NetworkState state(5);
  EXPECT_EQ(state.node_count(), 5u);
  EXPECT_EQ(state.channel_count(), 0u);
  for (std::uint32_t n = 0; n < 5; ++n) {
    EXPECT_EQ(state.link_load(NodeId{n}, LinkDirection::kUplink), 0u);
    EXPECT_EQ(state.link_load(NodeId{n}, LinkDirection::kDownlink), 0u);
  }
}

TEST(NetworkState, NodeExistence) {
  const NetworkState state(3);
  EXPECT_TRUE(state.node_exists(NodeId{0}));
  EXPECT_TRUE(state.node_exists(NodeId{2}));
  EXPECT_FALSE(state.node_exists(NodeId{3}));
}

TEST(NetworkState, AddChannelPopulatesBothLinkDirections) {
  NetworkState state(4);
  state.add_channel(channel(1, 0, 2, 100, 3, 20, 20));

  // Source uplink gets the d_iu task…
  const auto& up = state.link(NodeId{0}, LinkDirection::kUplink);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up.tasks()[0].deadline, 20u);
  EXPECT_EQ(up.tasks()[0].capacity, 3u);

  // …the destination downlink gets the d_id task…
  const auto& down = state.link(NodeId{2}, LinkDirection::kDownlink);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down.tasks()[0].deadline, 20u);

  // …and nothing else is touched.
  EXPECT_EQ(state.link_load(NodeId{0}, LinkDirection::kDownlink), 0u);
  EXPECT_EQ(state.link_load(NodeId{2}, LinkDirection::kUplink), 0u);
  EXPECT_EQ(state.link_load(NodeId{1}, LinkDirection::kUplink), 0u);
}

TEST(NetworkState, AsymmetricPartitionLandsOnCorrectLinks) {
  NetworkState state(2);
  state.add_channel(channel(1, 0, 1, 100, 3, 33, 7));
  EXPECT_EQ(state.link(NodeId{0}, LinkDirection::kUplink).tasks()[0].deadline,
            33u);
  EXPECT_EQ(
      state.link(NodeId{1}, LinkDirection::kDownlink).tasks()[0].deadline,
      7u);
}

TEST(NetworkState, RemoveChannelCleansBothSides) {
  NetworkState state(3);
  const auto first = channel(1, 0, 1, 100, 3, 20, 20);
  state.add_channel(first);
  state.add_channel(channel(2, 0, 2, 100, 3, 20, 20));
  EXPECT_EQ(state.link_load(NodeId{0}, LinkDirection::kUplink), 2u);

  EXPECT_EQ(state.remove_channel(ChannelId(1)), first);
  EXPECT_EQ(state.channel_count(), 1u);
  EXPECT_EQ(state.link_load(NodeId{0}, LinkDirection::kUplink), 1u);
  EXPECT_EQ(state.link_load(NodeId{1}, LinkDirection::kDownlink), 0u);
  EXPECT_EQ(state.link_load(NodeId{2}, LinkDirection::kDownlink), 1u);
}

TEST(NetworkState, RemoveUnknownChannelFails) {
  NetworkState state(2);
  EXPECT_FALSE(state.remove_channel(ChannelId(9)).has_value());
}

TEST(NetworkState, FindChannel) {
  NetworkState state(2);
  const auto ch = channel(7, 0, 1, 100, 3, 25, 15);
  state.add_channel(ch);
  const auto found = state.find_channel(ChannelId(7));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, ch);
  EXPECT_FALSE(state.find_channel(ChannelId(8)).has_value());
}

TEST(NetworkState, ChannelsListsAll) {
  NetworkState state(3);
  state.add_channel(channel(1, 0, 1, 100, 3, 20, 20));
  state.add_channel(channel(2, 1, 2, 100, 3, 20, 20));
  EXPECT_EQ(state.channels().size(), 2u);
}

TEST(NetworkState, SelfChannelUsesBothOwnLinks) {
  // A node sending to itself still traverses uplink + downlink through the
  // switch — legal, if unusual.
  NetworkState state(1);
  state.add_channel(channel(1, 0, 0, 100, 3, 20, 20));
  EXPECT_EQ(state.link_load(NodeId{0}, LinkDirection::kUplink), 1u);
  EXPECT_EQ(state.link_load(NodeId{0}, LinkDirection::kDownlink), 1u);
}

TEST(NetworkState, LinkUtilizationReporting) {
  NetworkState state(2);
  state.add_channel(channel(1, 0, 1, 100, 3, 20, 20));
  state.add_channel(channel(2, 0, 1, 50, 5, 20, 20));
  EXPECT_DOUBLE_EQ(state.link_utilization(NodeId{0}, LinkDirection::kUplink),
                   0.03 + 0.1);
  EXPECT_DOUBLE_EQ(
      state.link_utilization(NodeId{1}, LinkDirection::kDownlink),
      0.03 + 0.1);
  EXPECT_DOUBLE_EQ(state.link_utilization(NodeId{1}, LinkDirection::kUplink),
                   0.0);
}

TEST(NetworkState, DuplicateIdAsserts) {
  NetworkState state(2);
  state.add_channel(channel(1, 0, 1, 100, 3, 20, 20));
  EXPECT_DEATH(state.add_channel(channel(1, 1, 0, 100, 3, 20, 20)),
               "duplicate RT channel ID");
}

TEST(NetworkState, BadPartitionAsserts) {
  NetworkState state(2);
  RtChannel bad{ChannelId(1), ChannelSpec{NodeId{0}, NodeId{1}, 100, 3, 40},
                DeadlinePartition{30, 30}};  // sum ≠ d
  EXPECT_DEATH(state.add_channel(bad), "Eq 18.8");
}

TEST(LinkDirection, Names) {
  EXPECT_STREQ(to_string(LinkDirection::kUplink), "uplink");
  EXPECT_STREQ(to_string(LinkDirection::kDownlink), "downlink");
}

}  // namespace
}  // namespace rtether::core
