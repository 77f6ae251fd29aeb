#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/partitioner.hpp"
#include "net/ipv4.hpp"
#include "proto/periodic_sender.hpp"
#include "proto/stack.hpp"

namespace rtether::proto {
namespace {

sim::SimConfig test_config() {
  return sim::SimConfig{.ticks_per_slot = 100,
                        .propagation_ticks = 1,
                        .switch_processing_ticks = 1};
}

TEST(DataPath, MessageDeliversCapacityFrames) {
  Stack stack(test_config(), 4, std::make_unique<core::SymmetricPartitioner>());
  const auto channel = stack.establish(NodeId{0}, NodeId{1}, 100, 3, 40);
  ASSERT_TRUE(channel.has_value());

  std::vector<std::uint64_t> deliveries;
  stack.layer(NodeId{1}).set_data_callback(
      [&](const RxChannel& rx, const sim::SimFrame& frame, Tick) {
        EXPECT_EQ(rx.id, channel->id);
        deliveries.push_back(frame.id);
      });

  stack.layer(NodeId{0}).send_message(channel->id);
  EXPECT_TRUE(stack.network().simulator().run_all());

  // One message = C_i = 3 maximal frames.
  EXPECT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(stack.layer(NodeId{1}).rx_channels().at(channel->id)
                .frames_received,
            3u);
}

TEST(DataPath, FramesCarryPaperDeadlineEncoding) {
  Stack stack(test_config(), 4, std::make_unique<core::SymmetricPartitioner>());
  const auto channel = stack.establish(NodeId{0}, NodeId{1}, 100, 3, 40);
  ASSERT_TRUE(channel.has_value());

  std::vector<sim::SimFrame> received;
  stack.layer(NodeId{1}).set_data_callback(
      [&](const RxChannel&, const sim::SimFrame& frame, Tick) {
        received.push_back(frame);
      });

  const Tick release = stack.network().now();
  stack.layer(NodeId{0}).send_message(channel->id);
  EXPECT_TRUE(stack.network().simulator().run_all());

  ASSERT_EQ(received.size(), 3u);
  for (const auto& frame : received) {
    // The wire bytes must parse as a real IPv4 header with ToS 255 and the
    // §18.2.2 deadline encoding.
    ASSERT_EQ(frame.info.cls, sim::FrameClass::kRealTime);
    ASSERT_TRUE(frame.info.rt_tag.has_value());
    EXPECT_EQ(frame.info.rt_tag->channel, channel->id);
    EXPECT_EQ(frame.info.rt_tag->absolute_deadline,
              release + stack.network().config().slots_to_ticks(40));
    // Maximal frame on the wire (the analysis counts max-size frames).
    EXPECT_EQ(frame.wire_bytes(), kMaxFrameWireBytes);
  }
}

TEST(DataPath, StatsTrackSentAndDelivered) {
  Stack stack(test_config(), 4, std::make_unique<core::SymmetricPartitioner>());
  const auto channel = stack.establish(NodeId{0}, NodeId{1}, 100, 3, 40);
  ASSERT_TRUE(channel.has_value());
  stack.layer(NodeId{0}).send_message(channel->id);
  stack.layer(NodeId{0}).send_message(channel->id);
  EXPECT_TRUE(stack.network().simulator().run_all());

  const auto stats = stack.network().stats().channel(channel->id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->frames_sent, 6u);
  EXPECT_EQ(stats->frames_delivered, 6u);
  EXPECT_EQ(stats->deadline_misses, 0u);
}

TEST(DataPath, UnknownChannelFramesIgnoredByReceiver) {
  Stack stack(test_config(), 4, std::make_unique<core::SymmetricPartitioner>());
  const auto channel = stack.establish(NodeId{0}, NodeId{1}, 100, 3, 40);
  ASSERT_TRUE(channel.has_value());
  int callbacks = 0;
  stack.layer(NodeId{2}).set_data_callback(
      [&](const RxChannel&, const sim::SimFrame&, Tick) { ++callbacks; });
  // Node 2 never established anything; nothing should reach its callback.
  stack.layer(NodeId{0}).send_message(channel->id);
  EXPECT_TRUE(stack.network().simulator().run_all());
  EXPECT_EQ(callbacks, 0);
}

TEST(DataPath, SendOnUnestablishedChannelAsserts) {
  Stack stack(test_config(), 4, std::make_unique<core::SymmetricPartitioner>());
  EXPECT_DEATH(stack.layer(NodeId{0}).send_message(ChannelId(9)),
               "not established");
}

TEST(PeriodicSender, SendsEveryPeriod) {
  Stack stack(test_config(), 4, std::make_unique<core::SymmetricPartitioner>());
  const auto channel = stack.establish(NodeId{0}, NodeId{1}, 100, 3, 40);
  ASSERT_TRUE(channel.has_value());

  PeriodicRtSender sender(stack.layer(NodeId{0}), channel->id);
  sender.start();
  const Tick start = stack.network().now();
  EXPECT_TRUE(stack.network().simulator().run_until(
      start + stack.network().config().slots_to_ticks(999)));
  sender.stop();

  // Releases at +0, +100, …, +900 — ten messages in the first 999 slots.
  EXPECT_EQ(sender.messages_sent(), 10u);
  const auto stats = stack.network().stats().channel(channel->id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->frames_sent, 30u);
}

TEST(PeriodicSender, PhaseDelaysFirstRelease) {
  Stack stack(test_config(), 4, std::make_unique<core::SymmetricPartitioner>());
  const auto channel = stack.establish(NodeId{0}, NodeId{1}, 100, 3, 40);
  ASSERT_TRUE(channel.has_value());
  PeriodicRtSender sender(stack.layer(NodeId{0}), channel->id,
                          /*phase_slots=*/50);
  sender.start();
  const Tick start = stack.network().now();
  EXPECT_TRUE(stack.network().simulator().run_until(
      start + stack.network().config().slots_to_ticks(149)));
  // Releases at +50 only (next would be +150).
  EXPECT_EQ(sender.messages_sent(), 1u);
}

TEST(PeriodicSender, StartAllHelper) {
  Stack stack(test_config(), 6, std::make_unique<core::SymmetricPartitioner>());
  for (std::uint32_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(stack.establish(NodeId{0}, NodeId{i}, 100, 3, 40));
  }
  auto senders = start_senders_for_all_channels(stack.layer(NodeId{0}),
                                                /*stagger_slots=*/10);
  EXPECT_EQ(senders.size(), 3u);
  const Tick start = stack.network().now();
  EXPECT_TRUE(stack.network().simulator().run_until(
      start + stack.network().config().slots_to_ticks(95)));
  for (auto& s : senders) s->stop();
  // Phases 0, 10, 20 — all three released exactly once by slot 95.
  for (const auto& s : senders) {
    EXPECT_EQ(s->messages_sent(), 1u);
  }
}

}  // namespace
}  // namespace rtether::proto
