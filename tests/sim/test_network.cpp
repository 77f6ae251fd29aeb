#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.hpp"
#include "net/deadline_codec.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "sim/addressing.hpp"

namespace rtether::sim {
namespace {

SimFrame make_rt_frame(SimNetwork& net, NodeId from, NodeId to,
                       Tick absolute_deadline, std::uint16_t channel) {
  net::Ipv4Header ip;
  ip.protocol = net::IpProtocol::kUdp;
  ip.total_length = 1500;
  net::encode_rt_tag({absolute_deadline, ChannelId(channel)}, ip);
  net::EthernetHeader ethernet;
  ethernet.source = node_mac(from);
  ethernet.destination = node_mac(to);
  ethernet.ether_type = net::EtherType::kIpv4;
  ByteWriter w;
  ethernet.serialize(w);
  ip.serialize(w);
  return SimFrame::make(net.next_frame_id(), std::move(w).take(), 1466,
                        net.now(), from);
}

SimFrame make_be_frame(SimNetwork& net, NodeId from, net::MacAddress to) {
  net::EthernetHeader ethernet;
  ethernet.source = node_mac(from);
  ethernet.destination = to;
  ethernet.ether_type = net::EtherType::kIpv4;
  ByteWriter w;
  ethernet.serialize(w);
  return SimFrame::make(net.next_frame_id(), std::move(w).take(), 100,
                        net.now(), from);
}

SimConfig test_config() {
  return SimConfig{.ticks_per_slot = 100,
                   .propagation_ticks = 1,
                   .switch_processing_ticks = 2};
}

TEST(SimNetwork, DeliversRtFrameEndToEnd) {
  SimNetwork net(test_config(), 3);
  net.prime_forwarding();

  std::vector<std::uint64_t> received;
  Tick delivered_at = 0;
  net.node(NodeId{1}).set_receiver([&](const SimFrame& f, Tick now) {
    received.push_back(f.id);
    delivered_at = now;
  });

  auto frame = make_rt_frame(net, NodeId{0}, NodeId{1}, 100'000, 5);
  const auto id = frame.id;
  net.node(NodeId{0}).send_rt(100'000, std::move(frame));
  EXPECT_TRUE(net.simulator().run_all());

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], id);
  // uplink tx (100) + prop (1) + processing (2) + downlink tx (100) + prop
  // (1) = 204 ticks.
  EXPECT_EQ(delivered_at, 204u);
  EXPECT_EQ(net.ethernet_switch().stats().rt_forwarded, 1u);
}

TEST(SimNetwork, RecordsDeliveryStats) {
  SimNetwork net(test_config(), 3);
  net.prime_forwarding();
  net.stats().record_rt_sent(ChannelId(5));
  net.node(NodeId{0}).send_rt(
      100'000, make_rt_frame(net, NodeId{0}, NodeId{1}, 100'000, 5));
  EXPECT_TRUE(net.simulator().run_all());

  const auto stats = net.stats().channel(ChannelId(5));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->frames_sent, 1u);
  EXPECT_EQ(stats->frames_delivered, 1u);
  EXPECT_EQ(stats->deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(stats->delay_ticks.max(), 204.0);
}

TEST(SimNetwork, LateFrameCountsAsMiss) {
  SimNetwork net(test_config(), 3);
  net.prime_forwarding();
  net.set_miss_allowance(0);
  // Absolute deadline 50 ticks from now, but the path takes 204.
  net.node(NodeId{0}).send_rt(
      50, make_rt_frame(net, NodeId{0}, NodeId{1}, 50, 5));
  EXPECT_TRUE(net.simulator().run_all());
  const auto stats = net.stats().channel(ChannelId(5));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->deadline_misses, 1u);
  EXPECT_EQ(stats->worst_lateness_ticks, 204 - 50);
}

TEST(SimNetwork, SwitchEdfReordersByAbsoluteDeadline) {
  // Two senders converge on one downlink; the frame with the earlier
  // absolute deadline (from the IP header) must come out first even though
  // it arrives second.
  SimNetwork net(test_config(), 4);
  net.prime_forwarding();

  std::vector<std::uint16_t> order;
  net.node(NodeId{2}).set_receiver([&](const SimFrame& f, Tick) {
    order.push_back(f.info.rt_tag->channel.value());
  });

  // Node 0 sends channel 1 (late deadline) at t=0; node 1 sends channel 2
  // (early deadline) at t=0. Both arrive at the switch at t≈101; the
  // downlink transmits one at a time.
  net.node(NodeId{0}).send_rt(
      900'000, make_rt_frame(net, NodeId{0}, NodeId{2}, 900'000, 1));
  net.node(NodeId{0}).send_rt(
      900'000, make_rt_frame(net, NodeId{0}, NodeId{2}, 900'000, 1));
  net.node(NodeId{1}).send_rt(
      500, make_rt_frame(net, NodeId{1}, NodeId{2}, 500, 2));
  EXPECT_TRUE(net.simulator().run_all());

  ASSERT_EQ(order.size(), 3u);
  // The first channel-1 frame and the channel-2 frame reach the egress port
  // at the same tick; the port's same-tick arbitration must grant the wire
  // by EDF key, so channel 2 (deadline 500) beats both channel-1 frames
  // (deadline 900000) regardless of event execution order within the tick.
  // FCFS would give 1,1,2; the pre-arbitration transmitter gave 1,2,1.
  EXPECT_EQ(order, (std::vector<std::uint16_t>{2, 1, 1}));
}

TEST(SimNetwork, UnknownRtDestinationDropped) {
  SimNetwork net(test_config(), 3);  // forwarding NOT primed
  std::vector<std::uint64_t> received;
  net.node(NodeId{1}).set_receiver(
      [&](const SimFrame& f, Tick) { received.push_back(f.id); });
  net.node(NodeId{0}).send_rt(
      100'000, make_rt_frame(net, NodeId{0}, NodeId{1}, 100'000, 5));
  EXPECT_TRUE(net.simulator().run_all());
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(net.ethernet_switch().stats().rt_dropped_unknown_destination,
            1u);
}

TEST(SimNetwork, UnknownBestEffortFloods) {
  SimNetwork net(test_config(), 4);
  int deliveries = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    net.node(NodeId{n}).set_receiver(
        [&](const SimFrame&, Tick) { ++deliveries; });
  }
  // Destination MAC never learned → flood to all ports except ingress.
  net.node(NodeId{0}).send_best_effort(
      make_be_frame(net, NodeId{0}, node_mac(NodeId{2})));
  EXPECT_TRUE(net.simulator().run_all());
  EXPECT_EQ(deliveries, 3);
  EXPECT_EQ(net.ethernet_switch().stats().flooded, 1u);
}

TEST(SimNetwork, LearnedUnicastGoesToOnePort) {
  SimNetwork net(test_config(), 4);
  int deliveries = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    net.node(NodeId{n}).set_receiver(
        [&](const SimFrame&, Tick) { ++deliveries; });
  }
  // Node 2 says something first so the switch learns its port.
  net.node(NodeId{2}).send_best_effort(
      make_be_frame(net, NodeId{2}, node_mac(NodeId{0})));
  EXPECT_TRUE(net.simulator().run_all());
  deliveries = 0;
  net.node(NodeId{0}).send_best_effort(
      make_be_frame(net, NodeId{0}, node_mac(NodeId{2})));
  EXPECT_TRUE(net.simulator().run_all());
  EXPECT_EQ(deliveries, 1);
}

TEST(SimNetwork, BroadcastFloods) {
  SimNetwork net(test_config(), 5);
  net.prime_forwarding();
  int deliveries = 0;
  for (std::uint32_t n = 0; n < 5; ++n) {
    net.node(NodeId{n}).set_receiver(
        [&](const SimFrame&, Tick) { ++deliveries; });
  }
  net.node(NodeId{0}).send_best_effort(
      make_be_frame(net, NodeId{0}, net::broadcast_mac()));
  EXPECT_TRUE(net.simulator().run_all());
  EXPECT_EQ(deliveries, 4);  // everyone but the sender
}

TEST(SimNetwork, FcfsBaselineModeBypassesEdf) {
  auto config = test_config();
  config.edf_enabled = false;
  SimNetwork net(config, 3);
  net.prime_forwarding();

  std::vector<std::uint16_t> order;
  net.node(NodeId{2}).set_receiver([&](const SimFrame& f, Tick) {
    order.push_back(f.info.rt_tag->channel.value());
  });
  // Same-uplink frames: EDF would send channel 2 (deadline 500) first;
  // FCFS keeps arrival order 1, 1, 2.
  net.node(NodeId{0}).send_rt(
      900'000, make_rt_frame(net, NodeId{0}, NodeId{2}, 900'000, 1));
  net.node(NodeId{0}).send_rt(
      900'000, make_rt_frame(net, NodeId{0}, NodeId{2}, 900'000, 1));
  net.node(NodeId{0}).send_rt(
      500, make_rt_frame(net, NodeId{0}, NodeId{2}, 500, 2));
  EXPECT_TRUE(net.simulator().run_all());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(SimNetwork, UtilizationAccounting) {
  SimNetwork net(test_config(), 2);
  net.prime_forwarding();
  for (int i = 0; i < 5; ++i) {
    net.node(NodeId{0}).send_rt(
        1'000'000, make_rt_frame(net, NodeId{0}, NodeId{1}, 1'000'000, 1));
  }
  EXPECT_TRUE(net.simulator().run_all());
  EXPECT_GT(net.uplink_utilization(NodeId{0}), 0.5);
  EXPECT_GT(net.downlink_utilization(NodeId{1}), 0.5);
  EXPECT_EQ(net.uplink_utilization(NodeId{1}), 0.0);
}

}  // namespace
}  // namespace rtether::sim
