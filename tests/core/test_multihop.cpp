#include "core/multihop.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace rtether::core {
namespace {

ChannelSpec spec(std::uint32_t src, std::uint32_t dst, Slot p, Slot c,
                 Slot d) {
  return ChannelSpec{NodeId{src}, NodeId{dst}, p, c, d};
}

TEST(Apportion, EqualWeightsSplitEvenly) {
  SymmetricPathPartitioner sdps;
  PathNetworkState state(Topology::switch_line(3, 2));
  const auto path = state.topology().route(NodeId{0}, NodeId{5});
  ASSERT_TRUE(path.has_value());  // 4 hops
  const auto budgets = sdps.split(spec(0, 5, 100, 3, 40), *path, state);
  ASSERT_EQ(budgets.size(), 4u);
  Slot sum = 0;
  for (const Slot b : budgets) {
    EXPECT_GE(b, 10u);
    EXPECT_LE(b, 10u);
    sum += b;
  }
  EXPECT_EQ(sum, 40u);
}

TEST(Apportion, RemainderDistributedDeterministically) {
  SymmetricPathPartitioner sdps;
  PathNetworkState state(Topology::switch_line(3, 1));
  const auto path = state.topology().route(NodeId{0}, NodeId{2});
  ASSERT_TRUE(path.has_value());  // 4 hops
  const auto a = sdps.split(spec(0, 2, 100, 3, 41), *path, state);
  const auto b = sdps.split(spec(0, 2, 100, 3, 41), *path, state);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), Slot{0}), 41u);
}

TEST(Apportion, Near64BitDeadlineTerminatesAndStaysValid) {
  // Beyond 2⁵³ the weighted shares lose integer precision (ulp > 1): the
  // split must neither wrap its largest-remainder leftover into a ~2⁶⁴
  // iteration loop nor overflow the double→Slot cast — it falls back to
  // the exact even spread and still satisfies Eqs 18.8/18.9.
  SymmetricPathPartitioner sdps;
  PathNetworkState state(Topology::switch_line(3, 1));
  const auto path = state.topology().route(NodeId{0}, NodeId{2});
  ASSERT_TRUE(path.has_value());  // 4 hops
  const Slot huge = 0xffffffffffffffffULL;
  for (const Slot deadline : {huge, huge - 1, huge - 3}) {
    const auto request = spec(0, 2, huge, 1, deadline);
    const auto budgets = sdps.split(request, *path, state);
    ASSERT_EQ(budgets.size(), path->size());
    Slot sum = 0;
    for (const Slot b : budgets) {
      EXPECT_GE(b, request.capacity);
      sum += b;
    }
    EXPECT_EQ(sum, deadline);
  }
}

TEST(Apportion, MinimumDeadlineGivesCapacityEverywhere) {
  SymmetricPathPartitioner sdps;
  PathNetworkState state(Topology::switch_line(2, 1));
  const auto path = state.topology().route(NodeId{0}, NodeId{1});
  ASSERT_TRUE(path.has_value());  // 3 hops
  const auto budgets = sdps.split(spec(0, 1, 100, 5, 15), *path, state);
  EXPECT_EQ(budgets, (std::vector<Slot>{5, 5, 5}));
}

TEST(AdpsPath, HotTrunkReceivesLargerShare) {
  // Pre-load the trunk s0→s1 with channels; a new channel's trunk hop must
  // get the largest budget.
  PathNetworkState state(Topology::switch_line(2, 4));
  AsymmetricPathPartitioner adps;
  // Nodes 0..3 on s0, 4..7 on s1. Three channels 1→5, 2→6, 3→7 share the
  // trunk but different uplinks/downlinks.
  std::uint16_t next = 1;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const auto s = spec(i, 4 + i, 100, 3, 30);
    const auto path = state.topology().route(s.source, s.destination);
    MultihopChannel channel{ChannelId(next++), s, *path,
                            adps.split(s, *path, state)};
    state.add_channel(channel);
  }
  const auto s = spec(0, 4, 100, 3, 30);
  const auto path = state.topology().route(NodeId{0}, NodeId{4});
  const auto budgets = adps.split(s, *path, state);
  ASSERT_EQ(budgets.size(), 3u);
  // Weights: uplink 1, trunk 4, downlink 1 → trunk dominates.
  EXPECT_GT(budgets[1], budgets[0]);
  EXPECT_GT(budgets[1], budgets[2]);
  EXPECT_EQ(std::accumulate(budgets.begin(), budgets.end(), Slot{0}), 30u);
}

TEST(PathState, AddAndRemoveKeepLinksInSync) {
  PathNetworkState state(Topology::switch_line(2, 2));
  const auto s = spec(0, 3, 100, 3, 30);
  const auto path = state.topology().route(NodeId{0}, NodeId{3});
  MultihopChannel channel{ChannelId(1), s, *path, {10, 10, 10}};
  state.add_channel(channel);
  EXPECT_EQ(state.link_load(LinkId::uplink(NodeId{0})), 1u);
  EXPECT_EQ(state.link_load(LinkId::trunk(SwitchId{0}, SwitchId{1})), 1u);
  EXPECT_EQ(state.link_load(LinkId::downlink(NodeId{3})), 1u);
  EXPECT_EQ(state.link_load(LinkId::trunk(SwitchId{1}, SwitchId{0})), 0u);

  EXPECT_TRUE(state.remove_channel(ChannelId(1)));
  EXPECT_EQ(state.link_load(LinkId::uplink(NodeId{0})), 0u);
  EXPECT_EQ(state.link_load(LinkId::trunk(SwitchId{0}, SwitchId{1})), 0u);
  EXPECT_FALSE(state.remove_channel(ChannelId(1)));
}

TEST(PathAdmission, SingleSwitchMatchesTwoLinkController) {
  // On a single-switch topology the path controller must reproduce the
  // two-link controller's SDPS decisions exactly.
  PathAdmissionController multi(Topology::single_switch(10),
                                make_path_partitioner("SDPS"));
  AdmissionController classic(10,
                              std::make_unique<SymmetricPartitioner>());
  for (int i = 0; i < 10; ++i) {
    const auto s = spec(0, 1, 100, 3, 40);
    EXPECT_EQ(multi.request(s).has_value(),
              classic.request(s).has_value())
        << "diverged at request " << i;
  }
  EXPECT_EQ(multi.stats().accepted, classic.stats().accepted);
}

TEST(PathAdmission, TrunkBecomesTheBottleneck) {
  // 2-switch line, masters on s0 and slaves on s1: every channel crosses
  // the single trunk, which saturates first.
  PathAdmissionController controller(Topology::switch_line(2, 10),
                                     make_path_partitioner("SDPS"));
  std::size_t accepted = 0;
  for (std::uint32_t i = 0; i < 60; ++i) {
    // i-th request: node (i%10) on s0 → node 10 + (i%10) on s1.
    const auto s = spec(i % 10, 10 + (i + 3) % 10, 100, 3, 40);
    if (controller.request(s)) ++accepted;
  }
  // SDPS-3 gives the trunk ⌊40/3⌋ = 13 slots → ⌊13/3⌋ = 4 channels fit.
  EXPECT_EQ(accepted, 4u);
}

TEST(PathAdmission, AdpsRelievesTheTrunk) {
  PathAdmissionController sdps(Topology::switch_line(2, 10),
                               make_path_partitioner("SDPS"));
  PathAdmissionController adps(Topology::switch_line(2, 10),
                               make_path_partitioner("ADPS"));
  std::size_t sdps_accepted = 0;
  std::size_t adps_accepted = 0;
  for (std::uint32_t i = 0; i < 60; ++i) {
    const auto s = spec(i % 10, 10 + (i + 3) % 10, 100, 3, 40);
    if (sdps.request(s)) ++sdps_accepted;
    if (adps.request(s)) ++adps_accepted;
  }
  EXPECT_GT(adps_accepted, sdps_accepted);
}

TEST(PathAdmission, RejectsDeadlineBelowPathMinimum) {
  PathAdmissionController controller(Topology::switch_line(3, 2),
                                     make_path_partitioner("ADPS"));
  // 4-hop path (s0→s1→s2) with C=3 needs d ≥ 12.
  const auto tight = controller.request(spec(0, 5, 100, 3, 11));
  ASSERT_FALSE(tight.has_value());
  EXPECT_EQ(tight.error().reason, RejectReason::kInvalidSpec);
  EXPECT_NE(tight.error().detail.find("4-hop"), std::string::npos);
  EXPECT_TRUE(controller.request(spec(0, 5, 100, 3, 12)).has_value());
}

TEST(PathAdmission, NoRouteRejected) {
  Topology topology(2, 2);  // two islands
  topology.attach_node(NodeId{0}, SwitchId{0});
  topology.attach_node(NodeId{1}, SwitchId{1});
  PathAdmissionController controller(std::move(topology),
                                     make_path_partitioner("ADPS"));
  const auto result = controller.request(spec(0, 1, 100, 3, 40));
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().detail.find("no route"), std::string::npos);
}

TEST(PathAdmission, ReleaseRestoresTrunkCapacity) {
  PathAdmissionController controller(Topology::switch_line(2, 10),
                                     make_path_partitioner("SDPS"));
  std::vector<ChannelId> admitted;
  for (std::uint32_t i = 0; i < 60; ++i) {
    const auto s = spec(i % 10, 10 + (i + 3) % 10, 100, 3, 40);
    if (const auto r = controller.request(s)) {
      admitted.push_back(r->id);
    }
  }
  ASSERT_FALSE(admitted.empty());
  const auto again = spec(0, 13, 100, 3, 40);
  ASSERT_FALSE(controller.request(again).has_value());
  EXPECT_TRUE(controller.release(admitted.front()));
  EXPECT_TRUE(controller.request(again).has_value());
}

TEST(PathAdmission, RejectionLeavesNoResidueOnAnyHop) {
  PathAdmissionController controller(Topology::switch_line(2, 10),
                                     make_path_partitioner("SDPS"));
  for (std::uint32_t i = 0; i < 60; ++i) {
    (void)controller.request(spec(i % 10, 10 + (i + 3) % 10, 100, 3, 40));
  }
  const auto trunk_load =
      controller.state().link_load(LinkId::trunk(SwitchId{0}, SwitchId{1}));
  ASSERT_FALSE(
      controller.request(spec(0, 13, 100, 3, 40)).has_value());
  EXPECT_EQ(
      controller.state().link_load(LinkId::trunk(SwitchId{0}, SwitchId{1})),
      trunk_load);
}

/// A binary tree of `switches` switches (switch s hangs off (s - 1) / 2)
/// with `nodes_per_switch` nodes each, assigned switch-major.
Topology tree_fabric(std::uint32_t switches, std::uint32_t nodes_per_switch) {
  Topology topology(switches * nodes_per_switch, switches);
  for (std::uint32_t sw = 1; sw < switches; ++sw) {
    topology.connect_switches(SwitchId{(sw - 1) / 2}, SwitchId{sw});
  }
  for (std::uint32_t node = 0; node < topology.node_count(); ++node) {
    topology.attach_node(NodeId{node}, SwitchId{node / nodes_per_switch});
  }
  return topology;
}

struct OracleTally {
  std::size_t accepts{0};
  std::size_t rejects{0};
};

/// Seeded admit/release churn on a multi-switch fabric. Every `request` of
/// the cached controller must equal a from-scratch per-hop check built
/// here: the same route and partitioner split over a mirrored state, then
/// `check_feasibility(link ∪ task, kEverySlot)` hop by hop. The first
/// failing hop names the reason and the detail; an accept takes the
/// smallest free ID. Counts accepts and demand-test rejects into `tally`.
void expect_khop_oracle(const Topology& topology, const std::string& scheme,
                        std::uint64_t seed, std::size_t ops,
                        OracleTally& tally) {
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200};
  PathAdmissionController controller(topology, make_path_partitioner(scheme));
  const auto partitioner = make_path_partitioner(scheme);
  PathNetworkState mirror(topology);
  ChannelIdAllocator ids;
  std::vector<ChannelId> live;
  Rng rng(seed);
  const auto nodes = topology.node_count();
  for (std::size_t op = 0; op < ops; ++op) {
    const std::string where = scheme + " op " + std::to_string(op);
    if (!live.empty() && rng.bernoulli(0.3)) {
      const std::size_t victim = rng.index(live.size());
      const ChannelId id = live[victim];
      live[victim] = live.back();
      live.pop_back();
      const auto released = controller.release(id);
      EXPECT_TRUE(released.has_value()) << where;
      EXPECT_TRUE(mirror.remove_channel(id)) << where;
      EXPECT_TRUE(ids.release(id)) << where;
      continue;
    }
    const auto src = static_cast<std::uint32_t>(rng.index(nodes));
    auto dst = static_cast<std::uint32_t>(rng.index(nodes));
    if (dst == src) {
      dst = (dst + 1) % nodes;
    }
    const auto path = topology.route(NodeId{src}, NodeId{dst});
    ASSERT_TRUE(path.has_value()) << where;
    const Slot period = kPeriods[rng.index(std::size(kPeriods))];
    const Slot capacity = 1 + rng.index(4);
    const Slot floor = capacity * path->size();
    const ChannelSpec request =
        spec(src, dst, period, capacity, floor + rng.index(period - floor + 1));

    const auto actual = controller.request(request);

    // The from-scratch oracle.
    const auto deadlines = partitioner->split(request, *path, mirror);
    const auto id = ids.allocate();
    ASSERT_TRUE(id.has_value()) << where;
    std::optional<Rejection> expected_rejection;
    for (std::size_t hop = 0; hop < path->size(); ++hop) {
      edf::TaskSet link = mirror.link((*path)[hop]);
      link.add({*id, period, capacity, deadlines[hop]});
      const auto report =
          edf::check_feasibility(link, edf::DemandScan::kEverySlot);
      if (!report.feasible) {
        expected_rejection = Rejection{
            (*path)[hop].kind == LinkId::Kind::kUplink
                ? RejectReason::kUplinkInfeasible
                : RejectReason::kDownlinkInfeasible,
            (*path)[hop].to_string() + ": " + report.summary()};
        break;
      }
    }

    if (expected_rejection) {
      ids.release(*id);
      ++tally.rejects;
      ASSERT_FALSE(actual.has_value()) << where << " " << request.to_string();
      EXPECT_EQ(actual.error(), *expected_rejection) << where;
      continue;
    }
    ASSERT_TRUE(actual.has_value())
        << where << " " << request.to_string() << ": "
        << actual.error().detail;
    const MultihopChannel expected{*id, request, *path, deadlines};
    EXPECT_EQ(actual->id, expected.id) << where;
    EXPECT_EQ(actual->spec, expected.spec) << where;
    EXPECT_EQ(actual->path, expected.path) << where;
    EXPECT_EQ(actual->deadlines, expected.deadlines) << where;
    mirror.add_channel(expected);
    live.push_back(*id);
    ++tally.accepts;
  }
  EXPECT_EQ(controller.state().channel_count(), mirror.channel_count());
}

TEST(PathAdmission, CachedTrialsMatchFromScratchOracleOnSwitchLine) {
  for (const char* scheme : {"SDPS", "ADPS"}) {
    OracleTally tally;
    expect_khop_oracle(Topology::switch_line(3, 3), scheme, 91, 300, tally);
    EXPECT_GT(tally.accepts, 0u) << scheme;
    EXPECT_GT(tally.rejects, 0u) << scheme;
  }
}

TEST(PathAdmission, CachedTrialsMatchFromScratchOracleOnTree) {
  for (const char* scheme : {"SDPS", "ADPS"}) {
    OracleTally tally;
    expect_khop_oracle(tree_fabric(7, 2), scheme, 92, 300, tally);
    EXPECT_GT(tally.accepts, 0u) << scheme;
    EXPECT_GT(tally.rejects, 0u) << scheme;
  }
}

TEST(MultihopChannelStruct, PartitionValidity) {
  MultihopChannel channel;
  channel.spec = spec(0, 1, 100, 3, 30);
  channel.path = {LinkId::uplink(NodeId{0}),
                  LinkId::trunk(SwitchId{0}, SwitchId{1}),
                  LinkId::downlink(NodeId{1})};
  channel.deadlines = {10, 10, 10};
  EXPECT_TRUE(channel.partition_valid());
  channel.deadlines = {10, 10, 11};  // sum ≠ d
  EXPECT_FALSE(channel.partition_valid());
  channel.deadlines = {2, 14, 14};  // hop below C
  EXPECT_FALSE(channel.partition_valid());
  channel.deadlines = {10, 20};  // arity mismatch
  EXPECT_FALSE(channel.partition_valid());
}

}  // namespace
}  // namespace rtether::core
