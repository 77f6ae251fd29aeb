// Property-based tests for deadline-partitioning schemes: Eqs 18.8/18.9
// must hold for every partitioner on every valid spec and system state, and
// the admission controller must never corrupt its state across randomized
// request/release interleavings.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "common/random.hpp"
#include "core/admission.hpp"
#include "core/partitioner.hpp"
#include "edf/feasibility.hpp"
#include "traffic/master_slave.hpp"

namespace rtether::core {
namespace {

ChannelSpec random_spec(Rng& rng, std::uint32_t nodes) {
  const auto source = static_cast<std::uint32_t>(rng.index(nodes));
  auto destination = static_cast<std::uint32_t>(rng.index(nodes - 1));
  if (destination >= source) ++destination;
  const Slot period = 10 + rng.index(400);
  const Slot capacity = 1 + rng.index(std::min<Slot>(period, 8));
  const Slot deadline = 2 * capacity + rng.index(2 * period);
  return ChannelSpec{NodeId{source}, NodeId{destination}, period, capacity,
                     deadline};
}

struct SchemeCase {
  const char* name;
};

// The scheme is a std::string, not a const char*: gtest prints a pointer
// parameter by its address, and gtest_discover_tests copies that printout
// into the ctest name, so every build would register different names.
class PartitionProperties
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, PartitionProperties,
    ::testing::Combine(::testing::Values("SDPS", "ADPS", "UDPS", "Search"),
                       ::testing::Range<std::uint64_t>(0, 8)),
    [](const auto& combo_info) {
      return std::string(std::get<0>(combo_info.param)) + "_seed" +
             std::to_string(std::get<1>(combo_info.param));
    });

TEST_P(PartitionProperties, EveryCandidateSatisfiesPaperEquations) {
  const auto [scheme, seed] = GetParam();
  Rng rng(seed);
  const auto partitioner = make_partitioner(scheme);

  NetworkState state(12);
  std::uint16_t next_id = 1;
  for (int iteration = 0; iteration < 60; ++iteration) {
    const auto spec = random_spec(rng, 12);
    ASSERT_TRUE(spec.valid());
    const auto candidates = partitioner->candidates(spec, state);
    ASSERT_FALSE(candidates.empty());
    for (const auto& partition : candidates) {
      EXPECT_EQ(partition.uplink + partition.downlink, spec.deadline)
          << "Eq 18.8 violated by " << scheme;
      EXPECT_GE(partition.uplink, spec.capacity)
          << "Eq 18.9 (uplink) violated by " << scheme;
      EXPECT_GE(partition.downlink, spec.capacity)
          << "Eq 18.9 (downlink) violated by " << scheme;
    }
    // Occasionally commit a channel so later iterations see varied loads.
    if (rng.bernoulli(0.5)) {
      state.add_channel(
          RtChannel{ChannelId(next_id++), spec, candidates.front()});
    }
  }
}

TEST_P(PartitionProperties, AdmissionStateStaysConsistent) {
  const auto [scheme, seed] = GetParam();
  Rng rng(seed ^ 0xabcdef);
  AdmissionController controller(12, make_partitioner(scheme));
  std::vector<ChannelId> live;

  for (int iteration = 0; iteration < 150; ++iteration) {
    if (!live.empty() && rng.bernoulli(0.3)) {
      const std::size_t victim = rng.index(live.size());
      EXPECT_TRUE(controller.release(live[victim]));
      live.erase(live.begin() +
                 static_cast<std::ptrdiff_t>(victim));
    } else {
      const auto result = controller.request(random_spec(rng, 12));
      if (result) {
        live.push_back(result->id);
      }
    }
    EXPECT_EQ(controller.state().channel_count(), live.size());
  }

  // Every link task set must still pass its own feasibility test — the
  // committed state is feasible by construction (paper's invariant).
  for (std::uint32_t n = 0; n < 12; ++n) {
    EXPECT_TRUE(edf::is_feasible(
        controller.state().link(NodeId{n}, LinkDirection::kUplink)));
    EXPECT_TRUE(edf::is_feasible(
        controller.state().link(NodeId{n}, LinkDirection::kDownlink)));
  }

  // Releasing everything returns to a pristine state.
  for (const auto id : live) {
    EXPECT_TRUE(controller.release(id));
  }
  EXPECT_EQ(controller.state().channel_count(), 0u);
  for (std::uint32_t n = 0; n < 12; ++n) {
    EXPECT_TRUE(
        controller.state().link(NodeId{n}, LinkDirection::kUplink).empty());
    EXPECT_TRUE(controller.state()
                    .link(NodeId{n}, LinkDirection::kDownlink)
                    .empty());
  }
}

TEST_P(PartitionProperties, AcceptedSupersetNeverShrinksWithSearch) {
  // Search tries the ADPS candidate first, then more: on identical request
  // streams Search accepts at least as many channels as ADPS.
  const auto [scheme, seed] = GetParam();
  if (std::string(scheme) != "ADPS") GTEST_SKIP();

  traffic::MasterSlaveWorkload workload({}, seed);
  const auto specs = workload.generate(150);

  AdmissionController adps(60, make_partitioner("ADPS"));
  AdmissionController search(60, make_partitioner("Search"));
  std::size_t adps_accepted = 0;
  std::size_t search_accepted = 0;
  for (const auto& spec : specs) {
    if (adps.request(spec)) ++adps_accepted;
    if (search.request(spec)) ++search_accepted;
  }
  EXPECT_GE(search_accepted, adps_accepted);
}

TEST(PartitionProperties2, AdpsReducesToSdpsOnSymmetricState) {
  // With equal loads on both ends, Eq 18.16 gives Upart = 1/2 — exactly
  // SDPS (even deadlines; odd ones differ by the rounding convention).
  Rng rng(99);
  NetworkState state(6);
  // Same number of channels on node 0's uplink and node 1's downlink.
  state.add_channel(RtChannel{ChannelId(1),
                              ChannelSpec{NodeId{0}, NodeId{2}, 100, 3, 40},
                              DeadlinePartition{20, 20}});
  state.add_channel(RtChannel{ChannelId(2),
                              ChannelSpec{NodeId{3}, NodeId{1}, 100, 3, 40},
                              DeadlinePartition{20, 20}});
  for (int i = 0; i < 50; ++i) {
    Slot deadline = (6 + rng.index(50)) * 2;  // even
    const ChannelSpec spec{NodeId{0}, NodeId{1}, 100, 3, deadline};
    EXPECT_EQ(AsymmetricPartitioner().partition(spec, state),
              SymmetricPartitioner().partition(spec, state));
  }
}

}  // namespace
}  // namespace rtether::core
