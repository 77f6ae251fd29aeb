#include "core/admission.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/partitioner.hpp"

namespace rtether::core {
namespace {

ChannelSpec spec(std::uint32_t src, std::uint32_t dst, Slot p, Slot c,
                 Slot d) {
  return ChannelSpec{NodeId{src}, NodeId{dst}, p, c, d};
}

/// Randomized request stream with a mix of feasible, borderline and invalid
/// specs. Constrained deadlines (d < P) keep the demand scan on the slow
/// path rather than the Liu & Layland shortcut.
std::vector<ChannelOp> random_stream(std::uint64_t seed,
                                     std::size_t count,
                                     std::uint32_t nodes) {
  Rng rng(seed);
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200, 300};
  std::vector<ChannelOp> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.index(nodes));
    auto dst = static_cast<std::uint32_t>(rng.index(nodes));
    if (dst == src) {
      dst = (dst + 1) % nodes;
    }
    const Slot period = kPeriods[rng.index(std::size(kPeriods))];
    const Slot capacity = 1 + rng.index(4);
    // Mostly valid constrained deadlines; ~1/16 structurally invalid.
    Slot deadline;
    if (rng.index(16) == 0) {
      deadline = rng.index(2 * capacity);  // violates d ≥ 2C
    } else {
      deadline = 2 * capacity + rng.index(period - 2 * capacity + 1);
    }
    requests.push_back(
        ChannelOp::admit(spec(src, dst, period, capacity, deadline)));
  }
  return requests;
}

/// Drives the same stream through the reference controller (one request at
/// a time) and the batch engine, and requires identical outcomes: the same
/// accept/reject pattern, the same channel IDs and partitions, the same
/// rejection reasons and diagnostic strings.
void expect_equivalent(std::uint64_t seed, std::size_t count,
                       std::uint32_t nodes, const std::string& scheme) {
  const auto requests = random_stream(seed, count, nodes);

  AdmissionController controller(nodes, make_partitioner(scheme));
  AdmissionEngine engine(nodes, make_partitioner(scheme));
  const auto batch = engine.process(requests);
  ASSERT_EQ(batch.admissions.size(), requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto expected = controller.request(requests[i].spec);
    const auto& actual = batch.admissions[i];
    ASSERT_EQ(expected.has_value(), actual.has_value())
        << "request " << i << " (" << requests[i].spec.to_string()
        << "): sequential and batch disagree";
    if (expected.has_value()) {
      EXPECT_EQ(expected->id, actual->id) << "request " << i;
      EXPECT_EQ(expected->partition, actual->partition) << "request " << i;
    } else {
      EXPECT_EQ(expected.error().reason, actual.error().reason)
          << "request " << i;
      EXPECT_EQ(expected.error().detail, actual.error().detail)
          << "request " << i;
    }
  }

  EXPECT_EQ(engine.state().channel_count(),
            controller.state().channel_count());
  EXPECT_EQ(engine.stats().accepted, controller.stats().accepted);
  EXPECT_EQ(engine.stats().rejected, controller.stats().rejected);
}

TEST(AdmissionBatch, MatchesSequentialSdpsSmall) {
  expect_equivalent(1, 200, 4, "SDPS");
}

TEST(AdmissionBatch, MatchesSequentialSdpsSaturating) {
  // Few nodes + many requests → links saturate; most of the stream
  // exercises the rejection path.
  expect_equivalent(2, 600, 3, "SDPS");
}

TEST(AdmissionBatch, MatchesSequentialAdps) {
  // ADPS candidates depend on the evolving link loads, so this also checks
  // that the engine presents the partitioner with the identical state.
  expect_equivalent(3, 400, 6, "ADPS");
}

TEST(AdmissionBatch, MatchesSequentialSearch) {
  // The search partitioner proposes many candidates per request — stresses
  // repeated trial tests against the same caches.
  expect_equivalent(4, 120, 4, "Search");
}

TEST(AdmissionBatch, MatchesSequentialAcrossSeeds) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    expect_equivalent(seed, 250, 5, "ADPS");
  }
}

TEST(AdmissionBatch, SingleAdmitMatchesController) {
  const auto requests = random_stream(21, 300, 4);
  AdmissionController controller(4, make_partitioner("SDPS"));
  AdmissionEngine engine(4, make_partitioner("SDPS"));
  for (const auto& request : requests) {
    const auto expected = controller.request(request.spec);
    const auto actual = engine.admit(request.spec);
    ASSERT_EQ(expected.has_value(), actual.has_value());
    if (expected.has_value()) {
      EXPECT_EQ(expected->id, actual->id);
      EXPECT_EQ(expected->partition, actual->partition);
    }
  }
}

TEST(AdmissionBatch, ReleaseRebuildsCachesAndStaysEquivalent) {
  const auto first = random_stream(31, 150, 4);
  const auto second = random_stream(32, 150, 4);

  AdmissionController controller(4, make_partitioner("ADPS"));
  AdmissionEngine engine(4, make_partitioner("ADPS"));

  std::vector<ChannelId> admitted;
  const auto batch1 = engine.process(first);
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto expected = controller.request(first[i].spec);
    ASSERT_EQ(expected.has_value(), batch1.admissions[i].has_value());
    if (expected.has_value()) {
      admitted.push_back(expected->id);
    }
  }

  // Tear down every other admitted channel on both sides.
  for (std::size_t i = 0; i < admitted.size(); i += 2) {
    EXPECT_TRUE(controller.release(admitted[i]));
    EXPECT_TRUE(engine.release(admitted[i]));
  }

  // A second batch over the mutated state must still match.
  const auto batch2 = engine.process(second);
  for (std::size_t i = 0; i < second.size(); ++i) {
    const auto expected = controller.request(second[i].spec);
    ASSERT_EQ(expected.has_value(), batch2.admissions[i].has_value())
        << "post-release request " << i;
    if (expected.has_value()) {
      EXPECT_EQ(expected->id, batch2.admissions[i]->id);
      EXPECT_EQ(expected->partition, batch2.admissions[i]->partition);
    }
  }
}

TEST(AdmissionBatch, RandomizedReleaseChurnStaysEquivalent) {
  // Long-running plants interleave teardown with admission: rounds of
  // batched admits, each followed by a random subset of releases. After
  // every round the engine must remain decision-identical to the reference
  // controller — including re-admissions that land on IDs the releases
  // freed (the allocator reuses smallest-first) and on links whose caches
  // were rebuilt by `release`.
  AdmissionController controller(5, make_partitioner("ADPS"));
  AdmissionEngine engine(5, make_partitioner("ADPS"));
  Rng rng(77);
  std::vector<ChannelId> live;

  for (std::uint64_t round = 0; round < 6; ++round) {
    const auto requests = random_stream(100 + round, 120, 5);
    const auto batch = engine.process(requests);
    ASSERT_EQ(batch.admissions.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto expected = controller.request(requests[i].spec);
      const auto& actual = batch.admissions[i];
      ASSERT_EQ(expected.has_value(), actual.has_value())
          << "round " << round << " request " << i;
      if (expected.has_value()) {
        EXPECT_EQ(expected->id, actual->id);
        EXPECT_EQ(expected->partition, actual->partition);
        live.push_back(expected->id);
      } else {
        EXPECT_EQ(expected.error().reason, actual.error().reason);
        EXPECT_EQ(expected.error().detail, actual.error().detail);
      }
    }

    // Tear down a random ~third of the live channels on both sides.
    std::vector<ChannelId> keep;
    for (const ChannelId id : live) {
      if (rng.index(3) == 0) {
        EXPECT_TRUE(controller.release(id));
        EXPECT_TRUE(engine.release(id));
      } else {
        keep.push_back(id);
      }
    }
    live = std::move(keep);

    EXPECT_EQ(engine.state().channel_count(),
              controller.state().channel_count());
    EXPECT_EQ(engine.stats().released, controller.stats().released);
  }

  // Double release reports false on both paths.
  if (!live.empty()) {
    EXPECT_TRUE(engine.release(live.front()));
    EXPECT_FALSE(engine.release(live.front()));
  }
}

TEST(AdmissionBatch, NonCheckpointScanFallsBackAndMatches) {
  // Cross-scan oracle: the engine always runs the cached checkpoint scan,
  // and must match a reference controller scanning every slot outcome for
  // outcome — verdict, ID, partition, reason and diagnostic (the first
  // violation t and h(t) are the same under every exact scan).
  const auto requests = random_stream(41, 80, 3);
  AdmissionConfig every_slot;
  every_slot.scan = edf::DemandScan::kEverySlot;
  AdmissionController controller(3, make_partitioner("SDPS"), every_slot);
  AdmissionEngine engine(3, make_partitioner("SDPS"));
  const auto batch = engine.process(requests);
  ASSERT_EQ(batch.admissions.size(), requests.size());
  std::size_t infeasible = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto expected = controller.request(requests[i].spec);
    const auto& actual = batch.admissions[i];
    ASSERT_EQ(expected.has_value(), actual.has_value()) << "request " << i;
    if (expected.has_value()) {
      EXPECT_EQ(*expected, *actual) << "request " << i;
    } else {
      EXPECT_EQ(expected.error(), actual.error()) << "request " << i;
      if (expected.error().reason != RejectReason::kInvalidSpec) {
        ++infeasible;
      }
    }
  }
  EXPECT_GT(infeasible, 0u) << "the stream should reach the demand test's "
                               "reject path";
  EXPECT_EQ(engine.stats().accepted, controller.stats().accepted);
}

TEST(AdmissionBatch, EmptyBatch) {
  AdmissionEngine engine(2, make_partitioner("SDPS"));
  const auto result = engine.process({});
  EXPECT_TRUE(result.admissions.empty());
  EXPECT_EQ(result.accepted(), 0u);
  EXPECT_EQ(result.rejected(), 0u);
}

TEST(AdmissionBatch, ChurnResultCounts) {
  AdmissionEngine engine(4, make_partitioner("SDPS"));
  const std::vector<ChannelOp> requests = {
      ChannelOp::admit(spec(0, 1, 100, 3, 40)),
      ChannelOp::admit(spec(0, 1, 100, 3, 5)),  // invalid: d < 2C
      ChannelOp::admit(spec(1, 2, 100, 3, 40)),
  };
  const auto result = engine.process(requests);
  EXPECT_EQ(result.accepted(), 2u);
  EXPECT_EQ(result.rejected(), 1u);
  EXPECT_EQ(engine.state().channel_count(), 2u);
}

TEST(AdmissionBatch, ReleaseOfNeverAdmittedIdIsRefusedWithoutResidue) {
  // Negative teardown paths: IDs nobody holds (reserved 0, plausible but
  // never assigned, out in the 16-bit weeds) must be refused, leave no
  // trace in state or stats, and not perturb later admissions.
  AdmissionEngine engine(4, make_partitioner("ADPS"));
  const auto admitted = engine.admit(spec(0, 1, 100, 3, 40));
  ASSERT_TRUE(admitted.has_value());

  EXPECT_FALSE(engine.release(ChannelId{0}));
  EXPECT_FALSE(engine.release(ChannelId{7}));       // never assigned
  EXPECT_FALSE(engine.release(ChannelId{65535}));   // top of the ID space
  EXPECT_EQ(engine.stats().released, 0u);
  EXPECT_EQ(engine.state().channel_count(), 1u);

  // The refused releases must not have touched the per-link caches: the
  // next admission still matches a fresh reference controller that never
  // saw them.
  AdmissionController reference(4, make_partitioner("ADPS"));
  (void)reference.request(spec(0, 1, 100, 3, 40));
  const auto expected = reference.request(spec(1, 2, 100, 3, 40));
  const auto actual = engine.admit(spec(1, 2, 100, 3, 40));
  ASSERT_TRUE(expected.has_value() && actual.has_value());
  EXPECT_EQ(*actual, *expected);
}

TEST(AdmissionBatch, DoubleReleaseIsRefusedAndFreedIdIsReassigned) {
  AdmissionEngine engine(4, make_partitioner("SDPS"));
  const auto first = engine.admit(spec(0, 1, 100, 3, 40));
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(engine.release(first->id));
  EXPECT_FALSE(engine.release(first->id));  // double teardown
  EXPECT_EQ(engine.stats().released, 1u);
  EXPECT_EQ(engine.state().channel_count(), 0u);

  // Smallest-free reuse hands the same ID to the next accept; releasing it
  // then tears down the new owner, once.
  const auto second = engine.admit(spec(2, 3, 100, 3, 40));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, first->id);
  EXPECT_TRUE(engine.release(second->id));
  EXPECT_FALSE(engine.release(second->id));
}

}  // namespace
}  // namespace rtether::core
