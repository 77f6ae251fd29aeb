/// Churn conformance for the release fast path: randomized
/// admit/release/re-admit streams must leave every admission path — the
/// reference `AdmissionController`, the batched `AdmissionEngine` (downdate
/// and the release-as-invalidate baseline), and the sharded
/// `ParallelAdmissionEngine::process` — in bit-exact agreement: same
/// accepts/rejects, same channel IDs, same partitions, same rejection
/// reasons *and diagnostic strings*, same registries and stats. On star
/// topologies the multihop `PathAdmissionController` (SDPS, even deadlines)
/// must additionally match the classic controller decision-for-decision
/// through the same churn. A second property pins the absence of stale
/// cache pessimism: releasing a channel and immediately re-requesting the
/// identical contract is always accepted under a state-independent (SDPS)
/// or exhaustive (Search) partitioner.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/admission.hpp"
#include "core/multihop.hpp"
#include "core/parallel_admission.hpp"
#include "core/partitioner.hpp"
#include "core/topology.hpp"

namespace rtether::core {
namespace {

ChannelSpec random_spec(Rng& rng, std::uint32_t nodes) {
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200, 300};
  const auto src = static_cast<std::uint32_t>(rng.index(nodes));
  auto dst = static_cast<std::uint32_t>(rng.index(nodes));
  if (dst == src) {
    dst = (dst + 1) % nodes;
  }
  const Slot period = kPeriods[rng.index(std::size(kPeriods))];
  const Slot capacity = 1 + rng.index(4);
  Slot deadline;
  if (rng.index(16) == 0) {
    deadline = rng.index(2 * capacity);  // violates d ≥ 2C
  } else {
    deadline = 2 * capacity + rng.index(period - 2 * capacity + 1);
  }
  return ChannelSpec{NodeId{src}, NodeId{dst}, period, capacity, deadline};
}

void expect_same_outcome(const Expected<RtChannel, Rejection>& expected,
                         const Expected<RtChannel, Rejection>& actual,
                         const std::string& where) {
  ASSERT_EQ(expected.has_value(), actual.has_value()) << where;
  if (expected.has_value()) {
    EXPECT_EQ(expected->id, actual->id) << where;
    EXPECT_EQ(expected->partition, actual->partition) << where;
  } else {
    EXPECT_EQ(expected.error().reason, actual.error().reason) << where;
    EXPECT_EQ(expected.error().detail, actual.error().detail) << where;
  }
}

void expect_same_release(const ReleaseOutcome& expected,
                         const ReleaseOutcome& actual,
                         const std::string& where) {
  ASSERT_EQ(expected.has_value(), actual.has_value()) << where;
  if (expected.has_value()) {
    EXPECT_EQ(*expected, *actual) << where;
  } else {
    EXPECT_EQ(expected.error().reason, actual.error().reason) << where;
    EXPECT_EQ(expected.error().detail, actual.error().detail) << where;
  }
}

/// Drives one randomized admit/release/re-admit stream through all four
/// admission paths and asserts bit-exact agreement at every op.
void expect_churn_equivalent(std::uint64_t seed, std::size_t op_count,
                             std::uint32_t nodes, const std::string& scheme,
                             double release_probability = 0.45) {
  Rng rng(seed);
  AdmissionController controller(nodes, make_partitioner(scheme));
  AdmissionEngine downdating(nodes, make_partitioner(scheme));
  AdmissionConfig rebuild_config;
  rebuild_config.release = ReleasePolicy::kRebuild;
  AdmissionEngine rebuilding(nodes, make_partitioner(scheme), rebuild_config);

  std::vector<ChannelOp> ops;       // replayed through process() afterwards
  std::vector<ReleaseOutcome> release_results;
  std::vector<Expected<RtChannel, Rejection>> admit_results;
  std::vector<ChannelId> live;
  for (std::size_t i = 0; i < op_count; ++i) {
    const bool release = !live.empty() && rng.bernoulli(release_probability);
    if (release) {
      // Mostly live victims; occasionally a bogus or double release.
      ChannelId id;
      if (rng.bernoulli(0.15)) {
        id = ChannelId{static_cast<std::uint16_t>(30'000 + rng.index(999))};
      } else {
        const std::size_t victim = rng.index(live.size());
        id = live[victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      const ReleaseOutcome expected = controller.release(id);
      expect_same_release(expected, downdating.release(id),
                          "op " + std::to_string(i) + " (downdate engine)");
      expect_same_release(expected, rebuilding.release(id),
                          "op " + std::to_string(i) + " (rebuild engine)");
      ops.push_back(ChannelOp::release(id));
      release_results.push_back(expected);
      continue;
    }
    const ChannelSpec spec = random_spec(rng, nodes);
    const auto expected = controller.request(spec);
    expect_same_outcome(expected, downdating.admit(spec),
                        "op " + std::to_string(i) + " (downdate engine)");
    expect_same_outcome(expected, rebuilding.admit(spec),
                        "op " + std::to_string(i) + " (rebuild engine)");
    if (expected.has_value()) {
      live.push_back(expected->id);
    }
    ops.push_back(ChannelOp::admit(spec));
    admit_results.push_back(expected);
  }

  // The sharded engine digests the identical mixed stream in one go.
  ParallelAdmissionConfig parallel_config;
  parallel_config.threads = 2;
  parallel_config.min_parallel_batch = 2;
  ParallelAdmissionEngine parallel(nodes, make_partitioner(scheme),
                                   parallel_config);
  const ChurnResult churn = parallel.process(ops);
  ASSERT_EQ(churn.admissions.size(), admit_results.size());
  ASSERT_EQ(churn.releases.size(), release_results.size());
  for (std::size_t k = 0; k < admit_results.size(); ++k) {
    expect_same_outcome(admit_results[k], churn.admissions[k],
                        "admit " + std::to_string(k) + " (parallel)");
  }
  for (std::size_t k = 0; k < release_results.size(); ++k) {
    expect_same_release(release_results[k], churn.releases[k],
                        "release " + std::to_string(k) + " (parallel)");
  }

  // End-of-stream agreement: registries and stats.
  for (const AdmissionStats* stats :
       {&downdating.stats(), &rebuilding.stats(), &parallel.stats()}) {
    EXPECT_EQ(stats->accepted, controller.stats().accepted);
    EXPECT_EQ(stats->rejected, controller.stats().rejected);
    EXPECT_EQ(stats->released, controller.stats().released);
  }
  for (const NetworkState* state :
       {&downdating.state(), &rebuilding.state(), &parallel.state()}) {
    ASSERT_EQ(state->channel_count(), controller.state().channel_count());
    for (const auto& channel : controller.state().channels()) {
      const auto other = state->find_channel(channel.id);
      ASSERT_TRUE(other.has_value());
      EXPECT_EQ(*other, channel);
    }
  }
}

TEST(AdmissionChurn, FourPathsAgreeAdps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_churn_equivalent(seed, 300, 6, "ADPS");
  }
}

TEST(AdmissionChurn, FourPathsAgreeSdpsSaturating) {
  // Few nodes + many ops: links saturate, so churn keeps flipping requests
  // across the accept/reject boundary — the regime where a stale (or
  // under-shrunk) cache would first disagree with the reference.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    expect_churn_equivalent(seed, 500, 3, "SDPS", 0.5);
  }
}

TEST(AdmissionChurn, FourPathsAgreeSearch) {
  // Search proposes many candidates per request: every rejected candidate
  // runs another trial against the churned caches.
  expect_churn_equivalent(21, 150, 4, "Search");
}

TEST(AdmissionChurn, FourPathsAgreeUdps) {
  expect_churn_equivalent(31, 250, 5, "UDPS");
}

TEST(AdmissionChurn, MultihopSdpsEvenDeadlineParityThroughChurn) {
  // On a star fabric under SDPS with even deadlines the k-hop split equals
  // the classic floor split, so the multihop controller must reproduce the
  // classic decisions through arbitrary churn (k-hop release downdates).
  Rng rng(41);
  const std::uint32_t nodes = 5;
  AdmissionController classic(nodes, make_partitioner("SDPS"));
  PathAdmissionController multihop(Topology::single_switch(nodes),
                                   make_path_partitioner("SDPS"));
  std::vector<ChannelId> live;
  for (std::size_t i = 0; i < 400; ++i) {
    if (!live.empty() && rng.bernoulli(0.45)) {
      const std::size_t victim = rng.index(live.size());
      const ChannelId id = live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      expect_same_release(classic.release(id), multihop.release(id),
                          "op " + std::to_string(i) + " (multihop release)");
      continue;
    }
    ChannelSpec spec = random_spec(rng, nodes);
    spec.deadline &= ~Slot{1};  // even deadlines only
    const auto expected = classic.request(spec);
    const auto actual = multihop.request(spec);
    ASSERT_EQ(expected.has_value(), actual.has_value())
        << "op " << i << " " << spec.to_string();
    if (expected.has_value()) {
      EXPECT_EQ(expected->id, actual->id) << "op " << i;
      live.push_back(expected->id);
    }
  }
  EXPECT_EQ(multihop.state().channel_count(),
            classic.state().channel_count());
}

TEST(AdmissionChurn, ExhaustiveScanAgreesOnNearOverflowHyperperiods) {
  // Near-64-bit (non-overflowing) hyperperiods: the exhaustive oracle falls
  // back to the busy-period bound instead of materializing ~10¹⁸ instants,
  // and the cached batched and parallel engines (which always scan
  // checkpoints) must reproduce the exhaustive controller's decisions —
  // pinned here with coprime near-2³¹/2³² periods whose hyperperiod also
  // overflows mid-stream.
  AdmissionConfig config;
  config.scan = edf::DemandScan::kExhaustive;
  const std::uint32_t nodes = 4;
  AdmissionController controller(nodes, make_partitioner("ADPS"), config);
  AdmissionEngine engine(nodes, make_partitioner("ADPS"));
  ParallelAdmissionConfig parallel_config;
  parallel_config.threads = 2;
  parallel_config.min_parallel_batch = 2;
  ParallelAdmissionEngine parallel(nodes, make_partitioner("ADPS"),
                                   parallel_config);

  static constexpr Slot kHugePeriods[] = {
      2'147'483'647, 4'294'967'291, 3'037'000'493,
      18'446'744'073'709'551'557ULL};
  std::vector<ChannelOp> batch;
  std::vector<ChannelId> accepted;
  for (std::uint32_t i = 0; i < 12; ++i) {
    const Slot period = kHugePeriods[i % std::size(kHugePeriods)];
    const ChannelSpec request{NodeId{i % nodes}, NodeId{(i + 1) % nodes},
                              period, 1 + i % 2, 4 + 2 * (i % 3)};
    batch.push_back(ChannelOp::admit(request));
  }
  const auto batched = engine.process(batch);
  const auto sharded = parallel.process(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto expected = controller.request(batch[i].spec);
    expect_same_outcome(expected, batched.admissions[i],
                        "request " + std::to_string(i) + " (batched)");
    expect_same_outcome(expected, sharded.admissions[i],
                        "request " + std::to_string(i) + " (parallel)");
    if (expected.has_value()) {
      accepted.push_back(expected->id);
    }
  }
  ASSERT_FALSE(accepted.empty());
  // Release/re-admit a huge-period channel through every path.
  const ChannelId victim = accepted.front();
  EXPECT_TRUE(controller.release(victim));
  EXPECT_TRUE(engine.release(victim));
  EXPECT_TRUE(parallel.release(victim));
  const ChannelSpec readmit = batch.front().spec;
  const auto expected = controller.request(readmit);
  expect_same_outcome(expected, engine.admit(readmit), "re-admit (batched)");
  expect_same_outcome(expected, parallel.admit(readmit),
                      "re-admit (parallel)");
}

TEST(AdmissionChurn, ReleaseThenIdenticalReadmitAlwaysAccepted) {
  // No stale cache pessimism: under a state-independent (SDPS) or
  // exhaustive (Search) partitioner, releasing a channel and immediately
  // re-requesting the identical contract must always be accepted — the
  // freed capacity is exactly what the contract needs.
  for (const char* scheme : {"SDPS", "Search"}) {
    Rng rng(51);
    const std::uint32_t nodes = 4;
    AdmissionEngine engine(nodes, make_partitioner(scheme));
    ParallelAdmissionConfig parallel_config;
    parallel_config.threads = 2;
    parallel_config.min_parallel_batch = 2;
    ParallelAdmissionEngine parallel(nodes, make_partitioner(scheme),
                                     parallel_config);
    std::vector<RtChannel> live;
    for (std::size_t i = 0; i < 250; ++i) {
      if (!live.empty() && rng.bernoulli(0.4)) {
        const std::size_t victim = rng.index(live.size());
        const RtChannel channel = live[victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        ASSERT_TRUE(engine.release(channel.id));
        const auto readmit = engine.admit(channel.spec);
        ASSERT_TRUE(readmit.has_value())
            << scheme << " op " << i << ": identical re-admit of "
            << channel.spec.to_string() << " rejected after release: "
            << readmit.error().detail;
        // Mirror on the parallel engine so both stay in lockstep.
        ASSERT_TRUE(parallel.release(channel.id));
        const auto parallel_readmit = parallel.admit(channel.spec);
        ASSERT_TRUE(parallel_readmit.has_value());
        EXPECT_EQ(readmit->id, parallel_readmit->id);
        live.push_back(*readmit);
        continue;
      }
      const ChannelSpec spec = random_spec(rng, nodes);
      const auto outcome = engine.admit(spec);
      const auto parallel_outcome = parallel.admit(spec);
      ASSERT_EQ(outcome.has_value(), parallel_outcome.has_value());
      if (outcome.has_value()) {
        live.push_back(*outcome);
      }
    }
  }
}

}  // namespace
}  // namespace rtether::core
