/// Decision-identity proof for `ParallelAdmissionEngine`: on randomized
/// request streams — cell-local (many shards), uniform (one component →
/// sequential fallback), and churn streams with interleaved release and
/// re-admission — the sharded engine must produce *exactly* what the
/// reference `AdmissionController` and the batched `AdmissionEngine`
/// produce: the same accepts and rejects, the same channel IDs, the same
/// deadline partitions, the same rejection reasons and diagnostic strings,
/// and the same aggregate stats. The suite runs under ThreadSanitizer in CI,
/// so it doubles as the data-race regression net for the thread pool and
/// the shard workers.

#include "core/parallel_admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/admission.hpp"
#include "core/partitioner.hpp"

namespace rtether::core {
namespace {

ChannelSpec spec(std::uint32_t src, std::uint32_t dst, Slot p, Slot c,
                 Slot d) {
  return ChannelSpec{NodeId{src}, NodeId{dst}, p, c, d};
}

ChannelSpec random_spec(Rng& rng, std::uint32_t src, std::uint32_t dst) {
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200, 300};
  const Slot period = kPeriods[rng.index(std::size(kPeriods))];
  const Slot capacity = 1 + rng.index(4);
  // Mostly valid constrained deadlines; ~1/16 structurally invalid.
  Slot deadline;
  if (rng.index(16) == 0) {
    deadline = rng.index(2 * capacity);  // violates d ≥ 2C
  } else {
    deadline = 2 * capacity + rng.index(period - 2 * capacity + 1);
  }
  return spec(src, dst, period, capacity, deadline);
}

/// Uniform all-to-all traffic: the link-conflict graph almost surely
/// collapses into one component, exercising the sequential fallback.
std::vector<ChannelOp> uniform_stream(std::uint64_t seed,
                                      std::size_t count,
                                      std::uint32_t nodes) {
  Rng rng(seed);
  std::vector<ChannelOp> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.index(nodes));
    auto dst = static_cast<std::uint32_t>(rng.index(nodes));
    if (dst == src) {
      dst = (dst + 1) % nodes;
    }
    requests.push_back(ChannelOp::admit(random_spec(rng, src, dst)));
  }
  return requests;
}

/// Cell-local traffic (the industrial topology: machine cells talk within
/// themselves): source and destination share a cell of `cell_size` nodes,
/// so the conflict graph has one component per cell and the batch shards.
std::vector<ChannelOp> celled_stream(std::uint64_t seed,
                                     std::size_t count,
                                     std::uint32_t nodes,
                                     std::uint32_t cell_size) {
  Rng rng(seed);
  const std::uint32_t cells = nodes / cell_size;
  std::vector<ChannelOp> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto cell = static_cast<std::uint32_t>(rng.index(cells));
    const std::uint32_t base = cell * cell_size;
    const auto src = base + static_cast<std::uint32_t>(rng.index(cell_size));
    auto dst = base + static_cast<std::uint32_t>(rng.index(cell_size));
    if (dst == src) {
      dst = base + (dst - base + 1) % cell_size;
    }
    requests.push_back(ChannelOp::admit(random_spec(rng, src, dst)));
  }
  return requests;
}

ParallelAdmissionEngine make_parallel(std::uint32_t nodes,
                                      const std::string& scheme,
                                      unsigned threads,
                                      std::size_t min_parallel_batch = 1) {
  ParallelAdmissionConfig config;
  config.threads = threads;
  config.min_parallel_batch = min_parallel_batch;
  return ParallelAdmissionEngine(nodes, make_partitioner(scheme), config);
}

/// Drives the same stream through all three paths and requires identical
/// outcomes everywhere. Returns the parallel engine's shard count so tests
/// can additionally assert the path taken.
std::size_t expect_triple_identity(const std::vector<ChannelOp>& requests,
                                   std::uint32_t nodes,
                                   const std::string& scheme,
                                   unsigned threads) {
  AdmissionController controller(nodes, make_partitioner(scheme));
  AdmissionEngine engine(nodes, make_partitioner(scheme));
  ParallelAdmissionEngine parallel = make_parallel(nodes, scheme, threads);

  const auto batched = engine.process(requests);
  const auto sharded = parallel.process(requests);
  EXPECT_EQ(batched.admissions.size(), requests.size());
  EXPECT_EQ(sharded.admissions.size(), requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto expected = controller.request(requests[i].spec);
    const auto& from_engine = batched.admissions[i];
    const auto& from_parallel = sharded.admissions[i];
    EXPECT_EQ(expected.has_value(), from_parallel.has_value())
        << "request " << i << " (" << requests[i].spec.to_string()
        << "): sequential and parallel disagree";
    EXPECT_EQ(from_engine.has_value(), from_parallel.has_value())
        << "request " << i << ": batched and parallel disagree";
    if (!expected.has_value() || !from_parallel.has_value()) {
      if (!expected.has_value() && !from_parallel.has_value()) {
        EXPECT_EQ(expected.error().reason, from_parallel.error().reason)
            << "request " << i;
        EXPECT_EQ(expected.error().detail, from_parallel.error().detail)
            << "request " << i;
      }
      continue;
    }
    EXPECT_EQ(expected->id, from_parallel->id) << "request " << i;
    EXPECT_EQ(expected->partition, from_parallel->partition)
        << "request " << i;
    EXPECT_EQ(from_engine->id, from_parallel->id) << "request " << i;
  }

  EXPECT_EQ(parallel.state().channel_count(),
            controller.state().channel_count());
  EXPECT_EQ(parallel.stats().requested, controller.stats().requested);
  EXPECT_EQ(parallel.stats().accepted, controller.stats().accepted);
  EXPECT_EQ(parallel.stats().rejected, controller.stats().rejected);
  // The two cached pipelines must also agree on the amount of analysis
  // work — the shard workers run the identical trials.
  EXPECT_EQ(parallel.stats().feasibility_tests,
            engine.stats().feasibility_tests);
  EXPECT_EQ(parallel.stats().demand_evaluations,
            engine.stats().demand_evaluations);
  return parallel.last_shard_count();
}

TEST(AdmissionParallel, CellLocalTrafficShardsAndMatches) {
  const auto requests = celled_stream(11, 600, 16, 4);
  const std::size_t shards = expect_triple_identity(requests, 16, "ADPS", 4);
  EXPECT_GT(shards, 1u) << "cell-local traffic should produce many shards";
}

TEST(AdmissionParallel, SaturatedCellsMatch) {
  // Few nodes per cell + many requests → links saturate; most of the
  // stream exercises the rejection paths and their diagnostic strings.
  const auto requests = celled_stream(12, 900, 12, 3);
  const std::size_t shards = expect_triple_identity(requests, 12, "ADPS", 4);
  EXPECT_GT(shards, 1u);
}

TEST(AdmissionParallel, SdpsMatches) {
  const auto requests = celled_stream(13, 500, 16, 4);
  expect_triple_identity(requests, 16, "SDPS", 3);
}

TEST(AdmissionParallel, SearchPartitionerMatches) {
  // Search proposes many candidates per request — stresses repeated const
  // trials and the placeholder reuse across candidates.
  const auto requests = celled_stream(14, 160, 8, 4);
  expect_triple_identity(requests, 8, "Search", 2);
}

TEST(AdmissionParallel, UniformTrafficFallsBackAndMatches) {
  const auto requests = uniform_stream(15, 400, 8);
  const std::size_t shards = expect_triple_identity(requests, 8, "ADPS", 4);
  EXPECT_EQ(shards, 1u)
      << "all-to-all traffic should collapse to one component";
}

TEST(AdmissionParallel, ManyThreadsFewShards) {
  const auto requests = celled_stream(16, 300, 8, 4);
  expect_triple_identity(requests, 8, "ADPS", 8);
}

TEST(AdmissionParallel, SingleWorkerThreadMatches) {
  // One pool thread plus the calling thread still shard the batch.
  const auto requests = celled_stream(17, 300, 16, 4);
  EXPECT_GT(expect_triple_identity(requests, 16, "ADPS", 1), 1u);
}

TEST(AdmissionParallel, MatchesAcrossSeeds) {
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    expect_triple_identity(celled_stream(seed, 250, 20, 5), 20, "ADPS", 4);
  }
}

TEST(AdmissionParallel, UdpsMatchesBatchedEngine) {
  // UDPS weighs by floating-point utilization; the controller's tentative
  // add/remove churn makes controller-vs-cached comparisons inexact by
  // design (see AdmissionEngine's caveat), so compare the two cached
  // pipelines, which must agree bit-for-bit.
  const auto requests = celled_stream(18, 400, 16, 4);
  AdmissionEngine engine(16, make_partitioner("UDPS"));
  ParallelAdmissionEngine parallel = make_parallel(16, "UDPS", 4);
  const auto batched = engine.process(requests);
  const auto sharded = parallel.process(requests);
  ASSERT_EQ(batched.admissions.size(), sharded.admissions.size());
  for (std::size_t i = 0; i < batched.admissions.size(); ++i) {
    ASSERT_EQ(batched.admissions[i].has_value(),
              sharded.admissions[i].has_value())
        << "request " << i;
    if (batched.admissions[i].has_value()) {
      EXPECT_EQ(batched.admissions[i]->id, sharded.admissions[i]->id);
      EXPECT_EQ(batched.admissions[i]->partition,
                sharded.admissions[i]->partition);
    } else {
      EXPECT_EQ(batched.admissions[i].error().detail,
                sharded.admissions[i].error().detail);
    }
  }
}

TEST(AdmissionParallel, ReleaseThenReadmitStaysIdentical) {
  const auto first = celled_stream(21, 400, 16, 4);
  const auto second = celled_stream(22, 400, 16, 4);

  AdmissionController controller(16, make_partitioner("ADPS"));
  ParallelAdmissionEngine parallel = make_parallel(16, "ADPS", 4);

  std::vector<ChannelId> admitted;
  const auto batch1 = parallel.process(first);
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto expected = controller.request(first[i].spec);
    ASSERT_EQ(expected.has_value(), batch1.admissions[i].has_value());
    if (expected.has_value()) {
      admitted.push_back(expected->id);
    }
  }

  // Tear down every other admitted channel on both sides; freed IDs must be
  // re-assigned identically by the parallel merge phase.
  for (std::size_t i = 0; i < admitted.size(); i += 2) {
    EXPECT_TRUE(controller.release(admitted[i]));
    EXPECT_TRUE(parallel.release(admitted[i]));
  }
  EXPECT_EQ(parallel.stats().released, controller.stats().released);

  const auto batch2 = parallel.process(second);
  for (std::size_t i = 0; i < second.size(); ++i) {
    const auto expected = controller.request(second[i].spec);
    ASSERT_EQ(expected.has_value(), batch2.admissions[i].has_value())
        << "post-release request " << i;
    if (expected.has_value()) {
      EXPECT_EQ(expected->id, batch2.admissions[i]->id) << "request " << i;
      EXPECT_EQ(expected->partition, batch2.admissions[i]->partition);
    } else {
      EXPECT_EQ(expected.error().detail, batch2.admissions[i].error().detail);
    }
  }
}

TEST(AdmissionParallel, ChurnStreamMatchesSequentialReplay) {
  // Build a mixed admit/release op stream. Release targets must be known up
  // front, so a scout run learns which IDs the deterministic stream admits;
  // identity between paths guarantees those IDs are valid for both replays.
  const std::uint32_t nodes = 16;
  const auto warmup = celled_stream(31, 300, nodes, 4);
  std::vector<ChannelId> ids;
  {
    AdmissionController scout(nodes, make_partitioner("ADPS"));
    for (const auto& request : warmup) {
      if (const auto outcome = scout.request(request.spec)) {
        ids.push_back(outcome->id);
      }
    }
  }
  ASSERT_GT(ids.size(), 20u);

  Rng rng(32);
  std::vector<ChannelOp> ops;
  for (const auto& request : warmup) {
    ops.push_back(ChannelOp::admit(request.spec));
  }
  const auto readmit = celled_stream(33, 300, nodes, 4);
  std::size_t next_release = 0;
  for (const auto& request : readmit) {
    // ~1 release per 6 admissions, interleaved mid-stream.
    if (next_release < ids.size() && rng.index(6) == 0) {
      ops.push_back(ChannelOp::release(ids[next_release++]));
    }
    ops.push_back(ChannelOp::admit(request.spec));
  }
  ASSERT_GT(next_release, 5u);

  AdmissionController controller(nodes, make_partitioner("ADPS"));
  ParallelAdmissionEngine parallel = make_parallel(nodes, "ADPS", 4);
  const ChurnResult churn = parallel.process(ops);

  std::size_t admit_index = 0;
  std::size_t release_index = 0;
  for (const auto& op : ops) {
    if (op.kind == ChannelOp::Kind::kAdmit) {
      const auto expected = controller.request(op.spec);
      ASSERT_LT(admit_index, churn.admissions.size());
      const auto& actual = churn.admissions[admit_index++];
      ASSERT_EQ(expected.has_value(), actual.has_value())
          << "admit op " << admit_index - 1;
      if (expected.has_value()) {
        EXPECT_EQ(expected->id, actual->id);
        EXPECT_EQ(expected->partition, actual->partition);
      } else {
        EXPECT_EQ(expected.error().reason, actual.error().reason);
        EXPECT_EQ(expected.error().detail, actual.error().detail);
      }
    } else {
      const ReleaseOutcome expected = controller.release(op.id);
      ASSERT_LT(release_index, churn.releases.size());
      const ReleaseOutcome& actual = churn.releases[release_index++];
      ASSERT_EQ(expected.has_value(), actual.has_value());
      if (expected.has_value()) {
        EXPECT_EQ(*expected, *actual);
      } else {
        EXPECT_EQ(expected.error().reason, actual.error().reason);
        EXPECT_EQ(expected.error().detail, actual.error().detail);
      }
    }
  }
  EXPECT_EQ(admit_index, churn.admissions.size());
  EXPECT_EQ(release_index, churn.releases.size());
  EXPECT_EQ(churn.accepted() + churn.rejected(), churn.admissions.size());

  EXPECT_EQ(parallel.state().channel_count(),
            controller.state().channel_count());
  EXPECT_EQ(parallel.stats().accepted, controller.stats().accepted);
  EXPECT_EQ(parallel.stats().rejected, controller.stats().rejected);
  EXPECT_EQ(parallel.stats().released, controller.stats().released);
}

/// Replays `ops` through `controller` and requires `churn` to match it op
/// by op — outcomes, IDs, partitions, diagnostics — and `parallel`'s stats
/// and live registry to match the controller's afterwards.
void expect_churn_identity(std::span<const ChannelOp> ops,
                           const ChurnResult& churn,
                           AdmissionController& controller,
                           ParallelAdmissionEngine& parallel) {
  std::size_t admit_index = 0;
  std::size_t release_index = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == ChannelOp::Kind::kAdmit) {
      const AdmitOutcome expected = controller.request(ops[i].spec);
      ASSERT_LT(admit_index, churn.admissions.size());
      const AdmitOutcome& actual = churn.admissions[admit_index++];
      ASSERT_EQ(expected.has_value(), actual.has_value()) << "op " << i;
      if (expected.has_value()) {
        EXPECT_EQ(*expected, *actual) << "op " << i;
      } else {
        EXPECT_EQ(expected.error(), actual.error()) << "op " << i;
      }
    } else {
      const ReleaseOutcome expected = controller.release(ops[i].id);
      ASSERT_LT(release_index, churn.releases.size());
      const ReleaseOutcome& actual = churn.releases[release_index++];
      ASSERT_EQ(expected.has_value(), actual.has_value()) << "op " << i;
      if (expected.has_value()) {
        EXPECT_EQ(*expected, *actual) << "op " << i;
      } else {
        EXPECT_EQ(expected.error(), actual.error()) << "op " << i;
      }
    }
  }
  EXPECT_EQ(admit_index, churn.admissions.size());
  EXPECT_EQ(release_index, churn.releases.size());

  const AdmissionStats& got = parallel.stats();
  const AdmissionStats& want = controller.stats();
  EXPECT_EQ(got.requested, want.requested);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.released, want.released);
  EXPECT_EQ(got.feasibility_tests, want.feasibility_tests);
  EXPECT_EQ(got.demand_evaluations, want.demand_evaluations);

  auto mine = parallel.state().channels();
  auto theirs = controller.state().channels();
  auto by_id = [](const RtChannel& a, const RtChannel& b) {
    return a.id < b.id;
  };
  std::sort(mine.begin(), mine.end(), by_id);
  std::sort(theirs.begin(), theirs.end(), by_id);
  EXPECT_EQ(mine, theirs);
}

TEST(AdmissionParallel, CellLocalChurnShardsItsReleases) {
  // Releases of channels live at the start of the call are decided inside
  // their component's shard, so a churn stream with a release every few
  // admits still runs as one sharded batch, in which each cell's links form
  // one component: one shard per cell. (Were each release to cut the
  // batch, the short batches between releases would split cells into
  // several small components instead.)
  const std::uint32_t nodes = 32;
  const std::uint32_t cells = nodes / 4;
  AdmissionController controller(nodes, make_partitioner("ADPS"));
  ParallelAdmissionEngine parallel = make_parallel(nodes, "ADPS", 4);

  const auto warmup = celled_stream(61, 400, nodes, 4);
  const ChurnResult first = parallel.process(warmup);
  expect_churn_identity(warmup, first, controller, parallel);
  std::vector<ChannelId> live;
  for (const auto& outcome : first.admissions) {
    if (outcome.has_value()) {
      live.push_back(outcome->id);
    }
  }
  ASSERT_GT(live.size(), 80u);

  Rng rng(62);
  std::vector<ChannelOp> ops;
  std::size_t releases = 0;
  for (const auto& request : celled_stream(63, 300, nodes, 4)) {
    if (!live.empty() && rng.index(4) == 0) {
      const auto victim = rng.index(live.size());
      ops.push_back(ChannelOp::release(live[victim]));
      live[victim] = live.back();
      live.pop_back();
      ++releases;
    }
    ops.push_back(ChannelOp::admit(request.spec));
  }
  ASSERT_GT(releases, 50u);
  const ChurnResult churn = parallel.process(ops);
  EXPECT_EQ(parallel.last_shard_count(), cells)
      << "releases of live channels must not cut the batch";
  expect_churn_identity(ops, churn, controller, parallel);
}

TEST(AdmissionParallel, ReleaseOfAnInBatchAdmitMatches) {
  // The released ID is only assigned by the merge of the admit that
  // precedes it in the same call, so the release cuts the batch and runs on
  // the merged state.
  const std::uint32_t nodes = 16;
  AdmissionController controller(nodes, make_partitioner("ADPS"));
  ParallelAdmissionEngine parallel = make_parallel(nodes, "ADPS", 4);
  std::vector<ChannelOp> ops = celled_stream(71, 120, nodes, 4);
  // IDs 1 and 2 go to the first two accepted admits of the call.
  ops.push_back(ChannelOp::release(ChannelId{2}));
  ops.push_back(ChannelOp::release(ChannelId{1}));
  for (const auto& op : celled_stream(72, 120, nodes, 4)) {
    ops.push_back(op);
  }
  const ChurnResult churn = parallel.process(ops);
  ASSERT_EQ(churn.releases.size(), 2u);
  EXPECT_TRUE(churn.releases[0].has_value());
  EXPECT_TRUE(churn.releases[1].has_value());
  EXPECT_GT(parallel.last_shard_count(), 1u);
  expect_churn_identity(ops, churn, controller, parallel);
}

TEST(AdmissionParallel, RecycledIdReleasedTwiceInOneBatchMatches) {
  // Release a live ID, let an in-batch admit recycle it (smallest-free
  // allocation hands it out again), then release it a second time: the
  // second release must tear down the recycled channel, exactly as in the
  // sequential replay.
  const std::uint32_t nodes = 16;
  AdmissionController controller(nodes, make_partitioner("SDPS"));
  ParallelAdmissionEngine parallel = make_parallel(nodes, "SDPS", 4);
  std::vector<ChannelOp> setup;
  for (std::uint32_t cell = 0; cell < 4; ++cell) {
    setup.push_back(
        ChannelOp::admit(spec(cell * 4, cell * 4 + 1, 100, 1, 50)));
  }
  const ChurnResult first = parallel.process(setup);
  expect_churn_identity(setup, first, controller, parallel);
  ASSERT_EQ(first.accepted(), 4u);  // IDs 1..4, every ID below 5 live

  std::vector<ChannelOp> ops;
  ops.push_back(ChannelOp::release(ChannelId{3}));
  ops.push_back(ChannelOp::admit(spec(9, 10, 100, 1, 50)));  // recycles 3
  for (const auto& op : celled_stream(81, 100, nodes, 4)) {
    ops.push_back(op);
  }
  ops.push_back(ChannelOp::release(ChannelId{3}));
  for (const auto& op : celled_stream(82, 100, nodes, 4)) {
    ops.push_back(op);
  }
  const ChurnResult churn = parallel.process(ops);
  ASSERT_TRUE(churn.admissions[0].has_value());
  EXPECT_EQ(churn.admissions[0]->id, ChannelId{3});
  ASSERT_EQ(churn.releases.size(), 2u);
  EXPECT_TRUE(churn.releases[0].has_value());
  EXPECT_TRUE(churn.releases[1].has_value());
  expect_churn_identity(ops, churn, controller, parallel);
}

TEST(AdmissionParallel, IdRecycledByOneCallIsReleasedInShardByTheNext) {
  // `process` remembers the IDs released so far in a batch to cut the
  // stream at a second release of one; that memory must not leak into the
  // next call. The first call releases ID 2 and re-admits it; the second
  // releases it again between admits of two other cells, and (the ID being
  // live at its start) decides it in its own shard without a cut.
  const std::uint32_t nodes = 16;
  AdmissionController controller(nodes, make_partitioner("ADPS"));
  ParallelAdmissionEngine parallel = make_parallel(nodes, "ADPS", 4);
  std::vector<ChannelOp> setup;
  for (std::uint32_t cell = 0; cell < 4; ++cell) {
    setup.push_back(
        ChannelOp::admit(spec(cell * 4, cell * 4 + 1, 100, 1, 50)));
  }
  const ChurnResult warm = parallel.process(setup);
  expect_churn_identity(setup, warm, controller, parallel);
  ASSERT_EQ(warm.accepted(), 4u);  // IDs 1..4

  const std::vector<ChannelOp> first = {
      ChannelOp::release(ChannelId{2}),
      ChannelOp::admit(spec(4, 6, 100, 1, 50)),  // recycles 2
      ChannelOp::admit(spec(8, 10, 100, 1, 50)),
  };
  const ChurnResult recycled = parallel.process(first);
  EXPECT_EQ(parallel.last_shard_count(), 2u);
  ASSERT_TRUE(recycled.admissions[0].has_value());
  EXPECT_EQ(recycled.admissions[0]->id, ChannelId{2});
  expect_churn_identity(first, recycled, controller, parallel);

  const std::vector<ChannelOp> second = {
      ChannelOp::admit(spec(0, 2, 100, 1, 50)),
      ChannelOp::release(ChannelId{2}),
      ChannelOp::admit(spec(12, 14, 100, 1, 50)),
  };
  const ChurnResult churn = parallel.process(second);
  ASSERT_EQ(churn.releases.size(), 1u);
  EXPECT_TRUE(churn.releases[0].has_value());
  EXPECT_EQ(parallel.last_shard_count(), 3u)
      << "a release from the previous call must not cut this one";
  expect_churn_identity(second, churn, controller, parallel);
}

TEST(AdmissionParallel, SmallBatchTakesSequentialPath) {
  ParallelAdmissionEngine parallel = make_parallel(8, "ADPS", 4,
                                                   /*min_parallel_batch=*/64);
  const auto requests = celled_stream(51, 20, 8, 4);
  const auto batch = parallel.process(requests);
  EXPECT_EQ(batch.admissions.size(), requests.size());
  EXPECT_EQ(parallel.last_shard_count(), 1u);
}

TEST(AdmissionParallel, NonCheckpointScanFallsBackAndMatches) {
  // Cross-scan oracle: the sharded engine always runs the cached checkpoint
  // scan, and must match a reference controller scanning every slot outcome
  // for outcome — verdict, ID, partition, reason and diagnostic.
  AdmissionConfig every_slot;
  every_slot.scan = edf::DemandScan::kEverySlot;
  AdmissionController controller(8, make_partitioner("SDPS"), every_slot);
  ParallelAdmissionEngine parallel = make_parallel(8, "SDPS", 4);
  const auto requests = celled_stream(52, 80, 8, 4);
  const auto batch = parallel.process(requests);
  ASSERT_EQ(batch.admissions.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto expected = controller.request(requests[i].spec);
    const auto& actual = batch.admissions[i];
    ASSERT_EQ(expected.has_value(), actual.has_value()) << "request " << i;
    if (expected.has_value()) {
      EXPECT_EQ(*expected, *actual) << "request " << i;
    } else {
      EXPECT_EQ(expected.error(), actual.error()) << "request " << i;
    }
  }
  EXPECT_GT(parallel.last_shard_count(), 1u);
}

TEST(AdmissionParallel, EmptyBatch) {
  ParallelAdmissionEngine parallel = make_parallel(4, "SDPS", 2);
  const auto result = parallel.process({});
  EXPECT_TRUE(result.admissions.empty());
  EXPECT_EQ(parallel.last_shard_count(), 0u);
}

TEST(AdmissionParallel, SingleAdmitSharesState) {
  ParallelAdmissionEngine parallel = make_parallel(4, "SDPS", 2);
  AdmissionController controller(4, make_partitioner("SDPS"));
  const auto requests = celled_stream(53, 120, 4, 2);
  for (const auto& request : requests) {
    const auto expected = controller.request(request.spec);
    const auto actual = parallel.admit(request.spec);
    ASSERT_EQ(expected.has_value(), actual.has_value());
    if (expected.has_value()) {
      EXPECT_EQ(expected->id, actual->id);
    }
  }
}

TEST(AdmissionParallel, InvalidAndUnknownRequestsRejectIdentically) {
  ParallelAdmissionEngine parallel = make_parallel(4, "SDPS", 2);
  AdmissionController controller(4, make_partitioner("SDPS"));
  std::vector<ChannelOp> requests;
  // A parallel-eligible core plus deliberately bad specs mixed in.
  for (std::uint32_t i = 0; i < 40; ++i) {
    requests.push_back(ChannelOp::admit(spec(i % 2, (i % 2) ^ 1, 100, 2, 30)));
    requests.push_back(ChannelOp::admit(spec(2 + i % 2, 3 - i % 2, 80, 2, 25)));
  }
  requests.push_back(ChannelOp::admit(spec(0, 1, 100, 3, 5)));   // d < 2C
  requests.push_back(ChannelOp::admit(spec(0, 9, 100, 3, 40)));  // bad node
  requests.push_back(ChannelOp::admit(spec(7, 1, 100, 3, 40)));  // bad node
  requests.push_back(ChannelOp::admit(spec(0, 1, 0, 0, 0)));     // degenerate
  const auto batch = parallel.process(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto expected = controller.request(requests[i].spec);
    ASSERT_EQ(expected.has_value(), batch.admissions[i].has_value())
        << "request " << i;
    if (!expected.has_value()) {
      EXPECT_EQ(expected.error().reason, batch.admissions[i].error().reason);
      EXPECT_EQ(expected.error().detail, batch.admissions[i].error().detail);
    }
  }
}

TEST(AdmissionParallel, ExhaustionAfterChurnLeaksNoIds) {
  // Placeholder channel IDs are drawn from the allocator's free pool for
  // every sharded batch; they must be returned on every exit path (rejected
  // shards, sequential fallback, merge) or the allocator would drift from
  // the channel registry and exhaust early under churn. Implicit deadlines
  // (d == P) with tiny utilization keep every admit on the Liu & Layland
  // fast path, so driving the full 16-bit ID space stays cheap.
  const std::uint32_t nodes = 64;
  ParallelAdmissionEngine parallel = make_parallel(nodes, "SDPS", 2, 2);
  auto cheap_spec = [&](std::uint32_t i) {
    const std::uint32_t cell = i % (nodes / 2);
    return spec(cell * 2, cell * 2 + 1, 1'000'000'000, 1, 1'000'000'000);
  };

  // Churn rounds: sharded batches interleaved with releases; after every
  // round the allocator's live count must equal the registry exactly.
  std::vector<ChannelId> live;
  std::uint32_t salt = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<ChannelOp> batch;
    for (std::uint32_t i = 0; i < 200; ++i) {
      batch.push_back(ChannelOp::admit(cheap_spec(salt++)));
    }
    const auto result = parallel.process(batch);
    for (const auto& outcome : result.admissions) {
      ASSERT_TRUE(outcome.has_value());
      live.push_back(outcome->id);
    }
    for (int k = 0; k < 100 && !live.empty(); ++k) {
      ASSERT_TRUE(parallel.release(live.back()));
      live.pop_back();
    }
    ASSERT_EQ(parallel.state().channel_count(), live.size());
  }

  // Drive the allocator to genuine exhaustion: every remaining ID must
  // still be allocatable (none leaked by the churn above) and the overflow
  // request must reject with kChannelIdsExhausted, matching the registry.
  while (live.size() < ChannelIdAllocator::kCapacity) {
    const std::size_t want = std::min<std::size_t>(
        4096, ChannelIdAllocator::kCapacity - live.size());
    std::vector<ChannelOp> batch;
    for (std::size_t i = 0; i < want; ++i) {
      batch.push_back(ChannelOp::admit(cheap_spec(salt++)));
    }
    const auto result = parallel.process(batch);
    for (const auto& outcome : result.admissions) {
      ASSERT_TRUE(outcome.has_value()) << "ID leaked: allocator exhausted at "
                                       << live.size() << " live channels";
      live.push_back(outcome->id);
    }
  }
  ASSERT_EQ(live.size(), ChannelIdAllocator::kCapacity);
  const auto overflow = parallel.admit(cheap_spec(salt++));
  ASSERT_FALSE(overflow.has_value());
  EXPECT_EQ(overflow.error().reason, RejectReason::kChannelIdsExhausted);

  // Full drain: every ID comes back.
  for (const ChannelId id : live) {
    ASSERT_TRUE(parallel.release(id));
  }
  EXPECT_EQ(parallel.state().channel_count(), 0u);
  const auto after_drain = parallel.admit(cheap_spec(salt++));
  ASSERT_TRUE(after_drain.has_value());
  EXPECT_EQ(after_drain->id, ChannelId{1});  // smallest-free allocation again
}

}  // namespace
}  // namespace rtether::core
