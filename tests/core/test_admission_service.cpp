/// Decision-identity and concurrency proof for the resident
/// `AdmissionService`: whatever interleaving the producers, the dispatcher
/// and the shard workers land on, the linearization order (the dispatcher's
/// ingest dequeue, exposed through `Ticket::sequence()`) replayed through
/// the reference `AdmissionController` must reproduce every outcome
/// bit-for-bit — accepts, rejects, channel IDs, partitions, rejection
/// reasons and diagnostic strings, and the aggregate stats. The suite runs
/// under ThreadSanitizer in CI: multi-producer storms, shutdown with
/// in-flight tickets and re-partition-under-load double as the data-race
/// net for the MPSC ring, the dispatcher's bursts and the engine's shards.

#include "core/admission_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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

/// Traffic inside a 4-node cell: sources and destinations stay in one
/// conflict component per cell, so the service actually shards.
constexpr std::uint32_t kCellSize = 4;

ChannelSpec cell_spec(Rng& rng, std::uint32_t cell, std::uint32_t cells) {
  static constexpr Slot kPeriods[] = {60, 80, 100, 150, 200, 300};
  const auto base = cell * kCellSize;
  const auto src = base + static_cast<std::uint32_t>(rng.index(kCellSize));
  auto dst = base + static_cast<std::uint32_t>(rng.index(kCellSize));
  if (dst == src) {
    dst = base + (dst - base + 1) % kCellSize;
  }
  const Slot period = kPeriods[rng.index(std::size(kPeriods))];
  const Slot capacity = 1 + rng.index(3);
  Slot deadline;
  if (rng.index(16) == 0) {
    deadline = rng.index(2 * capacity);  // violates d >= 2C
  } else {
    deadline = 2 * capacity + rng.index(period - 2 * capacity + 1);
  }
  (void)cells;
  return spec(src, dst, period, capacity, deadline);
}

/// Oracle-driven churn stream: release targets are the IDs the sequential
/// controller assigns, so the same concrete ops can be replayed through any
/// backend. Roughly one release per three admits once channels are live.
std::vector<ChannelOp> churn_stream(std::uint64_t seed, std::size_t count,
                                    std::uint32_t cells) {
  Rng rng(seed);
  AdmissionController oracle(cells * kCellSize, make_partitioner("SDPS"));
  std::vector<ChannelId> live;
  std::vector<ChannelOp> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    if (!live.empty() && rng.index(3) == 0) {
      const auto victim = rng.index(live.size());
      const ChannelId id = live[victim];
      live[victim] = live.back();
      live.pop_back();
      ops.push_back(ChannelOp::release(id));
      EXPECT_TRUE(oracle.release(id));
      continue;
    }
    const auto cell = static_cast<std::uint32_t>(rng.index(cells));
    const ChannelSpec request = cell_spec(rng, cell, cells);
    ops.push_back(ChannelOp::admit(request));
    if (const auto outcome = oracle.request(request)) {
      live.push_back(outcome->id);
    }
  }
  return ops;
}

void expect_same_admit(const AdmitOutcome& actual, const AdmitOutcome& oracle,
                       const std::string& where) {
  ASSERT_EQ(actual.has_value(), oracle.has_value()) << where;
  if (oracle.has_value()) {
    EXPECT_EQ(*actual, *oracle) << where;
  } else {
    EXPECT_EQ(actual.error().reason, oracle.error().reason) << where;
    EXPECT_EQ(actual.error().detail, oracle.error().detail) << where;
  }
}

void expect_same_release(const ReleaseOutcome& actual,
                         const ReleaseOutcome& oracle,
                         const std::string& where) {
  ASSERT_EQ(actual.has_value(), oracle.has_value()) << where;
  if (oracle.has_value()) {
    EXPECT_EQ(*actual, *oracle) << where;
  } else {
    EXPECT_EQ(actual.error().reason, oracle.error().reason) << where;
    EXPECT_EQ(actual.error().detail, oracle.error().detail) << where;
  }
}

/// Replays `ops` through a fresh controller and checks the service's
/// ChurnResult op for op, then stats and the live-channel registries.
void expect_matches_controller(std::span<const ChannelOp> ops,
                               const ChurnResult& churn,
                               AdmissionService& service) {
  AdmissionController oracle(service.state().node_count(),
                             make_partitioner("SDPS"));
  std::size_t admit_cursor = 0;
  std::size_t release_cursor = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string where = "op " + std::to_string(i);
    if (ops[i].kind == ChannelOp::Kind::kAdmit) {
      ASSERT_LT(admit_cursor, churn.admissions.size());
      expect_same_admit(churn.admissions[admit_cursor++],
                        oracle.request(ops[i].spec), where);
    } else {
      ASSERT_LT(release_cursor, churn.releases.size());
      expect_same_release(churn.releases[release_cursor++],
                          oracle.release(ops[i].id), where);
    }
  }
  const AdmissionStats& got = service.stats();
  const AdmissionStats& want = oracle.stats();
  EXPECT_EQ(got.requested, want.requested);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.released, want.released);
  EXPECT_EQ(got.feasibility_tests, want.feasibility_tests);
  EXPECT_EQ(got.demand_evaluations, want.demand_evaluations);

  auto mine = service.state().channels();
  auto theirs = oracle.state().channels();
  auto by_id = [](const RtChannel& a, const RtChannel& b) {
    return a.id < b.id;
  };
  std::sort(mine.begin(), mine.end(), by_id);
  std::sort(theirs.begin(), theirs.end(), by_id);
  ASSERT_EQ(mine.size(), theirs.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i], theirs[i]);
  }
}

AdmissionServiceConfig config_with_workers(unsigned workers) {
  AdmissionServiceConfig config;
  config.workers = workers;
  return config;
}

TEST(AdmissionService, ZeroWorkersSelectsInlineMode) {
  AdmissionService service(8, make_partitioner("SDPS"),
                           config_with_workers(0));
  EXPECT_EQ(service.mode(), AdmissionService::Mode::kInline);
  EXPECT_EQ(service.worker_count(), 0u);
}

TEST(AdmissionService, ResidentModeSpawnsWorkers) {
  AdmissionService service(8, make_partitioner("SDPS"),
                           config_with_workers(2));
  EXPECT_EQ(service.mode(), AdmissionService::Mode::kResident);
  EXPECT_EQ(service.worker_count(), 2u);
}

TEST(AdmissionService, InlineModeMatchesController) {
  const auto ops = churn_stream(0x51c0, 400, 4);
  AdmissionService service(4 * kCellSize, make_partitioner("SDPS"),
                           config_with_workers(0));
  const ChurnResult churn = service.submit(ops);
  expect_matches_controller(ops, churn, service);
}

TEST(AdmissionService, ResidentSubmitMatchesController) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    const auto ops = churn_stream(0xbeef + workers, 600, 6);
    AdmissionService service(6 * kCellSize, make_partitioner("SDPS"),
                             config_with_workers(workers));
    ASSERT_EQ(service.mode(), AdmissionService::Mode::kResident);
    const ChurnResult churn = service.submit(ops);
    expect_matches_controller(ops, churn, service);
  }
}

TEST(AdmissionService, SmallRingsStillCompleteEveryOp) {
  // A tiny ingest ring forces producer backpressure and one-op bursts.
  const auto ops = churn_stream(0x7777, 500, 4);
  AdmissionServiceConfig config = config_with_workers(2);
  config.queue_capacity = 4;
  AdmissionService service(4 * kCellSize, make_partitioner("SDPS"), config);
  const ChurnResult churn = service.submit(ops);
  expect_matches_controller(ops, churn, service);
}

TEST(AdmissionService, TicketsExposeTheLinearizationOrder) {
  const auto ops = churn_stream(0xabcd, 200, 3);
  AdmissionService service(3 * kCellSize, make_partitioner("SDPS"),
                           config_with_workers(2));
  std::vector<Ticket> tickets;
  tickets.reserve(ops.size());
  for (const ChannelOp& op : ops) {
    tickets.push_back(service.submit_async(op));
  }
  // Single producer: the dispatcher must dequeue in submission order.
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    tickets[i].wait();
    EXPECT_TRUE(tickets[i].done());
    EXPECT_EQ(tickets[i].sequence(), i);
    EXPECT_EQ(tickets[i].kind(), ops[i].kind);
  }
}

TEST(AdmissionService, ReleaseOfInflightAdmitIdWaitsForTheAdmit) {
  // The very first accepted admit gets ChannelId{1}; releasing it without
  // waiting names an ID that only the admit's verdict makes live.
  AdmissionService service(kCellSize, make_partitioner("SDPS"),
                           config_with_workers(1));
  const Ticket admit = service.submit_async(
      ChannelOp::admit(spec(0, 1, 100, 2, 40)));
  const Ticket release =
      service.submit_async(ChannelOp::release(ChannelId{1}));
  release.wait();
  ASSERT_TRUE(admit.admit_outcome().has_value());
  EXPECT_EQ(admit.admit_outcome()->id, ChannelId{1});
  ASSERT_TRUE(release.release_outcome().has_value());
  EXPECT_EQ(*release.release_outcome(), ChannelId{1});
}

TEST(AdmissionService, UnknownReleaseRejectsTypedLikeTheController) {
  AdmissionService service(kCellSize, make_partitioner("SDPS"),
                           config_with_workers(1));
  // Keep an admit in flight so the release may share its burst.
  (void)service.submit_async(ChannelOp::admit(spec(0, 1, 100, 2, 40)));
  const ReleaseOutcome outcome = service.release(ChannelId{999});
  AdmissionController oracle(kCellSize, make_partitioner("SDPS"));
  (void)oracle.request(spec(0, 1, 100, 2, 40));
  const ReleaseOutcome want = oracle.release(ChannelId{999});
  expect_same_release(outcome, want, "unknown release");
}

TEST(AdmissionService, ShutdownCompletesInflightTickets) {
  const auto ops = churn_stream(0xdead, 300, 4);
  std::vector<Ticket> tickets;
  {
    AdmissionService service(4 * kCellSize, make_partitioner("SDPS"),
                             config_with_workers(3));
    tickets.reserve(ops.size());
    for (const ChannelOp& op : ops) {
      tickets.push_back(service.submit_async(op));
    }
    // Destructor must drain every in-flight op before joining.
  }
  AdmissionController oracle(4 * kCellSize, make_partitioner("SDPS"));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].done()) << "ticket " << i;
    const std::string where = "op " + std::to_string(i);
    if (ops[i].kind == ChannelOp::Kind::kAdmit) {
      expect_same_admit(tickets[i].admit_outcome(),
                        oracle.request(ops[i].spec), where);
    } else {
      expect_same_release(tickets[i].release_outcome(),
                          oracle.release(ops[i].id), where);
    }
  }
}

TEST(AdmissionService, RepartitionUnderLoadStaysBitIdentical) {
  // Phase 1 populates six per-cell components; phase 2 admits cross-cell
  // channels that merge components from one burst to the next while
  // per-cell churn keeps the workers busy.
  const std::uint32_t cells = 6;
  Rng rng(0x9a9a);
  AdmissionController oracle(cells * kCellSize, make_partitioner("SDPS"));
  std::vector<ChannelId> live;
  std::vector<ChannelOp> ops;
  auto push = [&](const ChannelOp& op) {
    ops.push_back(op);
    if (op.kind == ChannelOp::Kind::kAdmit) {
      if (const auto outcome = oracle.request(op.spec)) {
        live.push_back(outcome->id);
      }
    } else {
      EXPECT_TRUE(oracle.release(op.id));
    }
  };
  for (std::size_t i = 0; i < 240; ++i) {
    const auto cell = static_cast<std::uint32_t>(rng.index(cells));
    push(ChannelOp::admit(cell_spec(rng, cell, cells)));
  }
  for (std::uint32_t merge = 0; merge + 1 < cells; ++merge) {
    // Bridge cell `merge` into cell `merge + 1`.
    push(ChannelOp::admit(spec(merge * kCellSize,
                               (merge + 1) * kCellSize + 1, 300, 1, 40)));
    for (int i = 0; i < 20; ++i) {
      const auto cell = static_cast<std::uint32_t>(rng.index(cells));
      if (!live.empty() && rng.index(3) == 0) {
        const auto victim = rng.index(live.size());
        const ChannelId id = live[victim];
        live[victim] = live.back();
        live.pop_back();
        push(ChannelOp::release(id));
      } else {
        push(ChannelOp::admit(cell_spec(rng, cell, cells)));
      }
    }
  }
  AdmissionService service(cells * kCellSize, make_partitioner("SDPS"),
                           config_with_workers(4));
  const ChurnResult churn = service.submit(ops);
  expect_matches_controller(ops, churn, service);
}

TEST(AdmissionService, MultiProducerStormMatchesSequentialOracle) {
  // Each producer admits into its own cells and releases only channels it
  // admitted itself; the interleaving across producers is arbitrary. The
  // ticket sequence numbers recover the linearization order, and a
  // sequential replay in that order must match every outcome.
  constexpr unsigned kProducers = 4;
  constexpr std::uint32_t kCellsPerProducer = 2;
  constexpr std::size_t kOpsPerProducer = 250;
  const std::uint32_t cells = kProducers * kCellsPerProducer;
  AdmissionService service(cells * kCellSize, make_partitioner("SDPS"),
                           config_with_workers(3));

  struct Submission {
    ChannelOp op;
    Ticket ticket;
  };
  std::vector<std::vector<Submission>> per_producer(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(0x1000 + p);
      auto& log = per_producer[p];
      log.reserve(kOpsPerProducer);
      std::vector<ChannelId> own_live;
      for (std::size_t i = 0; i < kOpsPerProducer; ++i) {
        if (!own_live.empty() && rng.index(3) == 0) {
          const auto victim = rng.index(own_live.size());
          const ChannelId id = own_live[victim];
          own_live[victim] = own_live.back();
          own_live.pop_back();
          const ChannelOp op = ChannelOp::release(id);
          log.push_back({op, service.submit_async(op)});
          continue;
        }
        const auto cell = p * kCellsPerProducer +
                          static_cast<std::uint32_t>(rng.index(
                              kCellsPerProducer));
        const ChannelOp op = ChannelOp::admit(cell_spec(rng, cell, cells));
        Ticket ticket = service.submit_async(op);
        if (rng.index(4) != 0) {
          // Usually learn the assigned ID so it can be released later;
          // sometimes leave the ticket dangling to keep ops in flight.
          ticket.wait();
          if (ticket.admit_outcome().has_value()) {
            own_live.push_back(ticket.admit_outcome()->id);
          }
        }
        log.push_back({op, std::move(ticket)});
      }
    });
  }
  for (auto& thread : producers) {
    thread.join();
  }
  service.drain();

  std::vector<const Submission*> in_order;
  for (const auto& log : per_producer) {
    for (const auto& submission : log) {
      EXPECT_TRUE(submission.ticket.done());
      in_order.push_back(&submission);
    }
  }
  std::sort(in_order.begin(), in_order.end(),
            [](const Submission* a, const Submission* b) {
              return a->ticket.sequence() < b->ticket.sequence();
            });

  AdmissionController oracle(cells * kCellSize, make_partitioner("SDPS"));
  for (std::size_t i = 0; i < in_order.size(); ++i) {
    const Submission& submission = *in_order[i];
    ASSERT_EQ(submission.ticket.sequence(), i)
        << "sequence numbers must be dense";
    const std::string where = "seq " + std::to_string(i);
    if (submission.op.kind == ChannelOp::Kind::kAdmit) {
      expect_same_admit(submission.ticket.admit_outcome(),
                        oracle.request(submission.op.spec), where);
    } else {
      expect_same_release(submission.ticket.release_outcome(),
                          oracle.release(submission.op.id), where);
    }
  }
  const AdmissionStats& got = service.stats();
  const AdmissionStats& want = oracle.stats();
  EXPECT_EQ(got.requested, want.requested);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.released, want.released);
  EXPECT_EQ(got.feasibility_tests, want.feasibility_tests);
  EXPECT_EQ(got.demand_evaluations, want.demand_evaluations);
}

TEST(AdmissionService, CompletionCallbackRunsInlineWhenAlreadyDone) {
  // Inline mode: ops complete inside submit_async, so an on_complete
  // registered afterwards must fire before it returns.
  AdmissionService service(4, make_partitioner("SDPS"),
                           config_with_workers(0));
  Ticket ticket = service.submit_async(ChannelOp::admit(spec(0, 1, 100, 2, 40)));
  ASSERT_TRUE(ticket.done());
  bool fired = false;
  ticket.on_complete([&] { fired = true; });
  EXPECT_TRUE(fired);
  EXPECT_TRUE(ticket.admit_outcome().has_value());
}

TEST(AdmissionService, CompletionCallbackSeesTheOutcome) {
  // Resident mode: the callback runs on the retiring thread after the
  // outcome is published, so it can read the verdict directly.
  AdmissionService service(4, make_partitioner("SDPS"),
                           config_with_workers(2));
  std::atomic<bool> fired{false};
  std::atomic<bool> accepted{false};
  Ticket ticket = service.submit_async(ChannelOp::admit(spec(0, 1, 100, 2, 40)));
  ticket.on_complete([&] {
    accepted.store(ticket.admit_outcome().has_value(),
                   std::memory_order_relaxed);
    fired.store(true, std::memory_order_release);
  });
  service.drain();
  ticket.wait();
  EXPECT_TRUE(fired.load(std::memory_order_acquire));
  EXPECT_TRUE(accepted.load(std::memory_order_relaxed));
}

TEST(AdmissionService, CallbackStormFiresOnceAndStaysBitIdentical) {
  // The storm re-run with completion callbacks instead of waits: every op
  // must fire its callback exactly once (whichever side of the handoff
  // wins), and the outcomes read back afterwards must still replay
  // bit-identically through the sequential oracle in ticket-sequence order.
  constexpr unsigned kProducers = 4;
  constexpr std::uint32_t kCellsPerProducer = 2;
  constexpr std::size_t kOpsPerProducer = 200;
  const std::uint32_t cells = kProducers * kCellsPerProducer;
  AdmissionService service(cells * kCellSize, make_partitioner("SDPS"),
                           config_with_workers(3));

  struct Submission {
    ChannelOp op;
    Ticket ticket;
  };
  std::vector<std::vector<Submission>> per_producer(kProducers);
  std::vector<std::atomic<int>> fire_counts(kProducers * kOpsPerProducer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(0x2000 + p);
      auto& log = per_producer[p];
      log.reserve(kOpsPerProducer);
      std::vector<ChannelId> own_live;
      for (std::size_t i = 0; i < kOpsPerProducer; ++i) {
        std::atomic<int>& fires = fire_counts[p * kOpsPerProducer + i];
        ChannelOp op = ChannelOp::admit(cell_spec(
            rng, p * kCellsPerProducer +
                     static_cast<std::uint32_t>(rng.index(kCellsPerProducer)),
            cells));
        if (!own_live.empty() && rng.index(3) == 0) {
          const auto victim = rng.index(own_live.size());
          const ChannelId id = own_live[victim];
          own_live[victim] = own_live.back();
          own_live.pop_back();
          op = ChannelOp::release(id);
        }
        Ticket ticket = service.submit_async(op);
        if (rng.index(2) == 0) {
          // Install before completion (usually): the retiring thread wins
          // the handoff and runs the callback.
          ticket.on_complete(
              [&fires] { fires.fetch_add(1, std::memory_order_relaxed); });
        } else {
          // Install after completion: the installer runs it inline.
          ticket.wait();
          ticket.on_complete(
              [&fires] { fires.fetch_add(1, std::memory_order_relaxed); });
        }
        if (op.kind == ChannelOp::Kind::kAdmit && rng.index(4) != 0) {
          ticket.wait();
          if (ticket.admit_outcome().has_value()) {
            own_live.push_back(ticket.admit_outcome()->id);
          }
        }
        log.push_back({op, std::move(ticket)});
      }
    });
  }
  for (auto& thread : producers) {
    thread.join();
  }
  service.drain();

  std::vector<const Submission*> in_order;
  for (const auto& log : per_producer) {
    for (const auto& submission : log) {
      EXPECT_TRUE(submission.ticket.done());
      in_order.push_back(&submission);
    }
  }
  for (const auto& fires : fire_counts) {
    EXPECT_EQ(fires.load(std::memory_order_relaxed), 1);
  }
  std::sort(in_order.begin(), in_order.end(),
            [](const Submission* a, const Submission* b) {
              return a->ticket.sequence() < b->ticket.sequence();
            });
  AdmissionController oracle(cells * kCellSize, make_partitioner("SDPS"));
  for (std::size_t i = 0; i < in_order.size(); ++i) {
    const Submission& submission = *in_order[i];
    const std::string where = "seq " + std::to_string(i);
    if (submission.op.kind == ChannelOp::Kind::kAdmit) {
      expect_same_admit(submission.ticket.admit_outcome(),
                        oracle.request(submission.op.spec), where);
    } else {
      expect_same_release(submission.ticket.release_outcome(),
                          oracle.release(submission.op.id), where);
    }
  }
}

}  // namespace
}  // namespace rtether::core
