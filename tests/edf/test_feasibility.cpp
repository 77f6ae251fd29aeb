#include "edf/feasibility.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/random.hpp"

namespace rtether::edf {
namespace {

PseudoTask task(std::uint16_t id, Slot period, Slot capacity, Slot deadline) {
  return PseudoTask{ChannelId(id), period, capacity, deadline};
}

/// All three scan strategies must agree — run every case through each.
class FeasibilityAllScans : public ::testing::TestWithParam<DemandScan> {};

INSTANTIATE_TEST_SUITE_P(Scans, FeasibilityAllScans,
                         ::testing::Values(DemandScan::kEverySlot,
                                           DemandScan::kCheckpoints,
                                           DemandScan::kExhaustive),
                         [](const ::testing::TestParamInfo<DemandScan>& scan_info) {
                           switch (scan_info.param) {
                             case DemandScan::kEverySlot:
                               return "EverySlot";
                             case DemandScan::kCheckpoints:
                               return "Checkpoints";
                             case DemandScan::kExhaustive:
                               return "Exhaustive";
                           }
                           return "?";
                         });

TEST_P(FeasibilityAllScans, EmptySetIsFeasible) {
  const TaskSet set;
  EXPECT_TRUE(is_feasible(set, GetParam()));
}

TEST_P(FeasibilityAllScans, SingleLightTask) {
  TaskSet set;
  set.add(task(1, 100, 3, 40));
  EXPECT_TRUE(is_feasible(set, GetParam()));
}

TEST_P(FeasibilityAllScans, DeadlineShorterThanCapacityInfeasible) {
  TaskSet set;
  set.add(task(1, 100, 5, 4));  // C > d: h(4) = 5 > 4
  const auto report = check_feasibility(set, GetParam());
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.reason, InfeasibleReason::kDemandExceeded);
  EXPECT_EQ(report.violation_time, 4u);
  EXPECT_EQ(report.violation_demand, 5u);
}

TEST_P(FeasibilityAllScans, UtilizationOverloadCaughtFirst) {
  TaskSet set;
  set.add(task(1, 10, 6, 10));
  set.add(task(2, 10, 6, 10));  // U = 1.2
  const auto report = check_feasibility(set, GetParam());
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.reason, InfeasibleReason::kUtilizationExceeded);
  EXPECT_GT(report.utilization, 1.0);
  EXPECT_EQ(report.demand_evaluations, 0u);
}

TEST_P(FeasibilityAllScans, PaperSdpsUplinkBoundary) {
  // Fig 18.5 analytics: 6 × {P=100,C=3,d=20} feasible; 7 × infeasible.
  TaskSet six;
  for (std::uint16_t i = 1; i <= 6; ++i) six.add(task(i, 100, 3, 20));
  EXPECT_TRUE(is_feasible(six, GetParam()));

  TaskSet seven;
  for (std::uint16_t i = 1; i <= 7; ++i) seven.add(task(i, 100, 3, 20));
  const auto report = check_feasibility(seven, GetParam());
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.reason, InfeasibleReason::kDemandExceeded);
  EXPECT_EQ(report.violation_time, 20u);  // h(20) = 21 > 20
  EXPECT_EQ(report.violation_demand, 21u);
}

TEST_P(FeasibilityAllScans, PaperAdpsUplinkBoundary) {
  // ADPS gives the master uplink d_iu = 33: 11 channels fit (33 = 11·3).
  TaskSet eleven;
  for (std::uint16_t i = 1; i <= 11; ++i) eleven.add(task(i, 100, 3, 33));
  EXPECT_TRUE(is_feasible(eleven, GetParam()));
  TaskSet twelve;
  for (std::uint16_t i = 1; i <= 12; ++i) twelve.add(task(i, 100, 3, 33));
  EXPECT_FALSE(is_feasible(twelve, GetParam()));
}

TEST_P(FeasibilityAllScans, MixedPeriodsClassicExample) {
  // {P=4,C=1,d=2}, {P=6,C=2,d=5}, {P=12,C=3,d=10}: U = 1/4+1/3+1/4 = 5/6.
  // Demand: h(2)=1, h(5)=1+2=3? deadlines: 2,6,10,14.. / 5,11,17.. / 10,22..
  // h(5)=1(t=2)+2(t=5)=3 ≤ 5; h(10)=2+2+3=7≤10; h(11)=2+4+3=9≤11 — feasible.
  TaskSet set;
  set.add(task(1, 4, 1, 2));
  set.add(task(2, 6, 2, 5));
  set.add(task(3, 12, 3, 10));
  EXPECT_TRUE(is_feasible(set, GetParam()));
}

TEST_P(FeasibilityAllScans, TightDeadlinesInfeasibleDespiteLowUtilization) {
  // U = 0.3 but both want the same 3 slots before t=3.
  TaskSet set;
  set.add(task(1, 20, 3, 3));
  set.add(task(2, 20, 3, 3));
  const auto report = check_feasibility(set, GetParam());
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.reason, InfeasibleReason::kDemandExceeded);
  EXPECT_EQ(report.violation_time, 3u);
}

TEST(Feasibility, LiuLaylandFastPath) {
  // All deadlines == periods: the utilization test alone decides
  // (paper §18.3.2 citing Liu & Layland).
  TaskSet set;
  set.add(task(1, 10, 5, 10));
  set.add(task(2, 20, 10, 20));  // U = 1 exactly
  const auto report = check_feasibility(set);
  EXPECT_TRUE(report.feasible);
  EXPECT_TRUE(report.used_utilization_fast_path);
  EXPECT_EQ(report.demand_evaluations, 0u);
}

TEST(Feasibility, FastPathNotUsedWithConstrainedDeadlines) {
  TaskSet set;
  set.add(task(1, 10, 5, 5));  // deadline == busy period → one checkpoint
  const auto report = check_feasibility(set);
  EXPECT_TRUE(report.feasible);
  EXPECT_FALSE(report.used_utilization_fast_path);
  EXPECT_GT(report.demand_evaluations, 0u);
}

TEST(Feasibility, CheckpointScanDoesFewerEvaluations) {
  TaskSet set;
  for (std::uint16_t i = 1; i <= 6; ++i) {
    set.add(task(i, 100, 3, 50 + i));
  }
  const auto naive = check_feasibility(set, DemandScan::kEverySlot);
  const auto smart = check_feasibility(set, DemandScan::kCheckpoints);
  EXPECT_TRUE(naive.feasible);
  EXPECT_TRUE(smart.feasible);
  EXPECT_LT(smart.demand_evaluations, naive.demand_evaluations);
}

TEST(Feasibility, ExactlyFullUtilizationWithImplicitDeadlines) {
  TaskSet set;
  set.add(task(1, 2, 1, 2));
  set.add(task(2, 4, 2, 4));  // U = 1
  EXPECT_TRUE(is_feasible(set));
}

TEST(Feasibility, SummaryStrings) {
  TaskSet ok;
  ok.add(task(1, 100, 3, 40));
  EXPECT_NE(check_feasibility(ok).summary().find("feasible"),
            std::string::npos);

  TaskSet over;
  over.add(task(1, 2, 2, 2));
  over.add(task(2, 2, 1, 2));
  EXPECT_NE(check_feasibility(over).summary().find("utilization"),
            std::string::npos);

  TaskSet tight;
  tight.add(task(1, 100, 5, 4));
  EXPECT_NE(check_feasibility(tight).summary().find("demand"),
            std::string::npos);
}

TEST(Feasibility, ScannedBoundIsBusyPeriod) {
  TaskSet set;
  set.add(task(1, 100, 3, 40));
  set.add(task(2, 100, 5, 60));
  const auto report = check_feasibility(set, DemandScan::kEverySlot);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.scanned_bound, 8u);  // busy period = C1 + C2
}


/// Drives a LinkScanCache through a random add sequence, checking after
/// every step that its trial verdicts (and diagnostics) are bit-identical
/// to the from-scratch checkpoint scan on the would-be task set.
TEST(LinkScanCache, TrialsMatchFreshCheckpointScan) {
  rtether::Rng rng(29);
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150};
  for (int trial = 0; trial < 30; ++trial) {
    TaskSet set;
    LinkScanCache cache;
    std::uint16_t next_id = 1;
    for (int step = 0; step < 25; ++step) {
      const Slot p = kPeriods[rng.index(std::size(kPeriods))];
      const Slot c = 1 + rng.index(4);
      // Mostly constrained deadlines; occasionally implicit (d == P) so the
      // Liu & Layland fast path is exercised too.
      const Slot d =
          rng.index(5) == 0 ? p : std::min(p, c + rng.index(2 * p));
      const PseudoTask candidate{ChannelId(next_id), p, c, d};

      auto incremental = cache.check_with(set, candidate);

      TaskSet grown = set;
      grown.add(candidate);
      const auto fresh = check_feasibility(grown, DemandScan::kCheckpoints);

      ASSERT_EQ(incremental.feasible, fresh.feasible)
          << "trial " << trial << " step " << step;
      EXPECT_EQ(incremental.reason, fresh.reason);
      EXPECT_EQ(incremental.utilization, fresh.utilization);
      EXPECT_EQ(incremental.violation_time, fresh.violation_time);
      EXPECT_EQ(incremental.violation_demand, fresh.violation_demand);
      EXPECT_EQ(incremental.scanned_bound, fresh.scanned_bound);
      EXPECT_EQ(incremental.demand_evaluations, fresh.demand_evaluations);
      EXPECT_EQ(incremental.used_utilization_fast_path,
                fresh.used_utilization_fast_path);
      EXPECT_EQ(incremental.summary(), fresh.summary());

      if (incremental.feasible) {
        set.add(candidate);
        cache.commit(candidate,
                     incremental.used_utilization_fast_path
                         ? std::nullopt
                         : std::optional<Slot>(incremental.scanned_bound));
        ++next_id;
      }
    }
  }
}

TEST(LinkScanCache, ResetAdoptsExistingSet) {
  TaskSet set;
  set.add(PseudoTask{ChannelId(1), 100, 3, 40});
  set.add(PseudoTask{ChannelId(2), 60, 2, 30});
  LinkScanCache cache;
  cache.reset(set);
  const PseudoTask probe{ChannelId(3), 80, 4, 20};
  const auto incremental = cache.check_with(set, probe);
  TaskSet grown = set;
  grown.add(probe);
  const auto fresh = check_feasibility(grown, DemandScan::kCheckpoints);
  EXPECT_EQ(incremental.feasible, fresh.feasible);
  EXPECT_EQ(incremental.summary(), fresh.summary());
}

TEST(LinkScanCache, ReserveHorizonDoesNotChangeVerdicts) {
  TaskSet set;
  LinkScanCache cache;
  cache.reserve_horizon(set, 5'000);
  EXPECT_EQ(cache.horizon(), 5'000u);
  const PseudoTask probe{ChannelId(1), 100, 3, 40};
  const auto report = cache.check_with(set, probe);
  TaskSet grown;
  grown.add(probe);
  const auto fresh = check_feasibility(grown, DemandScan::kCheckpoints);
  EXPECT_EQ(report.feasible, fresh.feasible);
  EXPECT_EQ(report.violation_time, fresh.violation_time);
}

TEST(LinkScanCache, CachedHyperperiodIsRunningLcm) {
  TaskSet set;
  LinkScanCache cache;
  ASSERT_TRUE(cache.hyperperiod().has_value());
  EXPECT_EQ(*cache.hyperperiod(), 1u);
  const PseudoTask a{ChannelId(1), 40, 2, 20};
  const PseudoTask b{ChannelId(2), 60, 2, 30};
  set.add(a);
  cache.commit(a);
  set.add(b);
  cache.commit(b);
  EXPECT_EQ(*cache.hyperperiod(), 120u);
}

/// Compares every observable of a trial report between two caches.
void expect_identical_reports(const FeasibilityReport& a,
                              const FeasibilityReport& b,
                              const std::string& where) {
  ASSERT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.reason, b.reason) << where;
  EXPECT_EQ(a.utilization, b.utilization) << where;
  EXPECT_EQ(a.violation_time, b.violation_time) << where;
  EXPECT_EQ(a.violation_demand, b.violation_demand) << where;
  EXPECT_EQ(a.scanned_bound, b.scanned_bound) << where;
  EXPECT_EQ(a.demand_evaluations, b.demand_evaluations) << where;
  EXPECT_EQ(a.used_utilization_fast_path, b.used_utilization_fast_path)
      << where;
  EXPECT_EQ(a.summary(), b.summary()) << where;
}

/// The tentpole property of the release fast path: a cache maintained by an
/// arbitrary interleaving of commits and downdates must answer every trial
/// with exactly what a cold reset cache — and the from-scratch reference
/// scan — would answer, including the diagnostic counters (any stale grid
/// instant the downdate failed to drop would inflate demand_evaluations).
TEST(LinkScanCache, DowndateMatchesResetAndReferenceUnderChurn) {
  rtether::Rng rng(137);
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200};
  for (int trial = 0; trial < 20; ++trial) {
    TaskSet set;
    LinkScanCache cache;
    std::vector<PseudoTask> live;
    std::uint16_t next_id = 1;
    for (int step = 0; step < 60; ++step) {
      const bool remove = !live.empty() && rng.bernoulli(0.4);
      if (remove) {
        const std::size_t victim = rng.index(live.size());
        const PseudoTask removed = live[victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        ASSERT_TRUE(set.remove(removed.channel));
        cache.downdate(set, removed);
      } else {
        const Slot p = kPeriods[rng.index(std::size(kPeriods))];
        const Slot c = 1 + rng.index(4);
        const Slot d =
            rng.index(6) == 0 ? p : std::min(p, 2 * c + rng.index(p));
        const PseudoTask candidate{ChannelId(next_id++), p, c, d};
        const auto report = cache.check_with(set, candidate);
        if (report.scanned_bound > cache.horizon()) {
          cache.reserve_horizon(set, report.scanned_bound);
        }
        if (!report.feasible) {
          continue;
        }
        set.add(candidate);
        cache.commit(candidate,
                     report.used_utilization_fast_path
                         ? std::nullopt
                         : std::optional<Slot>(report.scanned_bound));
        live.push_back(candidate);
      }

      // Probe the churned cache against a cold rebuild and the reference.
      LinkScanCache cold;
      cold.reset(set);
      const Slot p = kPeriods[rng.index(std::size(kPeriods))];
      const Slot c = 1 + rng.index(4);
      const Slot d = std::min(p, 2 * c + rng.index(p));
      const PseudoTask probe{ChannelId(9999), p, c, d};
      const auto churned = cache.check_with(set, probe);
      const auto fresh = cold.check_with(set, probe);
      TaskSet grown = set;
      grown.add(probe);
      const auto reference = check_feasibility(grown, DemandScan::kCheckpoints);
      const std::string where = "trial " + std::to_string(trial) + " step " +
                                std::to_string(step);
      expect_identical_reports(churned, fresh, where + " (vs cold reset)");
      expect_identical_reports(churned, reference, where + " (vs reference)");
      EXPECT_EQ(cache.task_count(), set.size()) << where;
      EXPECT_EQ(cache.hyperperiod().has_value(),
                cold.hyperperiod().has_value())
          << where;
      if (cache.hyperperiod().has_value()) {
        EXPECT_EQ(*cache.hyperperiod(), *cold.hyperperiod())
            << where;
      }
    }
  }
}

/// Churned cache vs a cold reset and the reference scan, on one probe.
void expect_probe_matches(const LinkScanCache& cache, const TaskSet& set,
                          const PseudoTask& probe, const std::string& where) {
  LinkScanCache cold;
  cold.reset(set);
  TaskSet grown = set;
  grown.add(probe);
  const auto churned = cache.check_with(set, probe);
  expect_identical_reports(churned, cold.check_with(set, probe),
                           where + " (vs cold reset)");
  expect_identical_reports(
      churned, check_feasibility(grown, DemandScan::kCheckpoints),
      where + " (vs reference)");
}

/// One churn step on a link: drops a random live task (probability
/// `p_remove`) or trial-tests `candidate` and commits it when feasible.
void churn_step(rtether::Rng& rng, double p_remove, TaskSet& set,
                LinkScanCache& cache, std::vector<PseudoTask>& live,
                const PseudoTask& candidate) {
  if (!live.empty() && rng.bernoulli(p_remove)) {
    const std::size_t victim = rng.index(live.size());
    const PseudoTask removed = live[victim];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    ASSERT_TRUE(set.remove(removed.channel));
    cache.downdate(set, removed);
    return;
  }
  const auto report = cache.check_with(set, candidate);
  if (report.scanned_bound > cache.horizon()) {
    cache.reserve_horizon(set, report.scanned_bound);
  }
  if (!report.feasible) {
    return;
  }
  set.add(candidate);
  cache.commit(candidate, report.used_utilization_fast_path
                              ? std::nullopt
                              : std::optional<Slot>(report.scanned_bound));
  live.push_back(candidate);
}

TEST(LinkScanCache, DowndateMatchesResetAtTheUtilizationBoundary) {
  // Churn over the divisors of 720, mostly implicit deadlines and some
  // C = P contracts, so constraint 1 decides many trials: after every step
  // each probe fills the link to exactly U = 1 or one 1/720 step past it,
  // and the churned cache must answer it like a cold reset and the
  // reference scan, diagnostics included.
  rtether::Rng rng(720);
  static constexpr Slot kPeriods[] = {2,  3,  4,  5,  6,   8,   9,   10,
                                      12, 15, 16, 18, 20,  24,  30,  36,
                                      40, 45, 48, 60, 72,  80,  90,  120,
                                      144, 180, 240, 360, 720};
  for (int trial = 0; trial < 20; ++trial) {
    TaskSet set;
    LinkScanCache cache;
    std::vector<PseudoTask> live;
    std::uint16_t next_id = 1;
    for (int step = 0; step < 80; ++step) {
      const Slot p = kPeriods[rng.index(std::size(kPeriods))];
      const Slot c =
          rng.bernoulli(0.05) ? p : 1 + rng.index(std::max<Slot>(1, p / 6));
      const Slot d = rng.bernoulli(0.8) ? p : std::min(p, c + rng.index(p));
      ASSERT_NO_FATAL_FAILURE(churn_step(rng, 0.45, set, cache, live,
                                         PseudoTask{ChannelId(next_id++),
                                                    p, c, d}));
      ASSERT_EQ(cache.task_count(), set.size());

      Slot used = 0;  // U · 720
      for (const auto& t : set.tasks()) {
        used += t.capacity * (720 / t.period);
      }
      const Slot slack = 720 - used;
      for (int k = 0; k < 3; ++k) {
        const Slot pp = kPeriods[rng.index(std::size(kPeriods))];
        const Slot fill = slack * pp / 720;
        const Slot dd = rng.bernoulli(0.7)
                            ? pp
                            : std::min(pp, fill + 1 + rng.index(pp));
        const std::string where = "trial " + std::to_string(trial) +
                                  " step " + std::to_string(step) +
                                  " probe " + std::to_string(k);
        if (fill >= 1) {
          expect_probe_matches(cache, set,
                               PseudoTask{ChannelId(9999), pp, fill, dd},
                               where + " at U<=1");
        }
        if (fill + 1 <= pp) {
          expect_probe_matches(cache, set,
                               PseudoTask{ChannelId(9999), pp, fill + 1, dd},
                               where + " past U=1");
        }
        if (HasFailure()) return;
      }
    }
  }
}

TEST(LinkScanCache, DowndateMatchesResetThroughThe128BitFallback) {
  // Five pairwise-coprime ~32-bit periods overflow the exact utilization
  // sum's 128-bit denominator; churning them in and out moves the cache's
  // utilization state between the fallback and the exact regime. Implicit
  // deadlines, so constraint 1 alone decides.
  static constexpr Slot kPrimes[] = {4'294'967'291, 4'294'967'279,
                                     4'294'967'231, 4'294'967'197,
                                     4'294'967'189};
  rtether::Rng rng(128);
  TaskSet set;
  LinkScanCache cache;
  std::vector<PseudoTask> live;
  std::uint16_t next_id = 1;
  for (int step = 0; step < 200; ++step) {
    const Slot p = kPrimes[rng.index(std::size(kPrimes))];
    const Slot c = p / 1'000 * (150 + rng.index(60));  // 0.15–0.21 of P
    ASSERT_NO_FATAL_FAILURE(churn_step(rng, 0.4, set, cache, live,
                                       PseudoTask{ChannelId(next_id++), p,
                                                  c, p}));
    for (Slot j = 0; j <= 300; j += 15) {
      const Slot pp = kPrimes[(static_cast<std::size_t>(j) + step) % 5];
      expect_probe_matches(cache, set,
                           PseudoTask{ChannelId(9999), pp,
                                      1 + pp / 1'000 * j, pp},
                           "step " + std::to_string(step) + " probe " +
                               std::to_string(j));
    }
    if (HasFailure()) return;
  }
}

TEST(LinkScanCache, DowndateToEmptyRestoresPristineState) {
  TaskSet set;
  LinkScanCache cache;
  const PseudoTask a{ChannelId(1), 100, 3, 40};
  const PseudoTask b{ChannelId(2), 60, 2, 30};
  for (const auto& t : {a, b}) {
    const auto report = cache.check_with(set, t);
    ASSERT_TRUE(report.feasible);
    set.add(t);
    cache.commit(t, report.scanned_bound);
  }
  ASSERT_TRUE(set.remove(b.channel));
  cache.downdate(set, b);
  ASSERT_TRUE(set.remove(a.channel));
  cache.downdate(set, a);
  EXPECT_EQ(cache.task_count(), 0u);
  ASSERT_TRUE(cache.hyperperiod().has_value());
  EXPECT_EQ(*cache.hyperperiod(), 1u);
  const PseudoTask probe{ChannelId(3), 80, 4, 20};
  const auto report = cache.check_with(set, probe);
  TaskSet grown;
  grown.add(probe);
  expect_identical_reports(report,
                           check_feasibility(grown, DemandScan::kCheckpoints),
                           "empty after full churn");
}

TEST(LinkScanCache, ReleaseThenIdenticalReadmitKeepsGridWarm) {
  // The downdate must retain the memoized horizon: releasing a channel and
  // re-admitting the identical contract has to stay a pure merge-walk
  // (accepted, and with the same report the original admit produced).
  TaskSet set;
  LinkScanCache cache;
  const PseudoTask a{ChannelId(1), 100, 4, 60};
  const PseudoTask b{ChannelId(2), 80, 3, 35};
  for (const auto& t : {a, b}) {
    const auto report = cache.check_with(set, t);
    ASSERT_TRUE(report.feasible);
    if (report.scanned_bound > cache.horizon()) {
      cache.reserve_horizon(set, report.scanned_bound);
    }
    set.add(t);
    cache.commit(t, report.scanned_bound);
  }
  const auto original = cache.check_with(set, PseudoTask{ChannelId(3),
                                                         100, 4, 60});
  const Slot horizon_before = cache.horizon();
  ASSERT_TRUE(set.remove(a.channel));
  cache.downdate(set, a);
  EXPECT_EQ(cache.horizon(), horizon_before);  // memoization survives
  const auto readmit = cache.check_with(set, a);
  ASSERT_TRUE(readmit.feasible);
  set.add(a);
  cache.commit(a, readmit.scanned_bound);
  const auto repeat = cache.check_with(set, PseudoTask{ChannelId(3),
                                                       100, 4, 60});
  expect_identical_reports(original, repeat, "probe after churn round-trip");
}

TEST(Feasibility, ExhaustiveOracleSurvivesNear64BitHyperperiod) {
  // Two coprime near-2³¹/2³² periods: the hyperperiod is ≈ 9.2·10¹⁸ —
  // fits in 64 bits, but materializing one slot per instant would be an
  // out-of-memory abort. The oracle must fall back to the (exact)
  // busy-period bound and agree with the other scans.
  TaskSet set;
  set.add(task(1, 2'147'483'647, 1, 10));   // M31 prime
  set.add(task(2, 4'294'967'291, 1, 15));   // largest prime < 2³²
  const auto exhaustive = check_feasibility(set, DemandScan::kExhaustive);
  const auto checkpoints = check_feasibility(set, DemandScan::kCheckpoints);
  const auto every_slot = check_feasibility(set, DemandScan::kEverySlot);
  EXPECT_TRUE(exhaustive.feasible);
  EXPECT_EQ(exhaustive.feasible, checkpoints.feasible);
  EXPECT_EQ(exhaustive.feasible, every_slot.feasible);
  EXPECT_LE(exhaustive.scanned_bound, kExhaustiveOracleCap);
}

TEST(Feasibility, ExhaustiveOracleStillExtendsSmallHyperperiods) {
  TaskSet set;
  set.add(task(1, 10, 2, 6));
  set.add(task(2, 15, 3, 9));
  const auto exhaustive = check_feasibility(set, DemandScan::kExhaustive);
  const auto checkpoints = check_feasibility(set, DemandScan::kCheckpoints);
  EXPECT_EQ(exhaustive.feasible, checkpoints.feasible);
  // hyperperiod (30) + max deadline (9) is within the cap: the oracle
  // really scanned past the busy-period bound.
  EXPECT_EQ(exhaustive.scanned_bound, 39u);
}

TEST(LinkScanCache, DowndateWithOverflowedHyperperiodRecovers) {
  // Running lcm overflows with both huge periods live; after releasing one
  // the re-derived hyperperiod must match a fresh rebuild (value, not just
  // presence).
  TaskSet set;
  LinkScanCache cache;
  const PseudoTask a{ChannelId(1), 2'147'483'647, 1, 10};
  const PseudoTask b{ChannelId(2), 4'294'967'291, 1, 15};
  const PseudoTask c{ChannelId(3), 3'037'000'493, 1, 20};
  for (const auto& t : {a, b, c}) {
    const auto report = cache.check_with(set, t);
    ASSERT_TRUE(report.feasible);
    set.add(t);
    cache.commit(t, report.used_utilization_fast_path
                        ? std::nullopt
                        : std::optional<Slot>(report.scanned_bound));
  }
  EXPECT_FALSE(cache.hyperperiod().has_value());  // overflowed
  ASSERT_TRUE(set.remove(c.channel));
  cache.downdate(set, c);
  LinkScanCache cold;
  cold.reset(set);
  EXPECT_EQ(cache.hyperperiod().has_value(),
            cold.hyperperiod().has_value());
  ASSERT_TRUE(set.remove(b.channel));
  cache.downdate(set, b);
  ASSERT_TRUE(cache.hyperperiod().has_value());
  EXPECT_EQ(*cache.hyperperiod(), 2'147'483'647u);
}

}  // namespace
}  // namespace rtether::edf
