#include "edf/utilization.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rational.hpp"
#include "common/random.hpp"

namespace rtether::edf {
namespace {

PseudoTask task(std::uint16_t id, Slot period, Slot capacity, Slot deadline) {
  return PseudoTask{ChannelId(id), period, capacity, deadline};
}

TEST(Utilization, EmptySetDoesNotExceed) {
  const TaskSet set;
  EXPECT_FALSE(utilization_exceeds_one(set));
}

TEST(Utilization, ExactBoundaryAccepted) {
  // 1/2 + 1/3 + 1/6 = 1 exactly — must NOT count as exceeding.
  TaskSet set;
  set.add(task(1, 2, 1, 2));
  set.add(task(2, 3, 1, 3));
  set.add(task(3, 6, 1, 6));
  EXPECT_FALSE(utilization_exceeds_one(set));
}

TEST(Utilization, OneSlotOverBoundaryRejected) {
  // 1/2 + 1/3 + 1/6 + 1/1000 > 1 by exactly 0.001.
  TaskSet set;
  set.add(task(1, 2, 1, 2));
  set.add(task(2, 3, 1, 3));
  set.add(task(3, 6, 1, 6));
  set.add(task(4, 1000, 1, 1000));
  EXPECT_TRUE(utilization_exceeds_one(set));
}

TEST(Utilization, PaperWorkloadThirtyThreeChannels) {
  // 33 × 3/100 = 99/100 ≤ 1; the 34th pushes it to 102/100.
  TaskSet set;
  for (std::uint16_t i = 1; i <= 33; ++i) {
    set.add(task(i, 100, 3, 40));
  }
  EXPECT_FALSE(utilization_exceeds_one(set));
  set.add(task(34, 100, 3, 40));
  EXPECT_TRUE(utilization_exceeds_one(set));
}

TEST(Utilization, FullSingleTask) {
  TaskSet set;
  set.add(task(1, 7, 7, 7));  // exactly 1
  EXPECT_FALSE(utilization_exceeds_one(set));
  set.add(task(2, 1000, 1, 1000));
  EXPECT_TRUE(utilization_exceeds_one(set));
}

TEST(Utilization, SummationOrderIrrelevant) {
  // The floating-point failure mode this module exists to avoid: order
  // must not matter at the boundary.
  TaskSet ascending;
  TaskSet descending;
  for (std::uint16_t i = 0; i < 10; ++i) {
    ascending.add(task(static_cast<std::uint16_t>(i + 1), 10, 1, 10));
    descending.add(task(static_cast<std::uint16_t>(10 - i), 10, 1, 10));
  }
  EXPECT_FALSE(utilization_exceeds_one(ascending));    // exactly 1
  EXPECT_FALSE(utilization_exceeds_one(descending));
}

TEST(Utilization, CoprimePeriodsTriggerFallbackSafely) {
  // Dozens of near-coprime periods make the exact denominator overflow
  // 128 bits; the fallback must still answer, and conservatively.
  TaskSet set;
  // Primes > 100: utilization sum ≈ Σ 1/p ≈ small; clearly below 1.
  static constexpr Slot kPrimes[] = {
      101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163,
      167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233,
      239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307};
  std::uint16_t id = 1;
  for (const Slot p : kPrimes) {
    set.add(task(id++, p, 1, p));
  }
  EXPECT_FALSE(utilization_exceeds_one(set));
}

TEST(Utilization, CoprimeOverloadStillDetected) {
  // Same overflow-inducing structure but with U ≈ 1.9: must be rejected
  // even via the fallback path.
  TaskSet set;
  static constexpr Slot kPrimes[] = {101, 103, 107, 109, 113, 127, 131,
                                     137, 139, 149, 151, 157, 163, 167,
                                     173, 179, 181, 191, 193, 197};
  std::uint16_t id = 1;
  for (const Slot p : kPrimes) {
    set.add(task(id++, p, (p + 1) / 2, p));  // each ≈ 0.5 → U ≈ 10
  }
  EXPECT_TRUE(utilization_exceeds_one(set));
}

TEST(Utilization, CrossValidatedAgainstExactRationalForSmallSets) {
  // For sets whose denominators stay tiny, the decision must equal the
  // exact Rational sum — randomized cross-check.
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    TaskSet set;
    Rational exact;
    const std::size_t n = 1 + rng.index(6);
    for (std::size_t i = 0; i < n; ++i) {
      static constexpr Slot kPeriods[] = {2, 4, 5, 8, 10, 20, 25, 100};
      const Slot period = kPeriods[rng.index(std::size(kPeriods))];
      const Slot capacity = 1 + rng.index(period);
      set.add(task(static_cast<std::uint16_t>(i + 1), period, capacity,
                   period));
      exact += Rational(static_cast<std::int64_t>(capacity),
                        static_cast<std::int64_t>(period));
    }
    EXPECT_EQ(utilization_exceeds_one(set), exact > Rational(1))
        << "trial " << trial;
  }
}


TEST(UtilizationWith, MatchesMutatedSetOnRandomSets) {
  Rng rng(17);
  static constexpr Slot kPeriods[] = {2, 3, 6, 40, 100, 1000};
  for (int trial = 0; trial < 300; ++trial) {
    TaskSet set;
    const auto size = rng.index(10);
    for (std::uint16_t i = 0; i < size; ++i) {
      const Slot p = kPeriods[rng.index(std::size(kPeriods))];
      const Slot c = 1 + rng.index(p);
      set.add(task(static_cast<std::uint16_t>(i + 1), p, c, p));
    }
    const Slot p = kPeriods[rng.index(std::size(kPeriods))];
    const Slot c = 1 + rng.index(p);
    const PseudoTask extra = task(999, p, c, p);

    const bool incremental = utilization_exceeds_one_with(set, extra);
    set.add(extra);
    EXPECT_EQ(incremental, utilization_exceeds_one(set)) << "trial " << trial;
  }
}

TEST(UtilizationAccumulator, TracksOneShotTestAcrossAdds) {
  // The accumulator must agree with the one-shot test after every add, and
  // its O(1) trial must agree with the _with variant.
  Rng rng(23);
  static constexpr Slot kPeriods[] = {2, 3, 6, 7, 11, 100};
  TaskSet set;
  UtilizationAccumulator acc;
  for (std::uint16_t i = 1; i <= 40; ++i) {
    const Slot p = kPeriods[rng.index(std::size(kPeriods))];
    const Slot c = 1 + rng.index(p);
    const PseudoTask next = task(i, p, c, p);

    EXPECT_EQ(acc.exceeds_one_with(next),
              utilization_exceeds_one_with(set, next))
        << "task " << i;
    set.add(next);
    acc.add(next);
    EXPECT_EQ(acc.exceeds_one(), utilization_exceeds_one(set)) << "task " << i;
  }
}

TEST(UtilizationAccumulator, ExactBoundary) {
  // 1/2 + 1/3 + 1/6 = 1 exactly: not exceeding, but any further task is.
  UtilizationAccumulator acc;
  acc.add(task(1, 2, 1, 2));
  acc.add(task(2, 3, 1, 3));
  acc.add(task(3, 6, 1, 6));
  EXPECT_FALSE(acc.exceeds_one());
  EXPECT_TRUE(acc.exceeds_one_with(task(4, 1000, 1, 1000)));
}

TEST(UtilizationAccumulator, ResetMatchesIncrementalBuild) {
  TaskSet set;
  set.add(task(1, 7, 3, 7));
  set.add(task(2, 11, 4, 11));
  UtilizationAccumulator from_reset;
  from_reset.reset(set);
  UtilizationAccumulator from_adds;
  from_adds.add(task(1, 7, 3, 7));
  from_adds.add(task(2, 11, 4, 11));
  const PseudoTask probe = task(3, 13, 6, 13);
  EXPECT_EQ(from_reset.exceeds_one(), from_adds.exceeds_one());
  EXPECT_EQ(from_reset.exceeds_one_with(probe),
            from_adds.exceeds_one_with(probe));
}

/// The per-period aggregate `UtilizationAccumulator::remove` reads, built
/// from scratch, sorted by period.
std::vector<PeriodBucket> buckets_of(const TaskSet& set) {
  std::map<Slot, PeriodBucket> by_period;
  for (const auto& t : set.tasks()) {
    auto& bucket = by_period[t.period];
    bucket.period = t.period;
    bucket.capacity += t.capacity;
    if (t.capacity % t.period != 0) {
      ++bucket.fractional;
    }
  }
  std::vector<PeriodBucket> buckets;
  buckets.reserve(by_period.size());
  for (const auto& [period, bucket] : by_period) {
    buckets.push_back(bucket);
  }
  return buckets;
}

/// Takes `removed` out of `set`, then out of `acc` (which must be tracking
/// `set`), the way `LinkScanCache::downdate` does.
void remove_task(TaskSet& set, UtilizationAccumulator& acc,
                 const PseudoTask& removed) {
  ASSERT_TRUE(set.remove(removed.channel));
  acc.remove(set, removed, buckets_of(set));
}

/// A downdated accumulator must answer exactly like one rebuilt by
/// `reset(set)`: for the set alone and for `set ∪ {probe}`.
void expect_matches_reset(const UtilizationAccumulator& downdated,
                          const TaskSet& set,
                          const std::vector<PseudoTask>& probes,
                          const std::string& where) {
  UtilizationAccumulator fresh;
  fresh.reset(set);
  EXPECT_EQ(downdated.exceeds_one(), fresh.exceeds_one()) << where;
  for (const auto& probe : probes) {
    EXPECT_EQ(downdated.exceeds_one_with(probe), fresh.exceeds_one_with(probe))
        << where << " probe C=" << probe.capacity << " P=" << probe.period;
  }
}

/// Divisors of 720: every U over them is an exact multiple of 1/720, so
/// probes that fill the set to exactly U = 1 are easy to build.
constexpr Slot kFamily[] = {2,  3,  4,  5,  6,  8,   9,   10,  12,  15,
                            16, 18, 20, 24, 30, 36,  40,  45,  48,  60,
                            72, 80, 90, 120, 144, 180, 240, 360, 720};

/// Probes around the boundary of a set over `kFamily`: for each period,
/// the largest capacity that keeps U ≤ 1 (often exactly 1) and one more.
std::vector<PseudoTask> boundary_probes(const TaskSet& set) {
  Slot used = 0;  // U · 720
  for (const auto& t : set.tasks()) {
    used += t.capacity * (720 / t.period);
  }
  std::vector<PseudoTask> probes{task(900, 720, 1, 720), task(901, 7, 3, 7)};
  const Slot slack = used < 720 ? 720 - used : 0;
  for (const Slot period : kFamily) {
    const Slot fill = slack * period / 720;
    if (fill >= 1) {
      probes.push_back(task(902, period, fill, period));
    }
    if (fill + 1 <= period) {
      probes.push_back(task(903, period, fill + 1, period));
    }
  }
  return probes;
}

TEST(UtilizationAccumulator, RemoveMatchesResetOnRandomSets) {
  // Random sets — some above U = 1, some with C = P tasks (an integer
  // term, C mod P = 0) — drained in random order; every intermediate
  // state must match a fresh reset, at and around the U = 1 boundary.
  Rng rng(0x5eed);
  for (int trial = 0; trial < 400; ++trial) {
    TaskSet set;
    UtilizationAccumulator acc;
    std::vector<PseudoTask> live;
    const auto size = 1 + rng.index(10);
    for (std::uint64_t i = 1; i <= size; ++i) {
      const Slot p = kFamily[rng.index(std::size(kFamily))];
      const Slot c =
          rng.bernoulli(0.1) ? p : 1 + rng.index(std::max<Slot>(1, p / 4));
      const PseudoTask t = task(static_cast<std::uint16_t>(i), p, c, p);
      set.add(t);
      acc.add(t);
      live.push_back(t);
    }
    rng.shuffle(live);
    while (!live.empty()) {
      const PseudoTask removed = live.back();
      live.pop_back();
      ASSERT_NO_FATAL_FAILURE(remove_task(set, acc, removed));
      expect_matches_reset(acc, set, boundary_probes(set),
                           "trial " + std::to_string(trial) + " left " +
                               std::to_string(live.size()));
      if (HasFailure()) return;
    }
  }
}

TEST(UtilizationAccumulator, RemoveAtExactlyOne) {
  // 1/2 + 1/3 + 1/6 = 1: take each task out and put an equal one back.
  const PseudoTask tasks[] = {task(1, 2, 1, 2), task(2, 3, 1, 3),
                              task(3, 6, 1, 6)};
  for (const auto& removed : tasks) {
    TaskSet set;
    UtilizationAccumulator acc;
    for (const auto& t : tasks) {
      set.add(t);
      acc.add(t);
    }
    ASSERT_NO_FATAL_FAILURE(remove_task(set, acc, removed));
    const PseudoTask same = task(9, removed.period, removed.capacity,
                                 removed.period);
    EXPECT_FALSE(acc.exceeds_one());
    EXPECT_FALSE(acc.exceeds_one_with(same));  // back to exactly 1
    EXPECT_TRUE(acc.exceeds_one_with(task(9, removed.period * 1000,
                                          removed.capacity * 1000 + 1,
                                          removed.period * 1000)));
    expect_matches_reset(acc, set, boundary_probes(set),
                         "removed 1/" + std::to_string(removed.period));
  }
}

TEST(UtilizationAccumulator, RemoveIntegerTermTasks) {
  // C = P contributes a whole unit and no denominator. Alone it is U = 1;
  // beside 1/2 it makes U = 3/2, a state that has already decided
  // "exceeds" — its removal must come back to U = 1/2 exactly.
  const PseudoTask full = task(1, 5, 5, 5);
  const PseudoTask half = task(2, 2, 1, 2);
  {
    TaskSet set;
    UtilizationAccumulator acc;
    set.add(full);
    acc.add(full);
    EXPECT_FALSE(acc.exceeds_one());
    ASSERT_NO_FATAL_FAILURE(remove_task(set, acc, full));
    EXPECT_FALSE(acc.exceeds_one_with(task(3, 9, 9, 9)));
    expect_matches_reset(acc, set, boundary_probes(set), "full alone");
  }
  for (const bool full_first : {true, false}) {
    TaskSet set;
    UtilizationAccumulator acc;
    for (const auto& t : full_first ? std::vector{full, half}
                                    : std::vector{half, full}) {
      set.add(t);
      acc.add(t);
    }
    EXPECT_TRUE(acc.exceeds_one());
    ASSERT_NO_FATAL_FAILURE(remove_task(set, acc, full));
    EXPECT_FALSE(acc.exceeds_one());
    EXPECT_FALSE(acc.exceeds_one_with(task(3, 4, 2, 4)));  // 1/2 + 1/2
    EXPECT_TRUE(acc.exceeds_one_with(task(3, 6, 4, 6)));   // 1/2 + 2/3
    expect_matches_reset(acc, set, boundary_probes(set),
                         full_first ? "full first" : "half first");
  }
}

TEST(UtilizationAccumulator, RemoveThroughThe128BitFallback) {
  // Five pairwise-coprime ~32-bit periods: their lcm passes 2¹²⁸, so the
  // full set is in the fixed-point fallback. Draining it walks every
  // regime `remove` has: the fallback state (rebuilt), four periods whose
  // lcm lies in (2¹²⁷, 2¹²⁸) — the duplicate-period task, taken out second,
  // leaves that full-width denominator in place — and narrower ones.
  static constexpr Slot kPrimes[] = {4'294'967'291, 4'294'967'279,
                                     4'294'967'231, 4'294'967'197,
                                     4'294'967'189};
  std::vector<PseudoTask> probes;
  for (Slot j = 0; j <= 40; ++j) {
    // C/P ≈ j/1000 and j/100: across the slack of every drained state.
    probes.push_back(task(900, 1'000'003, 1 + j * 1'000, 1'000'003));
    probes.push_back(task(901, 1'000'003, 1 + j * 10'000, 1'000'003));
    const Slot p = kPrimes[j % 5];
    probes.push_back(task(902, p, 1 + p / 1'000 * j, p));
  }
  // A sixth ~32-bit prime: with three or four of the others it still fits
  // an exact 128-bit denominator — unless the downdated state kept a
  // denominator wider than the remaining set's.
  constexpr Slot kProbePeriod = 4'294'967'161;
  for (int order = 0; order < 6; ++order) {
    Rng rng(static_cast<std::uint64_t>(order));
    TaskSet set;
    UtilizationAccumulator acc;
    std::vector<PseudoTask> live;
    std::uint16_t id = 1;
    for (const Slot p : kPrimes) {
      // ≈ 0.196 each: U ≈ 0.98 with all five, a slack the probes cross.
      const PseudoTask t = task(id, p, p / 1'000 * 196 + id, p);
      ++id;
      set.add(t);
      acc.add(t);
      live.push_back(t);
    }
    const PseudoTask duplicate =
        task(id, kPrimes[order % 5], 12'345 + order, kPrimes[order % 5]);
    set.add(duplicate);
    acc.add(duplicate);
    rng.shuffle(live);
    live.insert(live.begin() + 1, duplicate);  // taken out second
    while (!live.empty()) {
      const PseudoTask removed = live.front();
      live.erase(live.begin());
      ASSERT_NO_FATAL_FAILURE(remove_task(set, acc, removed));
      // The largest probe capacity a fresh accumulation still accepts (the
      // verdict is monotone in C): exact and fixed-point verdicts part
      // within a few 2⁻³² of U = 1, right where this probe and the next
      // capacity land.
      UtilizationAccumulator fresh;
      fresh.reset(set);
      Slot lo = 0;
      Slot hi = kProbePeriod;
      while (lo < hi) {
        const Slot mid = lo + (hi - lo + 1) / 2;
        const PseudoTask probe = task(904, kProbePeriod, mid, kProbePeriod);
        if (fresh.exceeds_one_with(probe)) {
          hi = mid - 1;
        } else {
          lo = mid;
        }
      }
      std::vector<PseudoTask> edge = probes;
      for (const Slot c : {lo, lo + 1}) {
        if (c >= 1) edge.push_back(task(904, kProbePeriod, c, kProbePeriod));
      }
      expect_matches_reset(acc, set, edge,
                           "order " + std::to_string(order) + " left " +
                               std::to_string(live.size()));
    }
  }
}

}  // namespace
}  // namespace rtether::edf
