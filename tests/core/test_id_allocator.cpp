#include "core/id_allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/random.hpp"

namespace rtether::core {
namespace {

TEST(ChannelIdAllocator, NeverAllocatesZero) {
  // ID 0 is "not set with a valid value yet" (§18.2.2).
  ChannelIdAllocator alloc;
  for (int i = 0; i < 100; ++i) {
    const auto id = alloc.allocate();
    ASSERT_TRUE(id.has_value());
    EXPECT_NE(*id, ChannelIdAllocator::kInvalid);
  }
}

TEST(ChannelIdAllocator, AllocatesSmallestFreeFirst) {
  ChannelIdAllocator alloc;
  EXPECT_EQ(alloc.allocate(), ChannelId(1));
  EXPECT_EQ(alloc.allocate(), ChannelId(2));
  EXPECT_EQ(alloc.allocate(), ChannelId(3));
}

TEST(ChannelIdAllocator, ReusesFreedIdsSmallestFirst) {
  ChannelIdAllocator alloc;
  (void)alloc.allocate();  // 1
  (void)alloc.allocate();  // 2
  (void)alloc.allocate();  // 3
  EXPECT_TRUE(alloc.release(ChannelId(2)));
  EXPECT_TRUE(alloc.release(ChannelId(1)));
  EXPECT_EQ(alloc.allocate(), ChannelId(1));
  EXPECT_EQ(alloc.allocate(), ChannelId(2));
  EXPECT_EQ(alloc.allocate(), ChannelId(4));
}

TEST(ChannelIdAllocator, DoubleFreeRejected) {
  ChannelIdAllocator alloc;
  const auto id = alloc.allocate();
  EXPECT_TRUE(alloc.release(*id));
  EXPECT_FALSE(alloc.release(*id));
}

TEST(ChannelIdAllocator, FreeingInvalidRejected) {
  ChannelIdAllocator alloc;
  EXPECT_FALSE(alloc.release(ChannelId(0)));
  EXPECT_FALSE(alloc.release(ChannelId(9)));
}

TEST(ChannelIdAllocator, IsLiveTracksState) {
  ChannelIdAllocator alloc;
  const auto id = alloc.allocate();
  EXPECT_TRUE(alloc.is_live(*id));
  EXPECT_FALSE(alloc.is_live(ChannelId(2)));
  alloc.release(*id);
  EXPECT_FALSE(alloc.is_live(*id));
  EXPECT_FALSE(alloc.is_live(ChannelId(0)));
}

TEST(ChannelIdAllocator, LiveCount) {
  ChannelIdAllocator alloc;
  EXPECT_EQ(alloc.live_count(), 0u);
  const auto a = alloc.allocate();
  const auto b = alloc.allocate();
  EXPECT_EQ(alloc.live_count(), 2u);
  alloc.release(*a);
  EXPECT_EQ(alloc.live_count(), 1u);
  alloc.release(*b);
  EXPECT_EQ(alloc.live_count(), 0u);
}

TEST(ChannelIdAllocator, ExhaustionReturnsNullopt) {
  ChannelIdAllocator alloc;
  for (std::uint32_t i = 0; i < 65535; ++i) {
    ASSERT_TRUE(alloc.allocate().has_value()) << "failed at " << i;
  }
  EXPECT_EQ(alloc.live_count(), 65535u);
  EXPECT_FALSE(alloc.allocate().has_value());
  // Releasing one makes exactly one available again.
  EXPECT_TRUE(alloc.release(ChannelId(12345)));
  EXPECT_EQ(alloc.allocate(), ChannelId(12345));
  EXPECT_FALSE(alloc.allocate().has_value());
}

TEST(ChannelIdAllocator, ExhaustionChurnKeepsSmallestFirstAndRefusesExtras) {
  // Negative paths under full occupancy: double release of a freed ID,
  // release of the reserved 0, and re-exhaustion after scattered churn —
  // freed IDs in otherwise full words must still be found.
  ChannelIdAllocator alloc;
  for (std::uint32_t i = 0; i < 65535; ++i) {
    ASSERT_TRUE(alloc.allocate().has_value());
  }
  EXPECT_TRUE(alloc.release(ChannelId(60000)));
  EXPECT_TRUE(alloc.release(ChannelId(5)));
  EXPECT_TRUE(alloc.release(ChannelId(30000)));
  EXPECT_FALSE(alloc.release(ChannelId(5)));  // double free while exhausted
  EXPECT_FALSE(alloc.release(ChannelId(0)));  // reserved, never live
  EXPECT_EQ(alloc.live_count(), 65532u);
  // Freed IDs come back smallest-first, regardless of release order.
  EXPECT_EQ(alloc.allocate(), ChannelId(5));
  EXPECT_EQ(alloc.allocate(), ChannelId(30000));
  EXPECT_EQ(alloc.allocate(), ChannelId(60000));
  EXPECT_FALSE(alloc.allocate().has_value());
  EXPECT_EQ(alloc.live_count(), 65535u);
}

TEST(ChannelIdAllocator, DoubleReleaseAfterReuseTargetsTheNewOwner) {
  // Once a freed ID is re-allocated, releasing it again is a *valid*
  // teardown of the new owner — only a third release is a double free.
  ChannelIdAllocator alloc;
  const auto id = alloc.allocate();
  EXPECT_TRUE(alloc.release(*id));
  EXPECT_EQ(alloc.allocate(), *id);  // reused
  EXPECT_TRUE(alloc.release(*id));   // releases the reuser
  EXPECT_FALSE(alloc.release(*id));  // now a double free
  EXPECT_EQ(alloc.live_count(), 0u);
}

TEST(ChannelIdAllocator, ReleasedHighIdAboveDensePrefixIsReallocated) {
  // IDs 1..N live, one high ID released: the next allocation must find it
  // even though every word below it is full — including IDs on the first
  // and last bit of a 64-ID word and the very last ID.
  for (const std::uint32_t n : {64u, 127u, 128u, 4096u, 4097u, 65535u}) {
    ChannelIdAllocator alloc;
    for (std::uint32_t i = 1; i <= n; ++i) {
      ASSERT_EQ(alloc.allocate(), ChannelId(static_cast<std::uint16_t>(i)));
    }
    for (const std::uint32_t high : {n, n - 1, n / 2 + 1}) {
      const ChannelId id(static_cast<std::uint16_t>(high));
      ASSERT_TRUE(alloc.release(id)) << "n=" << n << " id=" << high;
      EXPECT_FALSE(alloc.is_live(id));
      EXPECT_EQ(alloc.allocate(), id) << "n=" << n;
      EXPECT_TRUE(alloc.is_live(id));
      EXPECT_EQ(alloc.live_count(), n);
    }
  }
}

/// The allocator's contract, spelled out on a std::set of free IDs: the
/// smallest free non-zero ID is handed out, and only a live ID can be
/// released.
class ReferenceAllocator {
 public:
  ReferenceAllocator() {
    for (std::uint32_t id = 1; id <= ChannelIdAllocator::kCapacity; ++id) {
      free_.insert(free_.end(), id);
    }
  }
  std::optional<ChannelId> allocate() {
    if (free_.empty()) return std::nullopt;
    const auto id = static_cast<std::uint16_t>(*free_.begin());
    free_.erase(free_.begin());
    return ChannelId(id);
  }
  bool release(ChannelId id) {
    return is_live(id) && free_.insert(id.value()).second;
  }
  [[nodiscard]] bool is_live(ChannelId id) const {
    return id.value() != 0 && !free_.contains(id.value());
  }
  [[nodiscard]] std::size_t live_count() const {
    return ChannelIdAllocator::kCapacity - free_.size();
  }

 private:
  std::set<std::uint32_t> free_;
};

TEST(ChannelIdAllocator, ModelCheckAgainstSmallestFreeReference) {
  // ~10⁵ seeded allocate/release calls at three occupancy targets, then
  // exhaustion and recovery. Releases mix live IDs with arbitrary ones
  // (double frees, the reserved 0, never-allocated IDs).
  Rng rng(0x1d5);
  ChannelIdAllocator alloc;
  ReferenceAllocator reference;
  std::vector<ChannelId> live;
  std::size_t step = 0;

  auto check = [&](ChannelId touched) {
    ASSERT_EQ(alloc.live_count(), reference.live_count()) << "step " << step;
    ASSERT_EQ(alloc.is_live(touched), reference.is_live(touched))
        << "step " << step << " id " << touched.value();
    const ChannelId probe(static_cast<std::uint16_t>(rng.uniform(0, 0xffff)));
    ASSERT_EQ(alloc.is_live(probe), reference.is_live(probe))
        << "step " << step << " id " << probe.value();
    ++step;
  };
  auto do_allocate = [&] {
    const auto got = alloc.allocate();
    const auto want = reference.allocate();
    ASSERT_EQ(got, want) << "step " << step;
    if (got) {
      live.push_back(*got);
      check(*got);
    } else {
      check(ChannelIdAllocator::kInvalid);
    }
  };
  auto do_release = [&] {
    ChannelId id = ChannelIdAllocator::kInvalid;
    if (!live.empty() && rng.bernoulli(0.8)) {
      const auto k = static_cast<std::size_t>(rng.index(live.size()));
      id = live[k];
      live[k] = live.back();
      live.pop_back();
    } else {
      id = ChannelId(static_cast<std::uint16_t>(rng.uniform(0, 0xffff)));
      if (reference.is_live(id)) {
        std::erase(live, id);
      }
    }
    ASSERT_EQ(alloc.release(id), reference.release(id))
        << "step " << step << " id " << id.value();
    check(id);
  };
  auto full_sweep = [&](const char* phase) {
    for (std::uint32_t v = 0; v <= 0xffff; ++v) {
      const ChannelId id(static_cast<std::uint16_t>(v));
      ASSERT_EQ(alloc.is_live(id), reference.is_live(id))
          << phase << " id " << v;
    }
  };

  for (const double density : {0.02, 0.5, 0.995}) {
    const auto target = static_cast<std::size_t>(
        density * static_cast<double>(ChannelIdAllocator::kCapacity));
    while (alloc.live_count() < target) {
      ASSERT_NO_FATAL_FAILURE(do_allocate());
    }
    for (int i = 0; i < 30000; ++i) {
      // Hover around the target: allocate below it, release above it.
      const double p_allocate = alloc.live_count() < target ? 0.7 : 0.3;
      if (rng.bernoulli(p_allocate)) {
        ASSERT_NO_FATAL_FAILURE(do_allocate());
      } else {
        ASSERT_NO_FATAL_FAILURE(do_release());
      }
    }
    ASSERT_NO_FATAL_FAILURE(full_sweep("density"));
  }

  // Exhaustion: every ID live, the next allocate refuses.
  while (reference.live_count() < ChannelIdAllocator::kCapacity) {
    ASSERT_NO_FATAL_FAILURE(do_allocate());
  }
  ASSERT_NO_FATAL_FAILURE(do_allocate());
  EXPECT_EQ(alloc.allocate(), std::nullopt);
  ASSERT_NO_FATAL_FAILURE(full_sweep("exhausted"));

  // Recovery: release everything in random order, then refill.
  rng.shuffle(live);
  while (!live.empty()) {
    const ChannelId id = live.back();
    live.pop_back();
    ASSERT_TRUE(alloc.release(id));
    ASSERT_TRUE(reference.release(id));
    check(id);
  }
  EXPECT_EQ(alloc.live_count(), 0u);
  ASSERT_NO_FATAL_FAILURE(full_sweep("drained"));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NO_FATAL_FAILURE(do_allocate());
  }
  EXPECT_EQ(live.back(), ChannelId(1000));
  EXPECT_GE(step, 100000u);
}

}  // namespace
}  // namespace rtether::core
