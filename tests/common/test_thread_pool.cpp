#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

namespace rtether {
namespace {

TEST(ThreadPool, ZeroThreadPoolRunsShardsInlineInOrder) {
  // A pool of 0 or 1 threads is the caller alone: every call runs inline,
  // in index order.
  for (const unsigned threads : {0U, 1U}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), 1U);
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ran_on;
    pool.run(5, [&](std::size_t i) {
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    for (const auto& id : ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
}

TEST(ThreadPool, EveryShardRunsExactlyOnce) {
  // Counts above, at and below the team size.
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4U);
  for (const std::size_t count : {100U, 4U, 3U, 2U, 1U}) {
    std::vector<std::atomic<int>> hits(count);
    pool.run(count, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
    }
  }
}

TEST(ThreadPool, ParallelForBlocksUntilAllShardsComplete) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  pool.run(12, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  // If run returned early this would race; the fork-join contract says
  // every call returned before we get here.
  EXPECT_EQ(completed.load(), 12);
}

TEST(ThreadPool, UnevenShardsAllComplete) {
  ThreadPool pool(3);
  std::vector<int> hits(9, 0);  // each index is written by one thread only
  pool.run(9, [&](std::size_t i) {
    if (i % 3 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ++hits[i];
  });
  EXPECT_EQ(hits, std::vector<int>(9, 1));
}

TEST(ThreadPool, ReusableAcrossManyForkJoins) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    const std::size_t count = static_cast<std::size_t>(round % 9);
    pool.run(count, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  int expected = 0;
  for (int round = 0; round < 200; ++round) {
    expected += round % 9;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, MorePoolThreadsThanShards) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.run(2, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, ZeroShardsIsANoOp) {
  ThreadPool pool(2);
  pool.run(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PoolsNest) {
  // A call of one pool runs another pool, as a campaign scenario runs its
  // parallel admission engine.
  ThreadPool outer(3);
  std::vector<std::atomic<int>> hits(6 * 5);
  outer.run(6, [&](std::size_t i) {
    ThreadPool inner(2);
    inner.run(5, [&](std::size_t j) {
      hits[i * 5 + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "call " << k;
  }
}

TEST(ThreadPool, CallsThatWaitForEachOtherDoNotDeadlock) {
  // `size()` calls that each wait for all the others finish only if the
  // caller and every worker take one index: every thread joins every run,
  // and none takes a second index while its first call waits. Repeated, so
  // workers rejoin runs they just left.
  for (const unsigned threads : {2U, 3U, 5U}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      std::latch all_arrived(pool.size());
      std::atomic<unsigned> returned{0};
      pool.run(pool.size(), [&](std::size_t) {
        all_arrived.arrive_and_wait();
        returned.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(returned.load(), pool.size());
    }
  }
}

TEST(ThreadPool, WorkersActuallyShareTheWork) {
  // The caller takes part: with `size()` latch-gated calls each thread of
  // the team runs exactly one, so `size()` distinct threads appear and the
  // caller is one of them.
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::thread::id> seen;
  std::latch all_arrived(pool.size());
  pool.run(pool.size(), [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      seen.push_back(std::this_thread::get_id());
    }
    all_arrived.arrive_and_wait();
  });
  ASSERT_EQ(seen.size(), 4U);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), std::this_thread::get_id()),
            seen.end())
      << "the caller must run a call beside the workers";
}

}  // namespace
}  // namespace rtether
