#pragma once

/// @file thread_pool.hpp
/// A fixed-size worker pool with a plain FIFO work queue. The parallel
/// admission engine shards work by egress link and needs (a) a stable set of
/// workers whose count is an explicit tuning knob (pinning a switch's
/// admission service to N cores), and (b) fork-join: `parallel_for_shards`
/// hands out shard indices and blocks the caller until every shard
/// completed, and `submit` plus `wait_idle` let a caller that claims work
/// itself join a private pool. Nothing here is clever on purpose: mutex + two
/// condition variables, no lock-free structures, so the behaviour under
/// ThreadSanitizer is exactly the behaviour in production — and the mutex
/// protocol is Clang thread-safety annotated, so `-Wthread-safety` proves
/// every queue access is under `mutex_` on every path, not just the
/// interleavings the tests exercise.

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace rtether {

class ThreadPool {
 public:
  /// Spawns `thread_count` workers. 0 is allowed and means "no workers":
  /// `submit` is forbidden and `parallel_for_shards` runs inline on the
  /// caller — useful as a deterministic degenerate mode in tests.
  explicit ThreadPool(unsigned thread_count);

  /// Drains nothing: pending jobs that never ran are dropped, running jobs
  /// are joined. Callers that care must `wait_idle` first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one job. Jobs must not throw (the library is assert-based;
  /// a throwing job would terminate). Requires size() > 0.
  void submit(std::function<void()> job) EXCLUDES(mutex_);

  /// Blocks until the queue is empty and no worker is mid-job.
  void wait_idle() EXCLUDES(mutex_);

  /// Runs `shard(i)` for every i in [0, shard_count), distributing indices
  /// to the workers dynamically (an atomic claim counter, so unevenly sized
  /// shards balance), and returns only when all shards completed. The
  /// calling thread does not execute shards itself unless the pool is empty
  /// (size() == 0), in which case everything runs inline, in order.
  void parallel_for_shards(std::size_t shard_count,
                           const std::function<void(std::size_t)>& shard)
      EXCLUDES(mutex_);

 private:
  void worker_loop() EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  std::size_t running_ GUARDED_BY(mutex_){0};
  bool stopping_ GUARDED_BY(mutex_){false};
};

}  // namespace rtether
