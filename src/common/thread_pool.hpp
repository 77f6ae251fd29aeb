#pragma once

/// @file thread_pool.hpp
/// The library's one fork-join: `run(count, fn)` calls `fn(i)` once for
/// every `i < count` on a fixed team of threads and returns when every call
/// has returned. The team is the pool's workers plus the calling thread,
/// which claims indices beside them instead of sleeping through the join.
/// Indices are claimed dynamically (one atomic counter), so calls of uneven
/// cost balance. Admission shards, campaign scenarios and PDES partitions
/// all run through it.
///
/// Contract: every thread of the team joins every run, and a thread takes a
/// new index only after its previous call has returned. So a run of
/// `count <= size()` calls that wait for each other (a latch, a round
/// barrier) cannot deadlock: each call gets a thread of its own.
///
/// Nothing here is clever on purpose: mutex + two condition variables, no
/// spinning, so a waiting thread parks exactly as it would on any lock and
/// the behaviour under ThreadSanitizer is the behaviour in production. The
/// mutex protocol is Clang thread-safety annotated, so `-Wthread-safety`
/// proves every shared field is read under `mutex_` on every path.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace rtether {

class ThreadPool {
 public:
  /// A team of `threads` threads, the caller of `run` included: the pool
  /// keeps `threads - 1` workers, started by the first `run` that can use
  /// them. `threads <= 1` keeps none and runs everything inline, in order.
  explicit ThreadPool(unsigned threads);

  /// Joins the workers. Must not race a `run`.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run work, the caller of `run` included (at least 1).
  [[nodiscard]] unsigned size() const { return size_; }

  /// Calls `fn(i)` once for every `i < count` and returns when every call
  /// has returned. `fn` must not throw (the library is assert-based). One
  /// `run` at a time per pool: a call must not `run` the same pool again,
  /// though it may run another pool.
  template <typename Fn>
  void run(std::size_t count, Fn&& fn) {
    if (size_ <= 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) {
        fn(i);
      }
      return;
    }
    using Callable = std::remove_reference_t<Fn>;
    run_erased(
        count,
        [](const void* callable, std::size_t i) {
          (*static_cast<Callable*>(const_cast<void*>(callable)))(i);
        },
        std::addressof(fn));
  }

 private:
  struct Job;

  void run_erased(std::size_t count, void (*call)(const void*, std::size_t),
                  const void* fn) EXCLUDES(mutex_);
  void worker_loop() EXCLUDES(mutex_);

  const unsigned size_;
  /// Started by the first `run_erased`; touched only by the running caller
  /// and the destructor, which never overlap.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_available_;
  CondVar workers_left_;
  /// The run in progress (null between runs and once the caller has found
  /// every index claimed).
  Job* job_ GUARDED_BY(mutex_){nullptr};
  /// Bumped by every run, so each worker joins each run exactly once.
  std::uint64_t generation_ GUARDED_BY(mutex_){0};
  /// Workers inside the current run.
  unsigned active_ GUARDED_BY(mutex_){0};
  bool stopping_ GUARDED_BY(mutex_){false};
};

}  // namespace rtether
