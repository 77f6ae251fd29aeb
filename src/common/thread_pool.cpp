#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/assert.hpp"

namespace rtether {

/// One run, on the caller's stack: the type-erased callable and the claim
/// counter. Workers reach it only between joining the run and checking out
/// of it, and `run_erased` waits for every check-out.
struct ThreadPool::Job {
  void (*call)(const void*, std::size_t);
  const void* fn;
  std::size_t count;
  std::atomic<std::size_t> next{0};

  /// The claim loop: the next unclaimed index, until none is left.
  void work() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      call(fn, i);
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : size_(std::max(1U, threads)) {}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::run_erased(std::size_t count,
                            void (*call)(const void*, std::size_t),
                            const void* fn) {
  if (workers_.empty()) {
    workers_.reserve(size_ - 1);
    for (unsigned i = 1; i < size_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
  Job job{call, fn, count};
  {
    MutexLock lock(mutex_);
    RTETHER_ASSERT_MSG(job_ == nullptr, "ThreadPool::run is not reentrant");
    job_ = &job;
    ++generation_;
  }
  work_available_.notify_all();
  job.work();
  // Every index is claimed. A worker that has not joined yet must not join
  // now (the job dies with this frame); the ones inside finish their calls.
  MutexLock lock(mutex_);
  job_ = nullptr;
  while (active_ != 0) {
    workers_left_.wait(mutex_);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t joined = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && generation_ == joined) {
        work_available_.wait(mutex_);
      }
      if (stopping_) {
        return;
      }
      joined = generation_;
      job = job_;
      if (job == nullptr) {
        continue;  // the caller already claimed the last index
      }
      ++active_;
    }
    job->work();
    MutexLock lock(mutex_);
    if (--active_ == 0) {
      workers_left_.notify_one();
    }
  }
}

}  // namespace rtether
