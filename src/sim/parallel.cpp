#include "sim/parallel.hpp"

#include <cstddef>

#include "common/assert.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace rtether::sim {

namespace {

/// Lockstep round barrier for one run's threads. The last thread to arrive
/// decides — inside the critical section, while every other thread is
/// parked — whether the run continues, and the decision is returned to all
/// threads of that generation. Deciding anywhere else would race: a thread
/// that read the failure flag before a slower peer set it would leave the
/// loop while the peer parks at the barrier forever.
class RoundBarrier {
 public:
  RoundBarrier(const FabricNetwork& fabric, std::size_t parties)
      : fabric_(fabric), parties_(parties) {}

  /// One round boundary. `last_round` is a pure function of the fixed
  /// round schedule, so every thread passes the same value. Returns true
  /// when the run stops after this round.
  [[nodiscard]] bool arrive(bool last_round) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    ++rounds_seen_;
    if (rounds_seen_ == parties_) {
      rounds_seen_ = 0;
      ++rounds_;
      // All round work happened-before this point (every thread holds the
      // mutex on arrival), so the failure flag read here is complete.
      stop_ = last_round || fabric_.failed();
      ++generation_;
      cv_.notify_all();
      return stop_;
    }
    const std::uint64_t generation = generation_;
    while (generation_ == generation) {
      cv_.wait(mutex_);
    }
    return stop_;
  }

  /// Completed rounds. Call after the run returned.
  [[nodiscard]] std::uint64_t rounds() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return rounds_;
  }

 private:
  const FabricNetwork& fabric_;
  const std::size_t parties_;
  Mutex mutex_;
  CondVar cv_;
  std::size_t rounds_seen_ GUARDED_BY(mutex_){0};
  std::uint64_t generation_ GUARDED_BY(mutex_){0};
  std::uint64_t rounds_ GUARDED_BY(mutex_){0};
  bool stop_ GUARDED_BY(mutex_){false};
};

}  // namespace

bool ParallelSimulator::run_until(Tick until,
                                  std::uint64_t max_events_per_partition) {
  const Tick lookahead = fabric_.lookahead();
  RTETHER_ASSERT_MSG(lookahead > 0, "fabric lookahead must be positive");
  const std::size_t partitions = fabric_.partition_count();
  if (until <= now_) return !fabric_.failed();

  const auto round_budget = [this,
                             max_events_per_partition](std::size_t p) {
    // Budget is per partition-kernel and cumulative across rounds.
    const std::uint64_t executed = fabric_.kernel(p).executed_events();
    return executed < max_events_per_partition
               ? max_events_per_partition - executed
               : 0;
  };

  if (sequential_) {
    // Sequential baseline: the identical round schedule, inline.
    while (now_ < until) {
      const Tick target = std::min(until, now_ + lookahead);
      for (std::size_t p = 0; p < partitions; ++p) {
        (void)fabric_.run_round(p, target, round_budget(p));
      }
      ++rounds_;
      now_ = target;
      if (fabric_.failed()) break;
    }
    now_ = until;
    return !fabric_.failed();
  }

  // Parallel mode: one call per thread for the whole run — each loops over
  // the rounds with a barrier between them, so the per-round cost is one
  // mutex/condvar cycle per thread, not a fork/join. Partition ownership is
  // static (p ≡ w mod threads): partition p's kernel, stats and cut-edge
  // cursors are touched by exactly one thread between any two barriers.
  const std::size_t threads = pool_.size();
  RoundBarrier barrier(fabric_, threads);
  const Tick start = now_;
  pool_.run(threads, [&](std::size_t w) {
    Tick now = start;
    for (;;) {
      const Tick target = std::min(until, now + lookahead);
      for (std::size_t p = w; p < partitions; p += threads) {
        (void)fabric_.run_round(p, target, round_budget(p));
      }
      now = target;
      if (barrier.arrive(target >= until)) break;
    }
  });
  rounds_ += barrier.rounds();
  now_ = until;
  return !fabric_.failed();
}

}  // namespace rtether::sim
