#pragma once

/// @file parallel.hpp
/// Conservative parallel driver for a partitioned fabric simulation
/// (sim/fabric.hpp): fixed barrier rounds of at most `lookahead()` ticks.
/// A `run_until` is one `ThreadPool::run` with one index per thread of the
/// pool, the caller included. Each call owns a static partition slice
/// (p ≡ w mod threads) and loops over the rounds with a condvar barrier
/// between them, so the per-round synchronization is one mutex/condvar
/// cycle per thread — not a pool fork/join. The pool's contract (every
/// thread joins every run, one index per thread at a time) is what lets
/// calls that wait for each other at the barrier share it. A one-thread
/// run is the barrier loop on the caller as its only party: the
/// sequential loop plus an uncontended lock per round (the bench's ≥0.95×
/// paired-overhead gate rides on exactly this).
///
/// The round schedule is a pure function of (run length, lookahead), so
/// every partition executes a bitwise-identical event sequence for any
/// thread count — including `threads == 0`, which runs the same rounds
/// inline without a barrier and doubles as the sequential baseline the
/// parallel digests are pinned against (and the fair perf baseline the
/// bench's paired speedup ratio divides by: same algorithm, minus the
/// barrier).

#include <algorithm>
#include <cstdint>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "sim/fabric.hpp"

namespace rtether::sim {

class ParallelSimulator {
 public:
  /// `threads == 0`: rounds run inline, without a barrier (sequential
  /// mode). Otherwise `min(threads, partition_count)` threads run the
  /// rounds, the caller included — a thread beyond one per partition
  /// could never be scheduled.
  ParallelSimulator(FabricNetwork& fabric, unsigned threads)
      : fabric_(fabric),
        sequential_(threads == 0),
        pool_(std::min<unsigned>(
            threads, static_cast<unsigned>(fabric.partition_count()))) {}

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  /// Advances every partition to `until` in barrier rounds. Returns false
  /// when any partition exhausted `max_events_per_partition` (its kernel's
  /// cumulative budget) or a cut-link spill overflowed; the fabric is then
  /// in a failed, non-resumable state.
  [[nodiscard]] bool run_until(
      Tick until,
      std::uint64_t max_events_per_partition = Simulator::kDefaultMaxEvents);

  /// Barrier rounds executed so far.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  FabricNetwork& fabric_;
  const bool sequential_;
  ThreadPool pool_;
  Tick now_{0};
  std::uint64_t rounds_{0};
};

}  // namespace rtether::sim
