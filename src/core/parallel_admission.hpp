#pragma once

/// @file parallel_admission.hpp
/// Multi-core admission control by egress-link sharding.
///
/// The paper's admission test is per-link and per-direction (Eqs 18.2–18.5):
/// deciding a channel request reads and mutates exactly two "processors" —
/// the source node's uplink and the destination node's downlink. Requests
/// that touch disjoint links are therefore independent, and a switch serving
/// hundreds of nodes can run their feasibility analyses on all cores at
/// once.
///
/// `ParallelAdmissionEngine` makes that concrete while keeping the paper's
/// semantics bit-exact. A batch of admit/release ops is processed in three
/// phases:
///
///   1. **Shard** (sequential, cheap): each valid admit is an edge between
///      its two link directions in the link-conflict graph, and so is each
///      release (between the live channel's two links); union-find over
///      that graph groups links into connected components. All ops whose
///      links fall in one component form one shard, kept in stream order.
///      Cross-link ordering is thereby resolved *before* any concurrency
///      exists: two ops that could ever observe each other share a
///      component by construction.
///   2. **Decide** (parallel): each shard worker gets a private projection
///      of the network state (wholesale copies of exactly its links' task
///      sets) and borrows the engine's per-link `LinkScanCache`s — links are
///      partitioned across shards, so no lock is ever taken — a hard
///      invariant, statically enforced: `parallel_admission.cpp` must never
///      name a mutex type (`scripts/lint_invariants.py`, rule
///      `lock-free-path`, gates CI on it). Workers run the identical
///      DPS-candidate loop and cached feasibility trial as the sequential
///      engine (`admission_internal::cached_candidate_test`) under
///      pre-reserved placeholder channel IDs, take released channels out of
///      their projection and caches at their stream positions, and record
///      per-admit decisions into disjoint slots.
///   3. **Merge** (sequential, O(1) per op): walk the batch in stream order;
///      each release leaves the registry, frees its ID and counts as
///      released, and each accept gets its real channel ID (smallest-free
///      order — exactly what the sequential controller would have assigned)
///      and is installed. The borrowed caches return home; they are
///      ID-agnostic, so the placeholder/real-ID split is invisible to them.
///
/// The result is **decision-identical** to feeding the same stream through
/// `AdmissionController` one call at a time: same accepts, same rejects,
/// same channel IDs, same partitions, same rejection reasons and diagnostic
/// strings, same stats. Only a release whose ID was not live at batch start
/// (it may name an admit of the same batch, whose ID only the merge
/// assigns) or was already released earlier in the batch cuts the stream:
/// it runs on the merged state at its exact position, and a new batch
/// starts after it. Streams whose conflict graph collapses into one
/// component (all-to-all traffic) degrade gracefully to the single-threaded
/// `AdmissionEngine::process` — correctness never depends on shardability.
/// Requirements: the partitioner's `candidates()` must be pure per-call and
/// must read only the two links the spec touches (true for
/// SDPS/ADPS/UDPS/Search).
///
/// `AdmissionService` runs every ingest burst of its resident mode through
/// `process`, so this is the one sharded admission path in the library.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/expected.hpp"
#include "common/thread_pool.hpp"
#include "core/admission.hpp"

namespace rtether::core {

/// Tuning knobs for the parallel engine.
struct ParallelAdmissionConfig {
  /// Knobs shared with the sequential engine (release policy).
  AdmissionConfig admission{};
  /// Worker threads of the pool (the calling thread joins them while a
  /// batch is decided). 0 = one per hardware thread (at least one).
  unsigned threads{0};
  /// Batches below this size skip sharding: per-shard setup (state
  /// projection, cache hand-off) would dominate the analysis itself.
  std::size_t min_parallel_batch{64};
};

// `ChannelOp` / `ChurnResult` — the mixed admit/release stream vocabulary —
// live in admission.hpp now that every backend shares them.

class ParallelAdmissionEngine {
 public:
  ParallelAdmissionEngine(std::uint32_t node_count,
                          std::unique_ptr<DeadlinePartitioner> partitioner,
                          ParallelAdmissionConfig config = {});

  /// Single-request admission (sequential fast path, shared state).
  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec);

  /// Releases an established channel (teardown); typed `kUnknownChannel`
  /// rejection if the ID is not live. Safe between batches; the affected
  /// link caches are downdated.
  [[nodiscard]] ReleaseOutcome release(ChannelId id);

  /// Drives a mixed admit/release stream through the sharded path (see the
  /// file comment for where the stream is cut into batches); outcomes
  /// match a sequential replay op by op. Streams shorter than
  /// `min_parallel_batch` run the sequential engine's `process`.
  [[nodiscard]] ChurnResult process(std::span<const ChannelOp> ops);

  [[nodiscard]] const NetworkState& state() const { return engine_.state(); }
  [[nodiscard]] const AdmissionStats& stats() const {
    return engine_.stats();
  }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const {
    return engine_.partitioner();
  }

  /// Reboot-reset. Safe between batches: every piece of persistent state
  /// lives in the sequential engine (shard workers only borrow it).
  void reset() { engine_.reset(); }

  /// The most shards any batch of the most recent `process` call split
  /// into (1 when every batch ran the sequential path; 0 for an
  /// empty call or before any). Diagnostics and benches.
  [[nodiscard]] std::size_t last_shard_count() const {
    return last_shard_count_;
  }

 private:
  struct Shard;

  /// One batch of `process` (no release in it cuts the stream). Classifies
  /// and shards the batch and appends its outcomes to `result`; falls back
  /// to the sequential engine for short batches, when the conflict graph
  /// collapses to one component, or when channel-ID headroom could make
  /// decisions order-dependent.
  void process_batch(std::span<const ChannelOp> batch, ChurnResult& result);

  /// The sequential engine owns every piece of persistent state (network
  /// state, ID allocator, stats, per-link caches); the parallel layer
  /// borrows it per batch and hands it back. Single-request admits and
  /// sub-threshold batches go straight through it.
  AdmissionEngine engine_;
  /// `config.threads` workers plus the calling thread.
  ThreadPool pool_;
  std::size_t min_parallel_batch_;
  std::size_t last_shard_count_{0};
  /// `process`'s batch cut: the IDs released so far in the batch being
  /// scanned. Sized once; each scan clears the bits it set.
  std::vector<bool> released_;
};

}  // namespace rtether::core
