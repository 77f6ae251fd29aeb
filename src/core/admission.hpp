#pragma once

/// @file admission.hpp
/// The switch's admission control (paper §18.2.2/§18.3.2): on each channel
/// request, test whether the system state stays feasible with the new
/// channel's two pseudo-tasks added — utilization (Eq 18.2) and processor
/// demand (Eq 18.3, scanned per Eqs 18.4/18.5) on the source uplink and the
/// destination downlink. Rejected requests leave no residue.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "core/channel.hpp"
#include "core/id_allocator.hpp"
#include "core/network_state.hpp"
#include "core/partitioner.hpp"
#include "edf/feasibility.hpp"

namespace rtether::core {

/// Why a request was refused.
enum class RejectReason : std::uint8_t {
  kInvalidSpec,         ///< malformed {P, C, d} (includes d_i < 2·C_i)
  kUnknownNode,         ///< source or destination not in the network
  kUplinkInfeasible,    ///< no candidate kept the source uplink feasible
  kDownlinkInfeasible,  ///< no candidate kept the destination downlink feasible
  kChannelIdsExhausted, ///< all 65535 16-bit IDs live
  kUnknownChannel,      ///< teardown of an ID that is not live
};

[[nodiscard]] const char* to_string(RejectReason reason);

/// Inverse of `to_string` (corpus/bench artifact round-trips); nullopt for
/// strings that name no reason.
[[nodiscard]] std::optional<RejectReason> reject_reason_from_string(
    std::string_view text);

/// Rejection verdict with the failing link's feasibility report.
struct Rejection {
  RejectReason reason;
  std::string detail;

  friend bool operator==(const Rejection&, const Rejection&) = default;
};

/// Outcome of one admission request: the committed channel, or a typed
/// rejection with the failing constraint's diagnostic.
using AdmitOutcome = Expected<RtChannel, Rejection>;

/// Outcome of one teardown: the released ID, or a typed rejection
/// (`kUnknownChannel` — the ID was not live). Replaces the bool returns the
/// release paths used to share; `explicit operator bool` keeps
/// boolean-context call sites (`if (x.release(id))`) compiling unchanged.
using ReleaseOutcome = Expected<ChannelId, Rejection>;

/// Tuning knobs for the reference `AdmissionController`.
struct AdmissionConfig {
  /// Demand-scan strategy for constraint 2 (paper default: checkpoints).
  /// Every scan reaches the same verdict, first violation and demand; the
  /// cached paths always run the checkpoint scan through their
  /// `LinkScanCache`s.
  edf::DemandScan scan{edf::DemandScan::kCheckpoints};
};

/// Running acceptance statistics.
struct AdmissionStats {
  std::uint64_t requested{0};
  std::uint64_t accepted{0};
  std::uint64_t rejected{0};
  std::uint64_t released{0};
  /// Total feasibility tests run (≥ 2 per candidate partition tried).
  std::uint64_t feasibility_tests{0};
  /// Total demand-function evaluations across all tests (ablation metric).
  std::uint64_t demand_evaluations{0};
};

class AdmissionController {
 public:
  /// A star network with `node_count` end-nodes; `partitioner` implements
  /// the DPS in force (the paper's switch is configured with one scheme).
  AdmissionController(std::uint32_t node_count,
                      std::unique_ptr<DeadlinePartitioner> partitioner,
                      AdmissionConfig config = {});

  /// Handles a channel request end-to-end: validate, partition, test both
  /// affected link directions, and either commit the channel (assigning a
  /// network-unique ID) or reject with a reason. Never leaves tentative
  /// state behind.
  [[nodiscard]] AdmitOutcome request(const ChannelSpec& spec);

  /// Releases an established channel (teardown). Fails typed
  /// (`kUnknownChannel`) when the ID is not live.
  [[nodiscard]] ReleaseOutcome release(ChannelId id);

  [[nodiscard]] const NetworkState& state() const { return state_; }
  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const {
    return *partitioner_;
  }

  /// Forgets every live channel and returns the ID allocator to its
  /// initial state — the admission half of a switch reboot (volatile
  /// channel table lost; scheme and config survive in firmware). Running
  /// stats keep counting across the reboot. A post-reboot re-admission
  /// sequence is therefore bit-identical to the same sequence on a fresh
  /// controller — the survival contract the scenario runner enforces.
  void reset() {
    state_ = NetworkState(state_.node_count());
    ids_ = ChannelIdAllocator{};
  }

 private:
  NetworkState state_;
  std::unique_ptr<DeadlinePartitioner> partitioner_;
  AdmissionConfig config_;
  ChannelIdAllocator ids_;
  AdmissionStats stats_;
};

/// One step of a mixed admit/release stream — the op vocabulary shared by
/// `AdmissionBackend::submit`, `AdmissionEngine::process`,
/// `ParallelAdmissionEngine::process` and the `AdmissionService` ingest
/// ring.
struct ChannelOp {
  enum class Kind : std::uint8_t { kAdmit, kRelease };

  Kind kind{Kind::kAdmit};
  /// kAdmit: the requested contract.
  ChannelSpec spec{};
  /// kRelease: the channel to tear down.
  ChannelId id{};

  [[nodiscard]] static ChannelOp admit(const ChannelSpec& spec) {
    ChannelOp op;
    op.kind = Kind::kAdmit;
    op.spec = spec;
    return op;
  }
  [[nodiscard]] static ChannelOp release(ChannelId id) {
    ChannelOp op;
    op.kind = Kind::kRelease;
    op.id = id;
    return op;
  }
};

/// Outcome of a mixed op stream: admissions and releases in their
/// respective submission orders.
struct ChurnResult {
  /// One entry per kAdmit op, in stream order.
  std::vector<AdmitOutcome> admissions;
  /// One entry per kRelease op, in stream order.
  std::vector<ReleaseOutcome> releases;

  [[nodiscard]] std::size_t accepted() const;
  [[nodiscard]] std::size_t rejected() const;
};

/// High-throughput admission pipeline.
///
/// `AdmissionController` re-derives the full feasibility state — busy
/// period, checkpoint grid, per-instant demand sums — from scratch for every
/// candidate of every request. That is faithful to the paper but quadratic
/// in the number of admitted channels, and it is exactly the bottleneck when
/// a switch must establish thousands of RT channels (bring-up of a large
/// plant, fail-over re-admission, tenant migration).
///
/// The engine processes requests *in submission order* — decisions, assigned
/// channel IDs and rejection diagnostics are identical to feeding the same
/// stream through `AdmissionController::request` one call at a time — but
/// amortizes the per-link analysis state across the batch:
///
///   * a `edf::LinkScanCache` per link direction memoizes the checkpoint
///     grid and per-instant demand, so each trial test is a merge-walk in
///     O(checkpoints) instead of O(tasks · checkpoints);
///   * `process` pre-sorts each run of admits per egress link and sizes
///     each touched link's grid (busy-period horizon, capped by the link's
///     hyperperiod) once per link instead of once per request;
///   * rejected candidates never touch the system state, so there is no
///     tentative add/remove churn on the hot path.
///
/// Caveat: parity holds for partitioners whose candidates depend on the
/// *exact* system state (SDPS, ADPS, Search — link loads are integers). A
/// partitioner reading floating-point link utilization (UDPS) can observe
/// harmless accumulation-order differences versus a controller that has
/// churned through tentative add/remove cycles.
///
/// The trials always run the paper's checkpoint scan; every scan strategy
/// reaches the same decision and diagnostic, so the engine matches a
/// controller configured with any `AdmissionConfig::scan`.
class AdmissionEngine {
 public:
  AdmissionEngine(std::uint32_t node_count,
                  std::unique_ptr<DeadlinePartitioner> partitioner);

  /// Admits one request, reusing the incremental per-link state built up by
  /// previous admits and batches.
  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec);

  /// Drives a mixed admit/release stream in order: each run of consecutive
  /// admits shares one batch pre-pass (`prepare_links`) and is then admitted
  /// one by one; each release applies in place. The one batch entry point,
  /// shared by the batched backend, the inline service and the parallel
  /// engine's sequential fallback.
  [[nodiscard]] ChurnResult process(std::span<const ChannelOp> ops);

  /// Releases an established channel (teardown); typed `kUnknownChannel`
  /// rejection if the ID is not live. O(affected links): the two link
  /// caches are downdated in place.
  [[nodiscard]] ReleaseOutcome release(ChannelId id);

  [[nodiscard]] const NetworkState& state() const { return state_; }
  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const {
    return *partitioner_;
  }

  /// Forgets every live channel, returns the ID allocator to its initial
  /// state and cold-resets the per-link scan caches — the engine-shaped
  /// mirror of `AdmissionController::reset` (same reboot semantics: stats
  /// keep counting, post-reset decisions match a fresh engine).
  void reset() {
    state_ = NetworkState(state_.node_count());
    ids_ = ChannelIdAllocator{};
    for (auto& cache : uplink_caches_) {
      cache = edf::LinkScanCache{};
    }
    for (auto& cache : downlink_caches_) {
      cache = edf::LinkScanCache{};
    }
  }

 private:
  [[nodiscard]] edf::LinkScanCache& cache(NodeId node, LinkDirection dir);

  /// Batch pre-pass over a run of admits: sort it per egress/ingress link
  /// and pre-size each touched link's scan cache once.
  void prepare_links(std::span<const ChannelOp> admits);

  /// The parallel engine wraps this one: it borrows the per-link caches for
  /// its shard workers and replays accepted decisions through `state_` and
  /// `ids_` so the sequential and sharded paths share one source of truth.
  friend class ParallelAdmissionEngine;

  NetworkState state_;
  std::unique_ptr<DeadlinePartitioner> partitioner_;
  ChannelIdAllocator ids_;
  AdmissionStats stats_;
  std::vector<edf::LinkScanCache> uplink_caches_;
  std::vector<edf::LinkScanCache> downlink_caches_;
};

}  // namespace rtether::core
