#pragma once

/// @file gate_schedule.hpp
/// Time-triggered (TAS-style) admission: instead of testing EDF demand
/// bounds (Eqs 18.2–18.5), admission *synthesizes the schedule* — each
/// channel's C_i frames are placed into exclusive cyclic gate windows on
/// its source uplink and destination downlink, repeating with the
/// channel's own period. A channel is admissible iff a conflict-free
/// placement exists; delivery then happens at the same offsets in every
/// period, so admitted channels have zero delivery jitter by construction
/// (the invariant the slot-accurate sim checks).
///
/// Two reservations {o + kP} and {o' + mP'} collide iff
/// o ≡ o' (mod gcd(P, P')), so the conflict test is a residue comparison
/// per existing offset — no hyperperiod table is ever materialized, which
/// keeps admission exact for coprime and near-2^64 periods alike.
///
/// Placement is greedy earliest-fit and deterministic: the uplink offsets
/// u_0 < … < u_{C-1} are the elementwise-smallest conflict-free chain, the
/// downlink offsets satisfy v_i ≥ u_i + 1 (store-and-forward: frame i can
/// only leave the switch after it fully arrived) and v_{C-1} ≤
/// min(d, P) − 1 (delivered within the deadline and within the repeating
/// period). Greedy earliest-fit makes acceptance monotone under channel
/// removal and makes release-then-identical-re-admit always re-accepted —
/// the TT property-test contract.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/admission.hpp"
#include "core/channel.hpp"
#include "core/id_allocator.hpp"
#include "core/network_state.hpp"
#include "core/partitioner.hpp"

namespace rtether::core {

/// One channel's reserved transmit offsets on a single egress link: slot
/// `offset + k·period` (k ≥ 0, offsets strictly increasing, all < period)
/// belongs exclusively to the channel.
struct GateReservation {
  ChannelId id{};
  Slot period{0};
  std::vector<Slot> offsets;

  friend bool operator==(const GateReservation&,
                         const GateReservation&) = default;
};

/// The full gate table of one egress link direction, in admission order.
using GateTable = std::vector<GateReservation>;

/// A channel's placement across its two hops (gate-table export for the
/// simulator and for the conformance runner's conflict audit).
struct GatePlacement {
  std::vector<Slot> uplink;
  std::vector<Slot> downlink;
};

class GateScheduleAdmission {
 public:
  /// Largest offset the greedy scan will consider. Bounds the search for
  /// huge periods (the offset space is [0, P) and P may be near 2^64);
  /// placements needing a later offset are rejected — deterministically,
  /// and still monotone under removal, since removing channels only moves
  /// greedy choices earlier.
  static constexpr Slot kOffsetCap = Slot{1} << 16;

  /// A star network with `node_count` end-nodes. The partitioner is not
  /// consulted for placement (TT has no deadline split to choose); it is
  /// kept for the `AdmissionBackend` accessor and reports.
  GateScheduleAdmission(std::uint32_t node_count,
                        std::unique_ptr<DeadlinePartitioner> partitioner);

  /// Admits one channel by synthesizing its gate windows, or rejects with
  /// `kUplinkInfeasible`/`kDownlinkInfeasible` when no conflict-free
  /// placement exists on the respective link. Rejections leave no residue.
  /// The reported `DeadlinePartition` is derived from the placement
  /// (uplink share = last uplink offset + 1, clamped to Eq 18.9).
  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec);

  /// Frees the channel's windows on both links incrementally (O(affected
  /// reservations)); typed `kUnknownChannel` when the ID is not live.
  [[nodiscard]] ReleaseOutcome release(ChannelId id);

  [[nodiscard]] const NetworkState& state() const { return state_; }
  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const {
    return *partitioner_;
  }

  /// Gate table of one egress link direction (uplink tables are indexed by
  /// source node, downlink tables by destination node).
  [[nodiscard]] const GateTable& gate_table(NodeId node,
                                            LinkDirection dir) const;

  /// The admitted placement of a live channel; nullopt when not live.
  [[nodiscard]] std::optional<GatePlacement> placement(ChannelId id) const;

  /// Forgets every live channel and returns the ID allocator to its
  /// initial state (the admission half of a switch reboot); running stats
  /// keep counting, mirroring `AdmissionController::reset`.
  void reset();

 private:
  /// Greedy earliest-fit: appends `count` strictly increasing offsets to
  /// `out`, the i-th being the smallest conflict-free slot ≥
  /// max(floors[i], previous + 1) and ≤ bound(i). Returns false (leaving
  /// `out` in an unspecified state) when some frame has no slot.
  [[nodiscard]] bool place_frames(const GateTable& table, Slot period,
                                  Slot count,
                                  const std::vector<Slot>* floors,
                                  Slot last_bound, std::vector<Slot>& out);

  [[nodiscard]] bool collides(const GateTable& table, Slot period,
                              Slot offset);

  NetworkState state_;
  std::unique_ptr<DeadlinePartitioner> partitioner_;
  ChannelIdAllocator ids_;
  AdmissionStats stats_;
  std::vector<GateTable> uplink_tables_;
  std::vector<GateTable> downlink_tables_;
  std::unordered_map<ChannelId, GatePlacement> placements_;
};

}  // namespace rtether::core
