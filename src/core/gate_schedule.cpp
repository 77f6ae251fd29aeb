#include "core/gate_schedule.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/assert.hpp"

namespace rtether::core {

namespace {

std::string invalid_spec_detail(const ChannelSpec& spec) {
  std::ostringstream detail;
  detail << spec.to_string() << " is invalid";
  if (spec.capacity > 0 && spec.deadline < 2 * spec.capacity) {
    detail << " (d < 2C cannot cross a store-and-forward switch)";
  }
  return detail.str();
}

std::string placement_detail(const char* side, NodeId node, Slot horizon,
                             Slot frame_index) {
  std::ostringstream detail;
  detail << side << node.value() << ": no conflict-free gate window for frame "
         << frame_index << " within " << horizon << " slots";
  return detail.str();
}

}  // namespace

GateScheduleAdmission::GateScheduleAdmission(
    std::uint32_t node_count, std::unique_ptr<DeadlinePartitioner> partitioner)
    : state_(node_count),
      partitioner_(std::move(partitioner)),
      uplink_tables_(node_count),
      downlink_tables_(node_count) {
  RTETHER_ASSERT(partitioner_ != nullptr);
}

bool GateScheduleAdmission::collides(const GateTable& table, Slot period,
                                     Slot offset) {
  for (const GateReservation& reservation : table) {
    const Slot g = std::gcd(period, reservation.period);
    const Slot residue = offset % g;
    for (const Slot existing : reservation.offsets) {
      ++stats_.demand_evaluations;
      if (existing % g == residue) {
        return true;
      }
    }
  }
  return false;
}

bool GateScheduleAdmission::place_frames(const GateTable& table, Slot period,
                                         Slot count,
                                         const std::vector<Slot>* floors,
                                         Slot last_bound,
                                         std::vector<Slot>& out) {
  ++stats_.feasibility_tests;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  Slot next = 0;
  for (Slot i = 0; i < count; ++i) {
    // Frames i+1 … count−1 still need strictly later slots below
    // `last_bound`, so frame i must fit by then.
    const Slot bound =
        std::min(last_bound - (count - 1 - i), std::min(period - 1, kOffsetCap));
    Slot candidate = next;
    if (floors != nullptr) {
      candidate = std::max(candidate, (*floors)[static_cast<std::size_t>(i)]);
    }
    for (;; ++candidate) {
      if (candidate > bound) {
        return false;
      }
      if (!collides(table, period, candidate)) {
        break;
      }
    }
    out.push_back(candidate);
    next = candidate + 1;
  }
  return true;
}

AdmitOutcome GateScheduleAdmission::admit(const ChannelSpec& spec) {
  ++stats_.requested;
  auto reject = [&](RejectReason reason,
                    std::string detail) -> AdmitOutcome {
    ++stats_.rejected;
    return Unexpected(Rejection{reason, std::move(detail)});
  };

  if (!spec.valid()) {
    return reject(RejectReason::kInvalidSpec, invalid_spec_detail(spec));
  }
  if (!state_.node_exists(spec.source) ||
      !state_.node_exists(spec.destination)) {
    return reject(RejectReason::kUnknownNode, spec.to_string());
  }

  // The table repeats with the channel's own period, so every frame must
  // be delivered within min(d, P) slots of release; downlink frame i needs
  // a slot strictly after uplink frame i (store-and-forward).
  const Slot horizon = std::min(spec.deadline, spec.period);
  if (horizon < spec.capacity + 1) {
    // P == C: the channel fills its entire period on each link, leaving no
    // later-in-period slot for the downlink copy. (EDF admits this load —
    // its downlink work rides into the next period — so this is the
    // structural utilization gap between the two schemes.)
    return reject(
        RejectReason::kUplinkInfeasible,
        placement_detail("uplink of node ", spec.source, horizon, 0));
  }

  GatePlacement placement;
  if (!place_frames(uplink_tables_[spec.source.value()], spec.period,
                    spec.capacity, nullptr, horizon - 2, placement.uplink)) {
    return reject(RejectReason::kUplinkInfeasible,
                  placement_detail("uplink of node ", spec.source, horizon,
                                   placement.uplink.size()));
  }

  std::vector<Slot> floors(placement.uplink.size());
  for (std::size_t i = 0; i < floors.size(); ++i) {
    floors[i] = placement.uplink[i] + 1;
  }
  if (!place_frames(downlink_tables_[spec.destination.value()], spec.period,
                    spec.capacity, &floors, horizon - 1, placement.downlink)) {
    return reject(RejectReason::kDownlinkInfeasible,
                  placement_detail("downlink of node ", spec.destination,
                                   horizon, placement.downlink.size()));
  }

  const auto id = ids_.allocate();
  if (!id) {
    return reject(RejectReason::kChannelIdsExhausted, spec.to_string());
  }

  // Report the placement as an Eq 18.8/18.9 partition: the uplink share is
  // the slots the message actually spends before the switch.
  const Slot uplink_share =
      std::clamp(placement.uplink.back() + 1, spec.capacity,
                 spec.deadline - spec.capacity);
  const DeadlinePartition partition{uplink_share,
                                    spec.deadline - uplink_share};
  RTETHER_ASSERT(partition.satisfies(spec));

  uplink_tables_[spec.source.value()].push_back(
      GateReservation{*id, spec.period, placement.uplink});
  downlink_tables_[spec.destination.value()].push_back(
      GateReservation{*id, spec.period, placement.downlink});
  placements_.emplace(*id, placement);

  const RtChannel channel{*id, spec, partition};
  state_.add_channel(channel);
  ++stats_.accepted;
  return channel;
}

ReleaseOutcome GateScheduleAdmission::release(ChannelId id) {
  const auto channel = state_.remove_channel(id);
  if (!channel) {
    std::string detail = "channel ";
    detail += std::to_string(id.value());
    detail += " is not live";
    return Unexpected(
        Rejection{RejectReason::kUnknownChannel, std::move(detail)});
  }

  auto erase_reservation = [](GateTable& table, ChannelId victim) {
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [victim](const GateReservation& reservation) {
                       return reservation.id == victim;
                     });
    RTETHER_ASSERT_MSG(it != table.end(), "gate table out of sync");
    table.erase(it);
  };
  erase_reservation(uplink_tables_[channel->spec.source.value()], id);
  erase_reservation(downlink_tables_[channel->spec.destination.value()], id);
  placements_.erase(id);

  const bool was_live = ids_.release(id);
  RTETHER_ASSERT_MSG(was_live, "channel present in state but ID not live");
  ++stats_.released;
  return id;
}

const GateTable& GateScheduleAdmission::gate_table(NodeId node,
                                                   LinkDirection dir) const {
  RTETHER_ASSERT(state_.node_exists(node));
  return dir == LinkDirection::kUplink ? uplink_tables_[node.value()]
                                       : downlink_tables_[node.value()];
}

std::optional<GatePlacement> GateScheduleAdmission::placement(
    ChannelId id) const {
  const auto it = placements_.find(id);
  if (it == placements_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void GateScheduleAdmission::reset() {
  state_ = NetworkState(state_.node_count());
  ids_ = ChannelIdAllocator{};
  for (auto& table : uplink_tables_) {
    table.clear();
  }
  for (auto& table : downlink_tables_) {
    table.clear();
  }
  placements_.clear();
}

}  // namespace rtether::core
