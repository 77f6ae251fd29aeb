#include "sim/switch.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "sim/addressing.hpp"
#include "sim/network.hpp"

namespace rtether::sim {

SimSwitch::SimSwitch(Simulator& simulator, const SimConfig& config,
                     std::uint32_t node_count, SimNetwork& network,
                     std::size_t best_effort_depth)
    : simulator_(simulator), config_(config), network_(network) {
  ports_.reserve(node_count);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    const NodeId node{n};
    ports_.push_back(std::make_unique<Transmitter>(
        simulator_, config_, "switch-port-" + std::to_string(n),
        Transmitter::Sink::port(network, node), best_effort_depth));
  }
}

Transmitter& SimSwitch::port(NodeId node) {
  RTETHER_ASSERT(node.value() < ports_.size());
  return *ports_[node.value()];
}

const Transmitter& SimSwitch::port(NodeId node) const {
  RTETHER_ASSERT(node.value() < ports_.size());
  return *ports_[node.value()];
}

void SimSwitch::ingress(FrameIndex frame, NodeId from) {
  if (simulator_.arena().get(frame).corrupted) {
    // CRC check on reception: discarded before MAC learning (a real
    // switch never learns from a CRC-bad frame).
    network_.record_fault_drop(simulator_.arena().get(frame));
    simulator_.arena().release(frame);
    return;
  }
  // Source-address learning happens on reception, before processing.
  table_.learn(simulator_.arena().get(frame).info.source_mac, from);
  simulator_.schedule_event(simulator_.now() + config_.switch_processing_ticks,
                            EventType::kSwitchForward, this, frame,
                            from.value());
}

void SimSwitch::forward(FrameIndex frame, NodeId from) {
  FrameArena& arena = simulator_.arena();
  // The reference stays valid across this function: queueing moves indices,
  // never frames, and nothing below acquires before the flood path's
  // explicit clones.
  const FrameInfo& info = arena.get(frame).info;
  switch (info.cls) {
    case FrameClass::kManagement: {
      if (info.destination_mac == switch_mac()) {
        ++stats_.management_received;
        if (mgmt_handler_ != nullptr) {
          mgmt_handler_(mgmt_context_, arena.get(frame), from,
                        simulator_.now());
        }
        arena.release(frame);
        return;
      }
      // Management frame relayed between nodes: treat as best-effort below.
      [[fallthrough]];
    }
    case FrameClass::kBestEffort: {
      const auto dst = table_.lookup(info.destination_mac);
      if (dst && !info.destination_mac.is_broadcast()) {
        ++stats_.best_effort_forwarded;
        port(*dst).enqueue_best_effort(frame);
        return;
      }
      // Unknown unicast or broadcast: flood to all ports except ingress.
      ++stats_.flooded;
      for (std::uint32_t n = 0; n < ports_.size(); ++n) {
        if (NodeId{n} == from) continue;
        port(NodeId{n}).enqueue_best_effort(arena.clone(frame));
      }
      arena.release(frame);
      return;
    }
    case FrameClass::kRealTime: {
      RTETHER_ASSERT_MSG(info.rt_tag.has_value(),
                         "RT classification without a decoded tag");
      const auto dst = table_.lookup(info.destination_mac);
      if (!dst) {
        // Cannot flood RT traffic without violating other ports'
        // guarantees. Fault-free, establishment always precedes data, so
        // this signals a misbehaving sender; after a reboot table flush it
        // is the expected fate of frames already past ingress, and the
        // per-channel loss is booked so the survival contract's exact
        // accounting holds.
        ++stats_.rt_dropped_unknown_destination;
        network_.record_fault_drop(arena.get(frame));
        RTETHER_LOG(kWarn, "switch",
                    "dropping RT frame to unlearned MAC "
                        << info.destination_mac.to_string());
        arena.release(frame);
        return;
      }
      ++stats_.rt_forwarded;
      if (!config_.edf_enabled) {
        // Baseline mode: plain switched Ethernet, FCFS everywhere.
        port(*dst).enqueue_best_effort(frame);
        return;
      }
      // EDF key: the absolute end-to-end deadline carried in the IP header
      // (release + d_i) — the per-hop key of core/multihop.hpp's soundness
      // argument.
      const Tick key = info.rt_tag->absolute_deadline;
      port(*dst).enqueue_rt(key, frame);
      return;
    }
  }
}

void SimSwitch::send_from_switch(NodeId to, SimFrame frame) {
  port(to).enqueue_best_effort(std::move(frame));
}

void SimSwitch::prime_forwarding(std::uint32_t node_count) {
  for (std::uint32_t n = 0; n < node_count; ++n) {
    table_.learn(node_mac(NodeId{n}), NodeId{n});
  }
}

}  // namespace rtether::sim
