#pragma once

/// @file best_effort.hpp
/// Synthetic non-real-time (TCP-like) traffic. The paper's network carries
/// ordinary TCP/IP alongside RT channels (PAPER.md, "Design summary"); this
/// generator stands in for that stack: it emits valid IPv4 frames with ToS 0
/// that take the FCFS path through every queue, at Poisson or on-off-burst
/// arrivals.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "sim/network.hpp"

namespace rtether::sim {

/// Arrival process shape.
enum class BestEffortArrivals : std::uint8_t {
  kPoisson,  ///< exponential inter-arrival times
  kOnOff,    ///< exponential on/off phases; arrivals only while on
};

struct BestEffortProfile {
  /// Mean offered load per source as a fraction of link capacity (0…1+).
  double offered_load{0.2};
  /// Frame payload size range, bytes (uniform).
  std::uint32_t min_payload_bytes{46};
  std::uint32_t max_payload_bytes{1460};
  BestEffortArrivals arrivals{BestEffortArrivals::kPoisson};
  /// Mean on/off phase lengths in slots (kOnOff only).
  double mean_on_slots{50.0};
  double mean_off_slots{200.0};
  /// Fixed destination; nullopt = uniform random other node.
  std::optional<NodeId> destination;
};

/// Attaches a best-effort sender to one node. The source schedules itself
/// on the network's simulator until `stop()` or end of run.
class BestEffortSource {
 public:
  BestEffortSource(SimNetwork& network, NodeId node, BestEffortProfile profile,
                   std::uint64_t seed);

  /// Begins generating (first arrival is one inter-arrival time out).
  void start();

  /// Stops generating after the currently scheduled arrival.
  void stop() { running_ = false; }

  /// Kernel dispatch target (EventType::kBestEffortArrival): the next
  /// arrival fires — emit a frame and self-reschedule.
  void on_arrival();

  [[nodiscard]] std::uint64_t frames_generated() const {
    return frames_generated_;
  }

 private:
  void schedule_next();
  void emit_frame();
  /// Mean inter-arrival in ticks for the configured offered load and mean
  /// frame size (computed once).
  [[nodiscard]] double mean_interarrival_ticks() const;

  SimNetwork& network_;
  NodeId node_;
  BestEffortProfile profile_;
  Rng rng_;
  bool running_{false};
  bool on_phase_{true};
  std::uint64_t frames_generated_{0};
};

/// Convenience: attach one source per node with the same profile
/// (per-node-derived seeds) and start them all.
[[nodiscard]] std::vector<std::unique_ptr<BestEffortSource>>
attach_best_effort_everywhere(SimNetwork& network,
                              const BestEffortProfile& profile,
                              std::uint64_t seed);

}  // namespace rtether::sim
