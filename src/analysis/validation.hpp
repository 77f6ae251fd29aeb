#pragma once

/// @file validation.hpp
/// Guarantee validation: establish an admitted channel set over the real
/// protocol, drive periodic traffic through the simulated network —
/// optionally alongside best-effort load — and verify the paper's Eq 18.1
/// bound: every frame delivered within d_i + T_latency. The paper asserts
/// this analytically; we measure it.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"
#include "traffic/master_slave.hpp"

namespace rtether::analysis {

struct ValidationConfig {
  sim::SimConfig sim{};
  traffic::MasterSlaveConfig workload{};
  /// Channel requests to attempt (the accepted subset is simulated).
  std::size_t request_count{200};
  /// DPS scheme at the switch ("SDPS", "ADPS", ...).
  std::string scheme{"ADPS"};
  /// Simulated run length after establishment, slots.
  Slot run_slots{20'000};
  /// Release phase stagger between channels, slots (0 = synchronous worst
  /// case).
  Slot stagger_slots{0};
  /// Add best-effort cross-traffic from every node.
  bool with_best_effort{false};
  double best_effort_load{0.5};
  std::uint64_t seed{1};
};

/// Per-channel verdict.
struct ChannelValidation {
  ChannelId id;
  NodeId source;
  NodeId destination;
  Slot deadline_slots{0};
  std::uint64_t frames_sent{0};
  std::uint64_t frames_delivered{0};
  std::uint64_t deadline_misses{0};
  /// Worst observed end-to-end delay, slots.
  double worst_delay_slots{0.0};
  /// The Eq 18.1 bound d_i + T_latency, slots.
  double bound_slots{0.0};
};

struct ValidationResult {
  std::size_t channels_requested{0};
  std::size_t channels_established{0};
  std::uint64_t frames_sent{0};
  std::uint64_t frames_delivered{0};
  std::uint64_t deadline_misses{0};
  /// max over channels of worst_delay / bound (≤ 1 ⟺ guarantee held).
  double worst_delay_ratio{0.0};
  std::vector<ChannelValidation> channels;
  /// Best-effort side channel (only populated with `with_best_effort`).
  std::uint64_t best_effort_sent{0};
  std::uint64_t best_effort_delivered{0};
  double best_effort_mean_delay_slots{0.0};
  /// True when the kernel's runaway guard tripped before `run_slots`
  /// elapsed — the verdicts above are then partial and must not be trusted
  /// as a guarantee proof.
  bool sim_budget_exhausted{false};
};

/// Runs the full pipeline: establishment over the wire → periodic senders →
/// measurement. With `config.sim.edf_enabled == false` this doubles as the
/// FCFS motivational baseline (V2): same admitted traffic, no RT layer.
[[nodiscard]] ValidationResult run_guarantee_validation(
    const ValidationConfig& config);

}  // namespace rtether::analysis
