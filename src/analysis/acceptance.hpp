#pragma once

/// @file acceptance.hpp
/// The Fig 18.5 experiment engine: feed a stream of channel requests to an
/// admission controller configured with a given DPS and count how many are
/// accepted, sweeping the number of requested channels and averaging over
/// seeds. Pure admission-control work — no packet simulation required (the
/// paper's figure is produced the same way).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/channel.hpp"
#include "traffic/master_slave.hpp"

namespace rtether::analysis {

/// One x-axis point of an acceptance curve.
struct AcceptancePoint {
  std::size_t requested{0};
  double accepted_mean{0.0};
  double accepted_min{0.0};
  double accepted_max{0.0};
};

/// A full curve for one scheme.
struct AcceptanceCurve {
  std::string scheme;
  std::vector<AcceptancePoint> points;
};

struct AcceptanceSweepConfig {
  /// x-axis: numbers of requested channels (paper: 20…200 step 20).
  std::vector<std::size_t> request_counts{20, 40,  60,  80,  100,
                                          120, 140, 160, 180, 200};
  /// Independent repetitions; curves report mean/min/max over these.
  std::uint32_t seeds{5};
  std::uint64_t base_seed{42};
};

/// Generic request-stream factory: returns the first `count` requests for
/// the given seed (a fresh, deterministic stream per seed).
using RequestStream =
    std::function<std::vector<core::ChannelSpec>(std::uint64_t seed,
                                                 std::size_t count)>;

/// Runs the sweep for one scheme over an arbitrary request stream.
/// `node_count` sizes the admission controller's network.
[[nodiscard]] AcceptanceCurve run_acceptance_sweep(
    const std::string& scheme, std::uint32_t node_count,
    const RequestStream& stream, const AcceptanceSweepConfig& config);

/// Convenience for the paper's master–slave workload.
[[nodiscard]] AcceptanceCurve run_master_slave_sweep(
    const std::string& scheme, const traffic::MasterSlaveConfig& workload,
    const AcceptanceSweepConfig& config);

/// Single-shot: accepted count after feeding `specs` in order to a fresh
/// controller running `scheme`.
[[nodiscard]] std::size_t count_accepted(
    const std::string& scheme, std::uint32_t node_count,
    const std::vector<core::ChannelSpec>& specs);

}  // namespace rtether::analysis
