#pragma once

/// @file generator.hpp
/// Seed → ScenarioSpec. One 64-bit seed deterministically expands into a
/// topology (star or multi-switch line/tree), a DPS scheme, a channel
/// workload (uniform peer-to-peer, master/slave in either or mixed
/// direction, bursty best-effort coexistence, admit/release churn) and the
/// simulation-phase parameters. The mapping is pure: the same seed and
/// config always produce the identical spec, which is what makes a failing
/// campaign seed a complete bug report.

#include <cstdint>

#include "scenario/spec.hpp"

namespace rtether::scenario {

/// Which workload family mix a campaign draws from.
enum class GeneratorProfile : std::uint8_t {
  /// Uniform draw over all styles (uniform / master-slave / bursty / churn).
  kMixed,
  /// Steady-state admit/release churn at high link load: every scenario
  /// pins the churn style, releases fire as often as admits once channels
  /// are live, and releases always target a *live* channel so the stream
  /// stays at saturation instead of draining. Exercises the release
  /// downdate path of every engine (negative paths stay enabled).
  kChurnHeavy,
  /// Every scenario carries a fault plan (1–3 events drawn across all six
  /// classes, at most one structural reboot/crash) on a simulated star with
  /// a run long enough for the windows to open and close. Exercises the
  /// survival contract and the recovery paths; the calculus oracle still
  /// audits every admission decision.
  kFaultHeavy,
  /// Every scenario pins `scheme = "TT"`: admission is offline gate-table
  /// synthesis and the simulation runs the slot-accurate time-triggered
  /// wire under the zero-miss / zero-jitter contract. Star topology only
  /// (there is no multihop gate synthesis) and windowed faults only (the
  /// reboot recovery protocol is an EDF-scheme behavior).
  kTimeTriggered,
  /// Every scenario is a simulated multi-switch fabric (line/tree with
  /// trunk links) driven through the partitioned parallel kernel: channel
  /// pairs are biased cross-switch so trunks carry real traffic, deadlines
  /// are drawn loose enough for multi-hop routes to admit, and a third of
  /// the scenarios carry a windowed fault garnish. Scales to 1k–10k-node
  /// fabrics via `min_nodes`/`max_nodes`/`max_switches`. Like the other
  /// special profiles its seed expansion diverges from kMixed; the
  /// existing profiles' streams stay byte-identical.
  kFabric,
};

/// Bounds on what the generator may produce. Defaults are sized so a
/// scenario runs in ~1 ms through the reference admission path, the
/// `RunnerOptions::backends` and the simulator — small enough for
/// 10k-scenario campaigns, large enough to reach saturated links, churned
/// IDs and multi-hop routes.
struct GeneratorConfig {
  GeneratorProfile profile{GeneratorProfile::kMixed};
  std::uint32_t min_nodes{3};
  std::uint32_t max_nodes{12};
  /// Multi-switch scenarios draw 2…max_switches switches.
  std::uint32_t max_switches{4};
  std::size_t min_ops{4};
  std::size_t max_ops{36};
  /// Probability a scenario is multi-switch (line/tree) rather than star.
  double multiswitch_probability{0.25};
  /// Generate deliberately malformed requests (invalid {P,C,d}, unknown
  /// nodes) and bogus releases (unknown IDs, double teardown) so rejection
  /// paths are fuzzed with the same weight as accept paths.
  bool allow_negative_paths{true};
  bool allow_best_effort{true};
  /// Simulation run length is drawn from [100, max_run_slots].
  Slot max_run_slots{400};
};

/// Expands `seed` into a scenario within `config`'s bounds.
[[nodiscard]] ScenarioSpec generate_scenario(const GeneratorConfig& config,
                                             std::uint64_t seed);

}  // namespace rtether::scenario
