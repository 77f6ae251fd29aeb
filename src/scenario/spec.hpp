#pragma once

/// @file spec.hpp
/// `ScenarioSpec` — a complete, self-contained description of one
/// conformance scenario: a topology, a DPS scheme, an ordered admit/release
/// op stream and the simulation phase parameters. Specs are plain data:
/// value-comparable (the shrinker mutates copies), JSON round-trippable
/// (json_io.hpp) and replayable from a single 64-bit seed (generator.hpp).
///
/// The scenario subsystem exists because the paper's central claim —
/// analytic per-link EDF admission (Eqs 18.2–18.5) *implies* zero deadline
/// misses on the wire (Eq 18.1) — is a property of every reachable system
/// state, not of the handful of hand-written integration scenarios. The
/// fuzzing engine generates randomized topologies and workloads, runs them
/// through every admission path the library offers, and checks the
/// two-sided oracle end-to-end (runner.hpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/channel.hpp"
#include "core/topology.hpp"
#include "sim/fault.hpp"

namespace rtether::scenario {

/// Shape of the switching fabric.
enum class TopologyKind : std::uint8_t {
  kStar,        ///< the paper's single switch (the reference admission
                ///< path plus `RunnerOptions::backends` run)
  kSwitchLine,  ///< switches in a line, nodes round-robin (multihop path)
  kSwitchTree,  ///< a binary tree of switches, nodes round-robin (multihop)
};

[[nodiscard]] const char* to_string(TopologyKind kind);

/// True when `scheme` names a scheme the runner can execute: one of the
/// four DPS names ("SDPS", "ADPS", "UDPS", "Search") or the time-triggered
/// gate-schedule scheme ("TT"). Anything else is a malformed spec — the
/// JSON loader and the runner both reject it instead of silently falling
/// back to a default scheme.
[[nodiscard]] bool known_scheme(std::string_view scheme);

struct TopologySpec {
  TopologyKind kind{TopologyKind::kStar};
  /// Switch count; forced to 1 for kStar.
  std::uint32_t switches{1};
  /// Total end-nodes, attached round-robin (node n → switch n % switches).
  std::uint32_t nodes{4};

  /// Materializes the fabric for the multihop admission path.
  [[nodiscard]] core::Topology build() const;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// One step of the scenario's op stream.
struct ScenarioOp {
  enum class Kind : std::uint8_t { kAdmit, kRelease };

  /// `target` value meaning "release a raw, never-assigned channel ID"
  /// (negative-path fuzzing: teardown of unknown channels must be refused
  /// by every engine, identically).
  static constexpr std::uint32_t kNoTarget = 0xffffffffU;

  Kind kind{Kind::kAdmit};
  /// kAdmit: the requested contract (may be deliberately invalid — the
  /// generator emits malformed specs and unknown nodes so rejection paths
  /// are fuzzed too).
  core::ChannelSpec spec{};
  /// kRelease: index (into the op stream) of the admit op whose channel to
  /// release, or kNoTarget to release `raw_id` directly. Releasing the
  /// channel of a *rejected* admit resolves to `raw_id` as well.
  std::uint32_t target{kNoTarget};
  /// kRelease with kNoTarget (or a rejected target): the ID to tear down.
  std::uint16_t raw_id{0};

  [[nodiscard]] static ScenarioOp admit(const core::ChannelSpec& spec) {
    ScenarioOp op;
    op.kind = Kind::kAdmit;
    op.spec = spec;
    return op;
  }
  [[nodiscard]] static ScenarioOp release_of(std::uint32_t admit_index) {
    ScenarioOp op;
    op.kind = Kind::kRelease;
    op.target = admit_index;
    return op;
  }
  [[nodiscard]] static ScenarioOp release_raw(std::uint16_t id) {
    ScenarioOp op;
    op.kind = Kind::kRelease;
    op.raw_id = id;
    return op;
  }

  friend bool operator==(const ScenarioOp&, const ScenarioOp&) = default;
};

/// A full scenario. Everything the runner needs, nothing it infers.
struct ScenarioSpec {
  /// The seed that generated this spec (replay handle; 0 for hand-written
  /// corpus entries).
  std::uint64_t seed{0};
  /// Optional human-readable tag for corpus entries and reports.
  std::string name;

  TopologySpec topology{};
  /// Admission scheme. The EDF schemes "SDPS", "ADPS", "UDPS" and "Search"
  /// run the star engines (the multihop path maps them to their SDPS/ADPS
  /// k-hop generalization); "TT" runs the time-triggered gate-schedule
  /// backend instead (star only, zero-jitter contract). Must satisfy
  /// `known_scheme`.
  std::string scheme{"ADPS"};
  std::vector<ScenarioOp> ops;

  // --- Simulation phase (star topologies only) ---------------------------
  /// Drive the admitted set through the slot-accurate simulator and check
  /// Eq 18.1 per delivered frame.
  bool simulate{true};
  /// Simulated run length after establishment, slots.
  Slot run_slots{300};
  /// Simulator granularity.
  Tick ticks_per_slot{16};
  /// Best-effort cross-traffic from every node during the run.
  bool with_best_effort{false};
  double best_effort_load{0.0};
  /// Bursty (on/off) rather than Poisson best-effort arrivals.
  bool bursty_best_effort{false};
  /// Deterministic fault plan, replayed during the simulation phase.
  /// Ordered by `at_slot`; windows are relative to the measured run's
  /// start. Requires `simulate` — the survival contract (runner.hpp) is
  /// defined over the simulated wire. Windowed kinds run on any topology;
  /// structural and management kinds require the star (they act through
  /// its establishment protocol).
  std::vector<sim::FaultEvent> faults;

  /// Number of admit ops in the stream.
  [[nodiscard]] std::size_t admit_count() const;

  /// Structural sanity (indices in range, release targets point at admit
  /// ops, topology non-empty). The runner refuses malformed specs; the
  /// generator and shrinker only produce well-formed ones.
  [[nodiscard]] bool well_formed() const;

  [[nodiscard]] std::string summary() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

}  // namespace rtether::scenario
