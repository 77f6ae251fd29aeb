#pragma once

/// @file runner.hpp
/// Executes one ScenarioSpec through every admission path the library
/// offers and checks the two-sided conformance oracle:
///
///   1. **Agreement** — the sequential `AdmissionController` and every
///      configured `core::AdmissionBackend` kind (batched engine, sharded
///      parallel engine, resident admission service, ...) must produce
///      bit-identical outcomes on the same op stream: same
///      accepts/rejects, same channel IDs, same deadline partitions, same
///      rejection reasons *and diagnostic strings*. The multihop
///      `PathAdmissionController` runs the same stream over the scenario's
///      fabric and must uphold its own invariants (generalized Eqs
///      18.8/18.9, per-hop feasibility, residue-free rejection); on star
///      topologies under SDPS with even deadlines it must also match the
///      classic controller decision-for-decision (the documented
///      equivalence).
///   2. **Guarantee** — for star scenarios the surviving channel set is
///      established over the real management protocol (`proto::Stack`,
///      which must agree with the analytic decisions, IDs and uplink
///      deadlines — the wire is the fourth witness) and driven through the
///      slot-accurate simulator, optionally against best-effort
///      cross-traffic: every frame of every admitted channel must arrive
///      within d_i + T_latency (Eq 18.1), with zero losses.
///   3. **Survival** — scenarios with a fault plan (`spec.faults`) replay
///      it against the simulated wire: windowed faults (link down, frame
///      loss, CRC corruption, management delay) act through the
///      transmitter fault hooks, structural faults (switch reboot, node
///      crash) run their recovery protocol between simulation segments.
///      The contract: deadline misses stay zero for *every* channel
///      (faults only remove load from the EDF schedule), channels outside
///      every fault's scope stay loss-free, faulted channels account for
///      every frame exactly (sent == delivered + dropped), and post-reboot
///      re-registration is bit-identical to admitting the same channels on
///      a fresh controller.
///   TT scenarios (`spec.scheme == "TT"`) run the same star pipeline with
///   a different reference: `core::GateScheduleAdmission` runs the op
///   stream with a per-accept placement audit (offsets in bounds,
///   store-and-forward ordering, pairwise gcd-residue conflict-freedom),
///   the "tt" `AdmissionBackend` must match it bit-identically, and the
///   shared simulation phase also installs the admitted gate tables into
///   every transmitter and adds the scheme's own contract on top of the
///   survival one: zero delivery jitter — every frame position's delivery
///   delay is identical in every period.
///
///   4. **Calculus cross-check** — every reference admission decision is
///      audited by the independent `analysis::CalculusOracle`: an accept
///      must satisfy the network-calculus necessary condition, and an
///      infeasibility rejection must not contradict the calculus
///      sufficient condition. Either way a violation is a replayable
///      scenario failure, not a process abort.
///
/// The runner additionally audits every DPS candidate against Eqs
/// 18.8/18.9 *before* the engines see it. The engines enforce those
/// equations with a hard assert (admission is a safety property); the audit
/// turns "a broken partitioner aborts the process" into "a broken
/// partitioner fails the scenario with a replayable seed", which is what
/// lets the shrinker minimize such bugs — see the off-by-one demo in
/// tests/scenario/test_scenario_shrinker.cpp.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/multihop.hpp"
#include "core/partitioner.hpp"
#include "scenario/spec.hpp"
#include "sim/fault.hpp"

namespace rtether::scenario {

enum class ViolationKind : std::uint8_t {
  kMalformedSpec,         ///< spec failed ScenarioSpec::well_formed()
  kPartitionInvariant,    ///< DPS candidate violates Eq 18.8/18.9
  kPathSplitInvariant,    ///< k-hop split violates generalized Eq 18.8/18.9
  kEngineDisagreement,    ///< engines diverge on outcome/ID/diagnostics
  kReleaseDisagreement,   ///< engines diverge on a teardown result
  kMultihopParity,        ///< multihop vs classic decision mismatch (SDPS)
  kStateInconsistent,     ///< live-channel registries out of sync
  kInfeasibleState,       ///< a committed link fails the EDF test
  kStackDivergence,       ///< wire-protocol outcome != analytic outcome
  kDeadlineMiss,          ///< simulation: frame late (Eq 18.1 violated)
  kFrameLoss,             ///< simulation: RT frame sent but never delivered
  kSimBudgetExhausted,    ///< simulation: kernel runaway guard tripped
  kFaultContract,         ///< fault survival contract broken (see below)
  kReadmissionDivergence, ///< post-reboot re-admission != fresh admission
  kCalculusViolation,     ///< EDF accept breaks the calculus lower bound
  kCalculusDisagreement,  ///< EDF reject despite calculus-proven feasibility
  kGateConflict,          ///< TT gate placement conflicts or breaks bounds
  kJitterViolation,       ///< TT delivery jitter nonzero (zero by design)
};

[[nodiscard]] const char* to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  /// Op index the violation surfaced at; SIZE_MAX for end-of-run checks.
  std::size_t op_index{static_cast<std::size_t>(-1)};
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Compact fingerprint of the simulation phase. The determinism suite and
/// the golden-stat pins compare these field-for-field: a kernel refactor
/// that shifts event ordering, per-link service order or miss accounting in
/// any way shows up as a digest mismatch with a replayable spec. All fields
/// are zero when the simulation phase did not run.
struct SimDigest {
  /// Events the kernel executed, including the post-stop drain.
  std::uint64_t executed_events{0};
  std::uint64_t rt_delivered{0};
  std::uint64_t deadline_misses{0};
  std::uint64_t best_effort_sent{0};
  std::uint64_t best_effort_delivered{0};
  /// FNV-1a over every per-link transmitter counter (node uplinks then
  /// switch ports, in node order), the switch counters, and the per-channel
  /// delivery records including delay statistics bit patterns.
  std::uint64_t link_stats_hash{0};

  friend bool operator==(const SimDigest&, const SimDigest&) = default;
};

struct ScenarioResult {
  bool passed{false};
  std::vector<Violation> violations;
  // Bookkeeping for reports and the campaign's throughput metrics.
  std::size_t admitted{0};
  std::size_t rejected{0};
  std::size_t released{0};
  std::uint64_t frames_delivered{0};
  /// Slots of simulated time this scenario executed (0 when sim skipped).
  std::uint64_t simulated_slots{0};
  /// Simulation fingerprint (all-zero when the sim phase was skipped).
  SimDigest sim_digest;
  /// Worst per-position delivery-delay spread (ticks) across the surviving
  /// channels: frame position j of a period is compared only against
  /// position j of other periods, the same measure the TT zero-jitter
  /// audit enforces at 0. Recorded for TT runs always, for EDF runs only
  /// under `RunnerOptions::record_jitter` (the ablation bench's metric);
  /// 0 otherwise.
  std::uint64_t worst_jitter_ticks{0};
  /// Per-fault-class injection counts (frames affected for windowed
  /// classes, occurrences for structural ones); all zero without a fault
  /// plan. Campaigns aggregate these to prove every class was exercised.
  std::array<std::uint64_t, sim::kFaultKindCount> fault_injections{};
  /// Partitions of the fabric simulation phase (multi-switch scenarios
  /// with `simulate`; 0 otherwise) and the records that crossed its
  /// cut links — the bench's partitioning/communication metrics.
  std::size_t fabric_partitions{0};
  std::uint64_t cut_link_records{0};
  /// Calculus-oracle consultations this scenario triggered (necessary
  /// checks on accepts, sufficiency checks on infeasibility rejections).
  std::uint64_t oracle_checks{0};

  [[nodiscard]] std::string summary() const;
};

/// Dependency-injection points, used by the fault-demo tests to plant
/// deliberately broken components and watch the oracle catch them.
struct RunnerOptions {
  /// Star-engine DPS factory; defaults to `core::make_partitioner`.
  std::function<std::unique_ptr<core::DeadlinePartitioner>(
      const std::string& scheme)>
      partitioner_factory;
  /// Multihop split factory; defaults to mapping SDPS→SDPS, else ADPS.
  std::function<std::unique_ptr<core::PathPartitioner>(
      const std::string& scheme)>
      path_partitioner_factory;
  /// Worker threads for the parallel/service backends (their decisions are
  /// thread-count independent; 2 keeps the sharded paths honest without
  /// oversubscribing campaign workers).
  unsigned parallel_threads{2};
  /// Worker threads for the fabric simulation phase of multi-switch
  /// scenarios (sim/parallel.hpp). 0 runs the same barrier rounds inline
  /// on the caller — the sequential baseline; any value produces the
  /// bit-identical SimDigest (the determinism suite pins this).
  unsigned fabric_threads{0};
  /// `core::AdmissionBackend` kinds checked against the reference
  /// controller on star scenarios (see `core::make_admission_backend`).
  /// The campaign's `--backend service` mode appends "service".
  std::vector<std::string> backends{"batched", "parallel"};
  /// Run the simulation phases: the star simulation and the fabric
  /// simulation of multi-switch scenarios (the campaign's pure admission
  /// mode turns this off for breadth-first sweeps).
  bool run_simulation{true};
  /// Record per-delivery delays in the EDF simulation phase and report
  /// `ScenarioResult::worst_jitter_ticks`. Off by default — the vector
  /// grows one entry per delivered frame, a cost campaigns must not pay.
  /// TT runs record regardless (their jitter audit needs the delays).
  bool record_jitter{false};
};

/// Runs one scenario; stops at the first violation (a failing scenario is a
/// bug report, not a survey).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const RunnerOptions& options = {});

}  // namespace rtether::scenario
