#pragma once

/// @file admission_backend.hpp
/// One front door for every admission implementation. Four EDF kinds
/// share one vocabulary (`ChannelOp` in, typed `Expected` outcomes out):
/// the reference `AdmissionController`, the batched `AdmissionEngine`, the
/// sharded `ParallelAdmissionEngine` and the resident `AdmissionService`
/// (an async front over that same sharded engine) — all contractually
/// bit-identical. The scenario runner, the benches and the examples drive
/// any implementation through the same code path, and conformance
/// campaigns can diff backends pairwise without bespoke glue.
///
/// Synchronous `submit`/`admit`/`release` work on every backend; the async
/// `submit_async → Ticket` surface is native on the service and emulated
/// (execute-then-complete) elsewhere, so callers can be written
/// ticket-first and stay backend-agnostic.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/admission.hpp"
#include "core/admission_service.hpp"
#include "core/network_state.hpp"
#include "core/partitioner.hpp"

namespace rtether::core {

class GateScheduleAdmission;

/// Tuning knobs shared by every backend; each kind reads the subset that
/// applies to it.
struct BackendConfig {
  /// The reference controller's scan. Read by the "controller" kind only:
  /// the cached kinds always scan checkpoints and decide identically.
  AdmissionConfig admission{};
  /// Worker threads for the parallel engine, and for the engine behind the
  /// resident service. Ignored by the sequential kinds.
  unsigned threads{2};
  /// Minimum admit-run length before the parallel engine shards a batch.
  std::size_t min_parallel_batch{64};
};

class AdmissionBackend {
 public:
  virtual ~AdmissionBackend() = default;

  /// Factory kind this backend was created as ("controller", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Drives a mixed admit/release stream to completion; outcomes are in
  /// per-kind submission order and bit-identical across backends.
  [[nodiscard]] virtual ChurnResult submit(std::span<const ChannelOp> ops) = 0;

  [[nodiscard]] virtual AdmitOutcome admit(const ChannelSpec& spec) = 0;
  [[nodiscard]] virtual ReleaseOutcome release(ChannelId id) = 0;

  /// True when `submit_async` completes tickets concurrently rather than
  /// inline.
  [[nodiscard]] virtual bool supports_async() const { return false; }

  /// Async submission. The default emulation executes the op synchronously
  /// and returns a pre-completed ticket, so ticket-first callers run
  /// unchanged on synchronous backends.
  [[nodiscard]] virtual Ticket submit_async(const ChannelOp& op);

  /// Blocks until all previously submitted ops have completed. No-op on
  /// synchronous backends.
  virtual void drain() {}

  /// Admitted-state snapshot / running stats; async backends drain first.
  [[nodiscard]] virtual const NetworkState& state() = 0;
  [[nodiscard]] virtual const AdmissionStats& stats() = 0;
  [[nodiscard]] virtual const DeadlinePartitioner& partitioner() const = 0;

  /// Forgets every live channel and returns the ID allocator to its
  /// initial state — the admission half of a switch reboot (volatile
  /// channel table lost; scheme and config survive in firmware).
  /// Post-reset decisions are bit-identical to a freshly constructed
  /// backend of the same kind. Running stats keep counting, except on the
  /// resident service, which resets by releasing every live channel (its
  /// `released` counter advances accordingly).
  virtual void reset() = 0;

  /// The gate-schedule synthesizer when this backend is the "tt" kind —
  /// lets the simulator install the admitted gate tables. nullptr on the
  /// EDF kinds.
  [[nodiscard]] virtual const GateScheduleAdmission* gate_schedule() const {
    return nullptr;
  }
};

/// The EDF factory kinds, in the order conformance campaigns run them. All
/// four are contractually bit-identical to the reference controller; the
/// rival "tt" scheme is a factory kind too, but deliberately not listed
/// here — its decisions differ by design.
[[nodiscard]] std::span<const std::string_view> backend_kinds();

/// Creates a backend:
///   "controller" — the reference `AdmissionController`, one op at a time;
///   "batched"    — `AdmissionEngine::process` (each run of admits
///                  shares one per-link pre-pass, releases in place);
///   "parallel"   — `ParallelAdmissionEngine::process`;
///   "service"    — resident `AdmissionService` (native async, bursts
///                  through `ParallelAdmissionEngine::process`);
///   "tt"         — `GateScheduleAdmission`, the time-triggered rival
///                  scheme (gate-window synthesis instead of EDF demand
///                  bounds; decisions intentionally differ from the four
///                  EDF kinds).
/// Returns nullptr for an unknown kind.
[[nodiscard]] std::unique_ptr<AdmissionBackend> make_admission_backend(
    std::string_view kind, std::uint32_t node_count,
    std::unique_ptr<DeadlinePartitioner> partitioner,
    const BackendConfig& config = {});

}  // namespace rtether::core
