#pragma once

/// @file admission_service.hpp
/// Resident admission service: an asynchronous front over
/// `ParallelAdmissionEngine`. Producers push admit/release ops from any
/// number of threads into a lock-free MPSC ring and get back a `Ticket`
/// that completes asynchronously. One dispatcher thread owns the engine:
/// it parks until the ring has work, takes everything already queued (up
/// to one ring's worth) as one burst, runs the burst through the engine's
/// `process` — which shards it by link-conflict component across the
/// engine's worker pool — and completes the burst's tickets in dequeue
/// order.
///
/// The linearization point of every op is the dispatcher's dequeue from the
/// ingest ring. `process` is decision-identical to a sequential replay of
/// its ops, so decisions, assigned channel IDs, rejection diagnostics and
/// final stats are bit-identical to replaying the ops in dequeue order
/// through the sequential `AdmissionController`.
///
/// Partitioner contract (same as the parallel engine): `candidates()` must
/// be a pure function of the spec and the two touched link directions —
/// true for SDPS/ADPS/UDPS/Search. One partitioner instance is shared by
/// all workers concurrently.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/admission.hpp"
#include "core/network_state.hpp"
#include "core/partitioner.hpp"

namespace rtether::core {

namespace service_detail {
struct TicketState;
}  // namespace service_detail

/// Tuning knobs for `AdmissionService`.
struct AdmissionServiceConfig {
  AdmissionConfig admission{};
  /// Worker threads of the resident engine's pool; at least one selects
  /// resident mode. 0 selects inline mode: no threads, ops complete
  /// synchronously inside `submit_async` via an internal `AdmissionEngine`.
  unsigned workers{0};
  /// Ingest ring capacity (producers block when full); also the largest
  /// burst the dispatcher hands the engine at once.
  std::size_t queue_capacity{4096};
};

/// Completion handle for one submitted op. Copyable (shared state); `wait`
/// blocks until the service retires the op. Tickets remain valid after the
/// service is destroyed (destruction drains all in-flight ops first).
/// The class itself is `[[nodiscard]]`: a dropped ticket is a completion
/// that can never be observed, so discarding `submit_async`'s return is
/// almost certainly a bug (cast to void to fire-and-forget deliberately).
class [[nodiscard]] Ticket {
 public:
  Ticket() = default;

  /// False for default-constructed tickets only.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const;
  /// Blocks until the op retires. No-op if already done.
  void wait() const;

  /// Registers `fn` to run exactly once when the op completes, after the
  /// outcome is readable. If the op already retired, `fn` runs inline
  /// before this returns; otherwise it runs on the service's retiring
  /// thread — keep it short, non-blocking, and do not call back into the
  /// service from it. One callback per op (ticket copies share it).
  void on_complete(std::function<void()> fn) const;

  /// Position of the op in the service's linearization order (the
  /// dispatcher's dequeue sequence). Valid once `done()`.
  [[nodiscard]] std::uint64_t sequence() const;
  [[nodiscard]] ChannelOp::Kind kind() const;
  /// The admit verdict; requires `done()` and `kind() == kAdmit`.
  [[nodiscard]] const AdmitOutcome& admit_outcome() const;
  /// The release verdict; requires `done()` and `kind() == kRelease`.
  [[nodiscard]] const ReleaseOutcome& release_outcome() const;

  /// Pre-completed tickets, for synchronous backends fronting the async API.
  [[nodiscard]] static Ticket completed(AdmitOutcome outcome);
  [[nodiscard]] static Ticket completed(ReleaseOutcome outcome);

 private:
  friend class AdmissionService;
  explicit Ticket(std::shared_ptr<service_detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<service_detail::TicketState> state_;
};

class AdmissionService {
 public:
  enum class Mode : std::uint8_t {
    kInline,    ///< no threads; ops complete inside submit_async
    kResident,  ///< dispatcher + engine worker pool, async completion
  };

  AdmissionService(std::uint32_t node_count,
                   std::unique_ptr<DeadlinePartitioner> partitioner,
                   AdmissionServiceConfig config = {});

  /// Drains all in-flight ops, then stops and joins every thread. Every
  /// ticket ever returned is completed by the time this returns.
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Enqueues one op; thread-safe from any number of producers. Blocks only
  /// when the ingest ring is full (backpressure). The returned ticket
  /// completes when the op retires.
  [[nodiscard]] Ticket submit_async(const ChannelOp& op);

  /// Submits a mixed op stream and waits for all of it; results are in
  /// per-kind submission order, exactly like the other backends.
  [[nodiscard]] ChurnResult submit(std::span<const ChannelOp> ops);

  /// Convenience synchronous wrappers over `submit_async` + `wait`.
  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec);
  [[nodiscard]] ReleaseOutcome release(ChannelId id);

  /// Blocks until every op submitted *before this call* has retired.
  /// Callers must quiesce their own producers first if they need a stable
  /// point-in-time state.
  void drain();

  /// Authoritative admitted state / running stats. Both drain first, so
  /// they reflect every op submitted before the call; concurrent producers
  /// make the snapshot racy (quiesce first), hence non-const.
  [[nodiscard]] const NetworkState& state();
  [[nodiscard]] const AdmissionStats& stats();

  [[nodiscard]] const DeadlinePartitioner& partitioner() const;
  [[nodiscard]] Mode mode() const;
  [[nodiscard]] unsigned worker_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtether::core
