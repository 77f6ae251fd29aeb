#include "core/admission_service.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/mpsc_queue.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "core/parallel_admission.hpp"

namespace rtether::core {

namespace service_detail {

/// Two-party callback handoff phases: the installer (`on_complete`) and the
/// completer (the retiring thread) each `exchange` the phase, and exactly
/// one of them observes the other's value — that side runs the callback.
inline constexpr std::uint8_t kCallbackNone = 0;
inline constexpr std::uint8_t kCallbackInstalled = 1;
inline constexpr std::uint8_t kCallbackCompleted = 2;

/// Shared completion state behind a `Ticket`. The retiring dispatcher (or
/// the inline path) fills the outcome, then release-stores `done`; readers
/// acquire-load `done` before touching anything else. `callback` is written
/// by the installer before its phase exchange (release) and read only after
/// an acquire exchange observes `kCallbackInstalled`.
struct TicketState {
  std::atomic<bool> done{false};
  std::atomic<std::uint8_t> callback_phase{kCallbackNone};
  std::function<void()> callback;
  std::uint64_t sequence{0};
  ChannelOp::Kind kind{ChannelOp::Kind::kAdmit};
  // Expected has no default constructor, hence optional.
  std::optional<AdmitOutcome> admit;
  std::optional<ReleaseOutcome> release;
};

}  // namespace service_detail

using service_detail::TicketState;

namespace {

void complete(TicketState& ticket) {
  ticket.done.store(true, std::memory_order_release);
  ticket.done.notify_all();
  // Completer side of the callback handoff (see TicketState).
  const std::uint8_t prev = ticket.callback_phase.exchange(
      service_detail::kCallbackCompleted, std::memory_order_acq_rel);
  if (prev == service_detail::kCallbackInstalled) {
    ticket.callback();
  }
}

std::shared_ptr<TicketState> completed_state(ChannelOp::Kind kind) {
  auto state = std::make_shared<TicketState>();
  state->kind = kind;
  state->done.store(true, std::memory_order_relaxed);
  state->callback_phase.store(service_detail::kCallbackCompleted,
                              std::memory_order_relaxed);
  return state;
}

}  // namespace

bool Ticket::done() const {
  RTETHER_ASSERT(state_ != nullptr);
  return state_->done.load(std::memory_order_acquire);
}

void Ticket::wait() const {
  RTETHER_ASSERT(state_ != nullptr);
  while (!state_->done.load(std::memory_order_acquire)) {
    state_->done.wait(false, std::memory_order_acquire);
  }
}

void Ticket::on_complete(std::function<void()> fn) const {
  RTETHER_ASSERT(state_ != nullptr);
  RTETHER_ASSERT_MSG(fn != nullptr, "null completion callback");
  state_->callback = std::move(fn);
  // Installer side of the callback handoff (see TicketState).
  const std::uint8_t prev = state_->callback_phase.exchange(
      service_detail::kCallbackInstalled, std::memory_order_acq_rel);
  RTETHER_ASSERT_MSG(prev != service_detail::kCallbackInstalled,
                     "one completion callback per op");
  if (prev == service_detail::kCallbackCompleted) {
    state_->callback();
  }
}

std::uint64_t Ticket::sequence() const {
  RTETHER_ASSERT(done());
  return state_->sequence;
}

ChannelOp::Kind Ticket::kind() const {
  RTETHER_ASSERT(state_ != nullptr);
  return state_->kind;
}

const AdmitOutcome& Ticket::admit_outcome() const {
  RTETHER_ASSERT(done());
  RTETHER_ASSERT_MSG(state_->admit.has_value(),
                     "admit_outcome() on a release ticket");
  return *state_->admit;
}

const ReleaseOutcome& Ticket::release_outcome() const {
  RTETHER_ASSERT(done());
  RTETHER_ASSERT_MSG(state_->release.has_value(),
                     "release_outcome() on an admit ticket");
  return *state_->release;
}

Ticket Ticket::completed(AdmitOutcome outcome) {
  auto state = completed_state(ChannelOp::Kind::kAdmit);
  state->admit.emplace(std::move(outcome));
  return Ticket(std::move(state));
}

Ticket Ticket::completed(ReleaseOutcome outcome) {
  auto state = completed_state(ChannelOp::Kind::kRelease);
  state->release.emplace(std::move(outcome));
  return Ticket(std::move(state));
}

// ---------------------------------------------------------------------------

struct AdmissionService::Impl {
  /// One op travelling through the ingest ring. A null ticket is the
  /// destructor's stop marker, queued behind every op a producer submitted.
  struct IngestOp {
    ChannelOp op{};
    std::shared_ptr<TicketState> ticket;
  };

  // -- construction-time configuration (immutable afterwards) --------------
  AdmissionServiceConfig config;
  Mode mode;
  const DeadlinePartitioner* partitioner{nullptr};
  std::optional<AdmissionEngine> inline_engine;  // inline mode
  std::uint64_t inline_seq{0};

  // -- cross-thread signalling ---------------------------------------------
  std::optional<MpscQueue<IngestOp>> ingest;
  std::thread dispatcher;
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> retired_published{0};
  Eventcount retired_event;

  // -- dispatcher-owned state (no locks: one thread) -----------------------
  // `dispatcher_role` is a zero-cost capability (common/sync.hpp): the
  // dispatcher thread holds it for its lifetime, every function touching
  // the fields below is REQUIRES(dispatcher_role), and Clang
  // `-Wthread-safety` statically proves no producer code path can reach
  // them.
  ThreadRole dispatcher_role;
  /// The resident engine: every ingest burst runs through its `process`,
  /// which shards the burst across its pool of `config.workers` threads.
  std::optional<ParallelAdmissionEngine> engine GUARDED_BY(dispatcher_role);
  std::uint64_t next_seq GUARDED_BY(dispatcher_role){0};

  Impl(std::uint32_t nodes, std::unique_ptr<DeadlinePartitioner> part,
       AdmissionServiceConfig cfg)
      : config(cfg), mode(cfg.workers >= 1 ? Mode::kResident : Mode::kInline) {
    if (mode == Mode::kInline) {
      partitioner =
          &inline_engine.emplace(nodes, std::move(part)).partitioner();
      return;
    }
    partitioner =
        &engine
             .emplace(nodes, std::move(part),
                      ParallelAdmissionConfig{cfg.workers})
             .partitioner();
    ingest.emplace(cfg.queue_capacity);
    dispatcher = std::thread([this] { dispatcher_loop(); });
  }

  ~Impl() {
    if (mode == Mode::kInline) {
      return;
    }
    ingest->push(IngestOp{});
    dispatcher.join();
  }

  /// Decides one burst through the engine and completes its tickets in
  /// dequeue order.
  void run_burst(std::span<const ChannelOp> ops,
                 std::span<const std::shared_ptr<TicketState>> tickets)
      REQUIRES(dispatcher_role) {
    ChurnResult churn = engine->process(ops);
    std::size_t admit = 0;
    std::size_t release = 0;
    for (const auto& ticket : tickets) {
      if (ticket->kind == ChannelOp::Kind::kAdmit) {
        ticket->admit.emplace(std::move(churn.admissions[admit++]));
      } else {
        ticket->release.emplace(std::move(churn.releases[release++]));
      }
      complete(*ticket);
    }
    retired_published.store(next_seq, std::memory_order_release);
    retired_event.notify();
  }

  void dispatcher_loop() {
    // The dispatcher thread owns the engine for its lifetime.
    ThreadRoleGuard role(dispatcher_role);
    std::vector<ChannelOp> ops;
    std::vector<std::shared_ptr<TicketState>> tickets;
    IngestOp in;
    for (bool running = true; running;) {
      // Park for the first op, then take whatever else is already queued
      // (up to one ring's worth) into the same engine batch.
      ingest->pop(in);
      do {
        if (in.ticket == nullptr) {
          running = false;
          break;
        }
        // This dequeue is the op's linearization point.
        in.ticket->sequence = next_seq++;
        ops.push_back(in.op);
        tickets.push_back(std::move(in.ticket));
      } while (ops.size() < config.queue_capacity && ingest->try_pop(in));
      if (!ops.empty()) {
        run_burst(ops, tickets);
        ops.clear();
        tickets.clear();
      }
    }
  }

  Ticket submit_async(const ChannelOp& op) {
    auto ticket_state = std::make_shared<TicketState>();
    ticket_state->kind = op.kind;
    if (mode == Mode::kInline) {
      ticket_state->sequence = inline_seq++;
      if (op.kind == ChannelOp::Kind::kAdmit) {
        ticket_state->admit.emplace(inline_engine->admit(op.spec));
      } else {
        ticket_state->release.emplace(inline_engine->release(op.id));
      }
      complete(*ticket_state);
      return Ticket(std::move(ticket_state));
    }
    submitted.fetch_add(1, std::memory_order_seq_cst);
    ingest->push(IngestOp{op, ticket_state});
    return Ticket(std::move(ticket_state));
  }

  void drain() {
    if (mode == Mode::kInline) {
      return;
    }
    const std::uint64_t target = submitted.load(std::memory_order_seq_cst);
    while (retired_published.load(std::memory_order_acquire) < target) {
      const auto ticket = retired_event.prepare_wait();
      if (retired_published.load(std::memory_order_acquire) >= target) {
        retired_event.cancel_wait();
        break;
      }
      retired_event.wait(ticket);
    }
  }
};

// ---------------------------------------------------------------------------

AdmissionService::AdmissionService(
    std::uint32_t node_count, std::unique_ptr<DeadlinePartitioner> partitioner,
    AdmissionServiceConfig config)
    : impl_(std::make_unique<Impl>(node_count, std::move(partitioner),
                                   config)) {}

AdmissionService::~AdmissionService() = default;

Ticket AdmissionService::submit_async(const ChannelOp& op) {
  return impl_->submit_async(op);
}

ChurnResult AdmissionService::submit(std::span<const ChannelOp> ops) {
  if (impl_->mode == Mode::kInline) {
    return impl_->inline_engine->process(ops);
  }
  std::vector<Ticket> tickets;
  tickets.reserve(ops.size());
  std::size_t admits = 0;
  for (const ChannelOp& op : ops) {
    tickets.push_back(submit_async(op));
    admits += op.kind == ChannelOp::Kind::kAdmit ? 1 : 0;
  }
  ChurnResult result;
  result.admissions.reserve(admits);
  result.releases.reserve(ops.size() - admits);
  for (const Ticket& ticket : tickets) {
    ticket.wait();
    // These tickets never leave this call, so their outcomes move out.
    TicketState& state = *ticket.state_;
    if (state.kind == ChannelOp::Kind::kAdmit) {
      result.admissions.push_back(std::move(*state.admit));
    } else {
      result.releases.push_back(std::move(*state.release));
    }
  }
  return result;
}

AdmitOutcome AdmissionService::admit(const ChannelSpec& spec) {
  const Ticket ticket = submit_async(ChannelOp::admit(spec));
  ticket.wait();
  return ticket.admit_outcome();
}

ReleaseOutcome AdmissionService::release(ChannelId id) {
  const Ticket ticket = submit_async(ChannelOp::release(id));
  ticket.wait();
  return ticket.release_outcome();
}

void AdmissionService::drain() { impl_->drain(); }

// Analysis opt-out: these snapshots read dispatcher-owned state from the
// caller's thread. `drain()` is the out-of-band synchronization — it blocks
// until every previously submitted op has retired, and the header requires
// callers to quiesce their producers first, so the dispatcher is parked
// (not mutating) while the reference is used.
const NetworkState& AdmissionService::state() NO_THREAD_SAFETY_ANALYSIS {
  if (impl_->mode == Mode::kInline) {
    return impl_->inline_engine->state();
  }
  impl_->drain();
  return impl_->engine->state();
}

const AdmissionStats& AdmissionService::stats() NO_THREAD_SAFETY_ANALYSIS {
  if (impl_->mode == Mode::kInline) {
    return impl_->inline_engine->stats();
  }
  impl_->drain();
  return impl_->engine->stats();
}

const DeadlinePartitioner& AdmissionService::partitioner() const {
  return *impl_->partitioner;
}

AdmissionService::Mode AdmissionService::mode() const { return impl_->mode; }

unsigned AdmissionService::worker_count() const {
  return impl_->mode == Mode::kInline ? 0 : impl_->config.workers;
}

}  // namespace rtether::core
