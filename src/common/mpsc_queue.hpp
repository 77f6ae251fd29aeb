#pragma once

/// @file mpsc_queue.hpp
/// Lock-free bounded op queue + eventcount parking, the ingest ring of
/// `core::AdmissionService` (many producers, one dispatcher that takes each
/// burst of queued ops into its admission engine). Two pieces:
///
///   * `Eventcount` — a futex-backed condition without a mutex. Waiters
///     follow the prepare/recheck/wait protocol; notifiers pay two relaxed
///     atomic ops when nobody is parked (the common case on a hot queue),
///     and only touch the futex when a waiter is registered.
///   * `MpscQueue<T>` — a bounded Vyukov-style ring (per-cell sequence
///     numbers) with multi-producer `try_push`/`push` and single-consumer
///     `try_pop`/`pop`. Positions are claimed with one CAS, so each
///     producer's elements appear in its own program order (FIFO per
///     producer) and the single consumer observes a total order that is the
///     queue's linearization order. A full ring back-pressures: `try_push`
///     fails, `push` parks until the consumer drains a slot.
///
/// Memory ordering: element construction happens-before the cell's
/// sequence release-store; the consumer's acquire-load of the sequence
/// therefore happens-before its read of the element, and symmetrically for
/// slot reuse. TSan-clean by construction, not by suppression.
///
/// Lock-freedom is a hard invariant, statically enforced: this header must
/// never name a mutex type (`scripts/lint_invariants.py`, rule
/// `lock-free-path`, gates CI on it). The fields below follow atomic
/// publish protocols rather than `GUARDED_BY` capabilities — `sequence` is
/// the per-cell publication flag, `enqueue_pos_` is the multi-producer
/// claim counter, and `dequeue_pos_` is plain because exactly one consumer
/// thread may touch the pop side (the API contract above).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "common/assert.hpp"

namespace rtether {

/// Mutex-free condition variable for "park until something might have
/// changed". Usage, waiter side:
///
///   while (!condition()) {
///     const auto ticket = event.prepare_wait();
///     if (condition()) { event.cancel_wait(); break; }
///     event.wait(ticket);
///   }
///
/// Notifier side: make `condition()` true, then `notify()`. The seq_cst
/// version bump in `notify()` orders against the waiter's registration in
/// `prepare_wait()`, so either the notifier sees the waiter (and kicks the
/// futex) or the waiter's recheck sees the new state — never a lost wakeup.
class Eventcount {
 public:
  using Ticket = std::uint64_t;

  /// Registers the caller as a potential waiter and snapshots the version.
  /// Must be followed by a condition recheck, then `wait` or `cancel_wait`.
  [[nodiscard]] Ticket prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return version_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  /// Blocks until the version moves past `ticket` (or a spurious wake; the
  /// caller's loop rechecks the condition either way).
  void wait(Ticket ticket) {
    version_.wait(ticket, std::memory_order_seq_cst);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Publishes "state may have changed". Cheap when nobody waits.
  void notify() {
    version_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) {
      version_.notify_all();
    }
  }

 private:
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

/// Bounded multi-producer queue; exactly one consumer thread may call the
/// pop/empty side. Capacity is rounded up to a power of two (minimum 2).
template <typename T>
class MpscQueue {
 public:
  /// `consumer_wake` (optional) is notified after every successful push —
  /// the hook that lets one consumer park on a single eventcount covering
  /// several wake sources (several rings, or a ring plus a completion
  /// flag). The internal eventcount is notified as well and backs the
  /// plain blocking `pop`.
  explicit MpscQueue(std::size_t capacity, Eventcount* consumer_wake = nullptr)
      : consumer_wake_(consumer_wake) {
    std::size_t cap = 2;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  ~MpscQueue() {
    T scratch;
    while (try_pop(scratch)) {
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer. Moves from `value` only on success; on a full ring the
  /// argument is untouched and false is returned (the back-pressure signal).
  [[nodiscard]] bool try_push(T&& value) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // the cell still holds an unconsumed element
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    ::new (static_cast<void*>(cell->storage)) T(std::move(value));
    cell->sequence.store(pos + 1, std::memory_order_release);
    not_empty_.notify();
    if (consumer_wake_ != nullptr) {
      consumer_wake_->notify();
    }
    return true;
  }

  /// Multi-producer; parks on a full ring until the consumer frees a slot.
  void push(T value) {
    for (;;) {
      if (try_push(std::move(value))) {
        return;
      }
      const auto ticket = not_full_.prepare_wait();
      if (try_push(std::move(value))) {
        not_full_.cancel_wait();
        return;
      }
      not_full_.wait(ticket);
    }
  }

  /// Single consumer. False when the queue is (momentarily) empty.
  [[nodiscard]] bool try_pop(T& out) {
    Cell& cell = cells_[dequeue_pos_ & mask_];
    const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) !=
        static_cast<std::intptr_t>(dequeue_pos_ + 1)) {
      return false;  // next cell not yet published
    }
    T* element = std::launder(reinterpret_cast<T*>(cell.storage));
    out = std::move(*element);
    element->~T();
    cell.sequence.store(dequeue_pos_ + mask_ + 1, std::memory_order_release);
    ++dequeue_pos_;
    not_full_.notify();
    return true;
  }

  /// Single consumer; parks until an element arrives.
  void pop(T& out) {
    while (!try_pop(out)) {
      const auto ticket = not_empty_.prepare_wait();
      if (try_pop(out)) {
        not_empty_.cancel_wait();
        return;
      }
      not_empty_.wait(ticket);
    }
  }

  /// Single consumer: true when no published element is ready. A cell
  /// mid-construction counts as empty — the producer's post-publish notify
  /// re-wakes any parked consumer, so the race is benign.
  [[nodiscard]] bool empty() const {
    const Cell& cell = cells_[dequeue_pos_ & mask_];
    return cell.sequence.load(std::memory_order_acquire) != dequeue_pos_ + 1;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_{0};
  Eventcount* consumer_wake_{nullptr};
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::size_t dequeue_pos_{0};
  Eventcount not_full_;
  Eventcount not_empty_;
};

}  // namespace rtether
