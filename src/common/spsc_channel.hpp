#pragma once

/// @file spsc_channel.hpp
/// Fixed-capacity single-producer / single-consumer channel of POD records
/// — the cut-link transport of the parallel simulator (sim/parallel.hpp).
///
/// One partition thread pushes, one partition thread pops. Each
/// partition stays on one thread for a whole run, and the round barrier
/// orders one round's pushes before the next round's pops, so at any
/// instant at most one thread is on each side. Under that contract the channel is a
/// classic two-cursor ring: the producer owns `tail_`, the consumer owns
/// `head_`, each publishes its cursor with a release store and reads the
/// other side's with an acquire load. No CAS, no per-cell sequence
/// numbers, and — by design — no mutex anywhere: lock-freedom on the
/// cross-partition path is a hard invariant (lint rule lock-free-path),
/// exactly like the MPSC ingest ring (common/mpsc_queue.hpp).
///
/// The element type must be trivially copyable: records cross partition
/// (and thread) boundaries by value, never by reference into the
/// producer's arena — that is what keeps the consumer free of data races
/// against the producer's allocator.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace rtether {

template <typename T>
class SpscChannel {
  static_assert(std::is_trivially_copyable_v<T>,
                "SPSC records cross thread boundaries by value");

 public:
  /// `capacity` is rounded up to a power of two (≥ 2).
  explicit SpscChannel(std::size_t capacity) {
    std::size_t rounded = 2;
    while (rounded < capacity) rounded <<= 1;
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Producer side: false when the ring is full (the caller spills and
  /// retries after the consumer drained — see sim::FabricNetwork).
  [[nodiscard]] bool try_push(const T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;
    slots_[static_cast<std::size_t>(tail) & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: copies the front record without consuming it; false
  /// when the channel is empty.
  [[nodiscard]] bool try_peek(T& out) const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = slots_[static_cast<std::size_t>(head) & mask_];
    return true;
  }

  /// Consumer side: consumes the front record (must exist — peek first).
  void pop() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    RTETHER_ASSERT(head != tail_.load(std::memory_order_acquire));
    head_.store(head + 1, std::memory_order_release);
  }

  /// Records consumed so far (producer-visible; monotonic). The acquire
  /// pairs with the consumer's release in `pop`, so resources tied to a
  /// consumed record may be safely reclaimed by the producer.
  [[nodiscard]] std::uint64_t consumed() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Records pushed so far (producer's own counter; exact on the producer
  /// thread, a monotonic lower bound anywhere else).
  [[nodiscard]] std::uint64_t pushed() const {
    return tail_.load(std::memory_order_acquire);
  }

  /// Consumer-side emptiness check.
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_{1};
  /// Consumer cursor: next slot to pop. Written by the consumer only.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  /// Producer cursor: next slot to fill. Written by the producer only.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace rtether
