#pragma once

/// @file stats.hpp
/// Measurement layer: per-channel delivery statistics (the quantities the
/// paper's guarantee Eq 18.1 bounds) plus best-effort service metrics.
///
/// The per-channel records live in a small open-addressing hash table —
/// `record_rt_sent`/`record_rt_delivered` run once per simulated frame on
/// the kernel's allocation-free hot path, where a `std::map` lookup (cold
/// pointer chases, rebalancing inserts) was measurable. `channels()`
/// materializes a sorted map for reports and digests.

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace rtether::sim {

/// Per-RT-channel delivery record.
struct ChannelDeliveryStats {
  std::uint64_t frames_sent{0};
  std::uint64_t frames_delivered{0};
  /// Deliveries later than absolute deadline + T_latency allowance — must
  /// stay zero for admitted channels (the paper's central claim).
  std::uint64_t deadline_misses{0};
  /// End-to-end delay (release → delivery), ticks.
  RunningStats delay_ticks;
  /// Worst observed (delivery − absolute deadline); negative = early.
  /// Lateness beyond the allowance is a miss.
  std::int64_t worst_lateness_ticks{std::numeric_limits<std::int64_t>::min()};
  /// Frames lost to fault injection (link down/loss, CRC discard, reboot
  /// table flush). The survival contract's per-channel accounting —
  /// frames_sent == frames_delivered + frames_dropped — rests on this.
  /// Always zero in fault-free runs; deliberately NOT part of the sim
  /// digest (compute_sim_digest's field order is a golden contract).
  std::uint64_t frames_dropped{0};
  /// Every delivery's end-to-end delay in arrival order, recorded only
  /// when `SimStats::set_record_delays(true)` — the time-triggered
  /// conformance check proves zero jitter from the exact sequence, which
  /// `delay_ticks`'s running moments cannot. Like `frames_dropped`,
  /// deliberately NOT part of the sim digest.
  std::vector<Tick> delivery_delays;
};

class SimStats {
 public:
  void record_rt_sent(ChannelId channel) { ++slot(channel).frames_sent; }

  /// Opt into per-delivery delay recording (`delivery_delays`). Off by
  /// default: the vector grows one entry per delivered frame, which the
  /// allocation-conscious benches must not pay.
  void set_record_delays(bool on) { record_delays_ = on; }

  /// Records a delivered RT frame. `allowance` is the T_latency budget of
  /// Eq 18.1 in ticks; delivery after `absolute_deadline + allowance`
  /// counts as a miss.
  void record_rt_delivered(ChannelId channel, Tick created,
                           Tick absolute_deadline, Tick delivered,
                           Tick allowance);

  void record_best_effort_sent() { ++best_effort_sent_; }
  void record_best_effort_delivered(Tick created, Tick delivered);

  /// An RT frame of `channel` was lost to fault injection.
  void record_rt_fault_drop(ChannelId channel) {
    ++slot(channel).frames_dropped;
    ++rt_fault_drops_;
  }

  /// A best-effort frame was lost to fault injection.
  void record_best_effort_fault_drop() { ++best_effort_fault_drops_; }

  [[nodiscard]] std::uint64_t rt_fault_drops() const {
    return rt_fault_drops_;
  }
  [[nodiscard]] std::uint64_t best_effort_fault_drops() const {
    return best_effort_fault_drops_;
  }

  /// Sorted snapshot of every channel's record (reports, digests; cold).
  [[nodiscard]] std::map<ChannelId, ChannelDeliveryStats> channels() const;

  /// Stats for one channel, by reference into the table (valid until the
  /// next record for a new channel); nullptr if it never sent.
  [[nodiscard]] const ChannelDeliveryStats* channel(ChannelId id) const;

  [[nodiscard]] std::uint64_t total_rt_delivered() const;
  [[nodiscard]] std::uint64_t total_deadline_misses() const;

  [[nodiscard]] std::uint64_t best_effort_sent() const {
    return best_effort_sent_;
  }
  [[nodiscard]] std::uint64_t best_effort_delivered() const {
    return best_effort_delivered_;
  }
  [[nodiscard]] const RunningStats& best_effort_delay_ticks() const {
    return best_effort_delay_;
  }

 private:
  struct TableSlot {
    bool used{false};
    ChannelId id{};
    ChannelDeliveryStats stats;
  };

  /// Fibonacci-hashed start index for open addressing (capacity is a
  /// power of two).
  [[nodiscard]] static std::size_t start_index(ChannelId id,
                                               std::size_t capacity) {
    return (static_cast<std::size_t>(id.value()) * 0x9e3779b1U) &
           (capacity - 1);
  }

  [[nodiscard]] ChannelDeliveryStats& slot(ChannelId id);
  [[nodiscard]] const TableSlot* find(ChannelId id) const;
  void rehash(std::size_t capacity);

  /// Open-addressing table, linear probing, ≤50% load.
  std::vector<TableSlot> table_;
  std::size_t used_{0};
  std::uint64_t best_effort_sent_{0};
  std::uint64_t best_effort_delivered_{0};
  std::uint64_t rt_fault_drops_{0};
  std::uint64_t best_effort_fault_drops_{0};
  bool record_delays_{false};
  RunningStats best_effort_delay_;
};

}  // namespace rtether::sim
