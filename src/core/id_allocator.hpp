#pragma once

/// @file id_allocator.hpp
/// Network-unique RT channel ID allocation. The wire format gives the ID
/// 16 bits (Fig 18.3); ID 0 is reserved as "not set with a valid value yet"
/// (§18.2.2), so at most 65535 channels can be live at once.

#include <array>
#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace rtether::core {

class ChannelIdAllocator {
 public:
  ChannelIdAllocator();

  /// The reserved invalid ID (0).
  static constexpr ChannelId kInvalid{0};

  /// Maximum simultaneously live channels (all 16-bit IDs minus the
  /// reserved 0). The parallel engine's ID-headroom guard keys off this.
  static constexpr std::size_t kCapacity = 65535;

  /// Allocates the smallest free non-zero ID; nullopt when all 65535 IDs
  /// are live. Freed IDs are reused smallest-first, which keeps IDs dense —
  /// useful for table-indexed lookups at the switch. O(1): one summary-word
  /// scan (at most 16 words) and two count-trailing-zeros.
  [[nodiscard]] std::optional<ChannelId> allocate();

  /// Returns an ID to the pool; false if it was not live (double free) or
  /// is the reserved 0. O(1).
  bool release(ChannelId id);

  [[nodiscard]] bool is_live(ChannelId id) const;

  [[nodiscard]] std::size_t live_count() const { return live_count_; }

 private:
  static constexpr std::size_t kWords = 65536 / 64;
  static constexpr std::size_t kSummaryWords = kWords / 64;

  /// Bit b of free_[w] is set when ID 64·w + b is free. Bit 0 of word 0
  /// (the reserved ID 0) is never set.
  std::array<std::uint64_t, kWords> free_;
  /// Bit b of summary_[s] is set when free_[64·s + b] is non-zero, so the
  /// smallest free ID is found without visiting full words.
  std::array<std::uint64_t, kSummaryWords> summary_;
  std::size_t live_count_{0};
};

}  // namespace rtether::core
