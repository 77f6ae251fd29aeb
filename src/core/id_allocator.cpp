#include "core/id_allocator.hpp"

#include <bit>

namespace rtether::core {

ChannelIdAllocator::ChannelIdAllocator() {
  free_.fill(~std::uint64_t{0});
  free_[0] &= ~std::uint64_t{1};  // ID 0 is reserved
  summary_.fill(~std::uint64_t{0});
}

std::optional<ChannelId> ChannelIdAllocator::allocate() {
  for (std::size_t s = 0; s < kSummaryWords; ++s) {
    if (summary_[s] == 0) {
      continue;
    }
    const std::size_t word =
        64 * s + static_cast<std::size_t>(std::countr_zero(summary_[s]));
    const auto bit = static_cast<unsigned>(std::countr_zero(free_[word]));
    free_[word] &= ~(std::uint64_t{1} << bit);
    if (free_[word] == 0) {
      summary_[s] &= ~(std::uint64_t{1} << (word % 64));
    }
    ++live_count_;
    return ChannelId(static_cast<std::uint16_t>(64 * word + bit));
  }
  return std::nullopt;
}

bool ChannelIdAllocator::release(ChannelId id) {
  if (!is_live(id)) {
    return false;
  }
  const std::size_t word = id.value() / 64;
  free_[word] |= std::uint64_t{1} << (id.value() % 64);
  summary_[word / 64] |= std::uint64_t{1} << (word % 64);
  --live_count_;
  return true;
}

bool ChannelIdAllocator::is_live(ChannelId id) const {
  return id != kInvalid &&
         (free_[id.value() / 64] >> (id.value() % 64) & 1) == 0;
}

}  // namespace rtether::core
