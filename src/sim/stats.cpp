#include "sim/stats.hpp"

#include <algorithm>

namespace rtether::sim {

ChannelDeliveryStats& SimStats::slot(ChannelId id) {
  if (2 * (used_ + 1) > table_.size()) {
    rehash(table_.empty() ? 16 : 2 * table_.size());
  }
  std::size_t index = start_index(id, table_.size());
  while (table_[index].used && table_[index].id != id) {
    index = (index + 1) & (table_.size() - 1);
  }
  TableSlot& found = table_[index];
  if (!found.used) {
    found.used = true;
    found.id = id;
    ++used_;
  }
  return found.stats;
}

const SimStats::TableSlot* SimStats::find(ChannelId id) const {
  if (table_.empty()) return nullptr;
  std::size_t index = start_index(id, table_.size());
  while (table_[index].used) {
    if (table_[index].id == id) return &table_[index];
    index = (index + 1) & (table_.size() - 1);
  }
  return nullptr;
}

void SimStats::rehash(std::size_t capacity) {
  std::vector<TableSlot> bigger(capacity);
  for (const TableSlot& old : table_) {
    if (!old.used) continue;
    std::size_t index = start_index(old.id, capacity);
    while (bigger[index].used) {
      index = (index + 1) & (capacity - 1);
    }
    bigger[index] = old;
  }
  table_ = std::move(bigger);
}

void SimStats::record_rt_delivered(ChannelId channel, Tick created,
                                   Tick absolute_deadline, Tick delivered,
                                   Tick allowance) {
  auto& stats = slot(channel);
  ++stats.frames_delivered;
  stats.delay_ticks.add(static_cast<double>(delivered - created));
  if (record_delays_) {
    stats.delivery_delays.push_back(delivered - created);
  }
  const auto lateness = static_cast<std::int64_t>(delivered) -
                        static_cast<std::int64_t>(absolute_deadline);
  stats.worst_lateness_ticks =
      std::max(stats.worst_lateness_ticks, lateness);
  if (delivered > absolute_deadline + allowance) {
    ++stats.deadline_misses;
  }
}

void SimStats::record_best_effort_delivered(Tick created, Tick delivered) {
  ++best_effort_delivered_;
  best_effort_delay_.add(static_cast<double>(delivered - created));
}

std::map<ChannelId, ChannelDeliveryStats> SimStats::channels() const {
  std::map<ChannelId, ChannelDeliveryStats> sorted;
  for (const TableSlot& entry : table_) {
    if (entry.used) sorted.emplace(entry.id, entry.stats);
  }
  return sorted;
}

const ChannelDeliveryStats* SimStats::channel(ChannelId id) const {
  const TableSlot* found = find(id);
  return found == nullptr ? nullptr : &found->stats;
}

std::uint64_t SimStats::total_rt_delivered() const {
  std::uint64_t total = 0;
  for (const TableSlot& entry : table_) {
    if (entry.used) total += entry.stats.frames_delivered;
  }
  return total;
}

std::uint64_t SimStats::total_deadline_misses() const {
  std::uint64_t total = 0;
  for (const TableSlot& entry : table_) {
    if (entry.used) total += entry.stats.deadline_misses;
  }
  return total;
}

}  // namespace rtether::sim
