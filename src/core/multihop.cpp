#include "core/multihop.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "core/admission_internal.hpp"

namespace rtether::core {

bool MultihopChannel::partition_valid() const {
  if (path.empty() || path.size() != deadlines.size()) {
    return false;
  }
  Slot sum = 0;
  for (const Slot d : deadlines) {
    if (d < spec.capacity) return false;  // Eq 18.9 per hop
    sum += d;
  }
  return sum == spec.deadline;  // Eq 18.8
}

PathNetworkState::PathNetworkState(Topology topology)
    : topology_(std::move(topology)) {}

const edf::TaskSet& PathNetworkState::link(const LinkId& id) const {
  static const edf::TaskSet kEmpty;
  const auto it = links_.find(id);
  return it == links_.end() ? kEmpty : it->second;
}

void PathNetworkState::add_channel(const MultihopChannel& channel) {
  RTETHER_ASSERT_MSG(channel.partition_valid(),
                     "multi-hop partition violates generalized Eq 18.8/18.9");
  RTETHER_ASSERT_MSG(!channels_.contains(channel.id),
                     "duplicate RT channel ID");
  for (std::size_t hop = 0; hop < channel.path.size(); ++hop) {
    links_[channel.path[hop]].add({channel.id, channel.spec.period,
                                   channel.spec.capacity,
                                   channel.deadlines[hop]});
  }
  channels_.emplace(channel.id, channel);
}

bool PathNetworkState::remove_channel(ChannelId id) {
  const auto it = channels_.find(id);
  if (it == channels_.end()) {
    return false;
  }
  for (const auto& link : it->second.path) {
    const bool removed = links_[link].remove(id);
    RTETHER_ASSERT_MSG(removed, "channel registry out of sync");
  }
  channels_.erase(it);
  return true;
}

std::optional<MultihopChannel> PathNetworkState::find_channel(
    ChannelId id) const {
  const auto it = channels_.find(id);
  if (it == channels_.end()) return std::nullopt;
  return it->second;
}

std::vector<Slot> PathPartitioner::apportion(
    Slot deadline, Slot capacity, const std::vector<double>& weights) {
  const auto hops = weights.size();
  RTETHER_ASSERT(hops >= 1);
  RTETHER_ASSERT_MSG(deadline >= capacity * hops,
                     "deadline below k*C cannot be apportioned");
  const Slot surplus = deadline - capacity * hops;

  double weight_sum = 0.0;
  for (const double w : weights) {
    RTETHER_ASSERT(w >= 0.0);
    weight_sum += w;
  }

  // Base share C per hop; surplus by largest remainder over weights.
  std::vector<Slot> budgets(hops, capacity);
  if (surplus == 0) {
    return budgets;
  }
  // Even spread, leftovers to the front hops: the degenerate-weights split
  // and the fallback when double rounding breaks the weighted one.
  auto even_spread = [&] {
    std::vector<Slot> even(hops, capacity);
    const Slot each = surplus / hops;
    Slot leftover = surplus % hops;
    for (auto& b : even) {
      b += each + (leftover > 0 ? 1 : 0);
      if (leftover > 0) --leftover;
    }
    return even;
  };
  if (weight_sum <= 0.0) {
    return even_spread();
  }

  // Beyond 2⁵³ the weighted shares are computed in ulp > 1 doubles: the
  // cast below would be UB at exact ≥ 2⁶⁴ and the assigned sum could
  // over-run the surplus and wrap the leftover loop into ~2⁶⁴ iterations.
  // The even spread is deterministic, exact and still Eq 18.8/18.9 valid —
  // unreachable for realistic deadlines.
  constexpr double kSlotRange = 18446744073709551616.0;  // 2⁶⁴
  std::vector<double> remainders(hops);
  Slot assigned = 0;
  for (std::size_t i = 0; i < hops; ++i) {
    const double exact =
        static_cast<double>(surplus) * weights[i] / weight_sum;
    if (!(exact < kSlotRange)) {
      return even_spread();
    }
    const Slot whole = static_cast<Slot>(exact);
    const auto sum = checked_add(assigned, whole);
    if (!sum || *sum > surplus) {
      return even_spread();
    }
    budgets[i] += whole;
    assigned = *sum;
    remainders[i] = exact - static_cast<double>(whole);
  }
  // Distribute the remaining slots to the largest remainders (stable by
  // index on ties, so the result is deterministic).
  std::vector<std::size_t> order(hops);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t lhs, std::size_t rhs) {
                     return remainders[lhs] > remainders[rhs];
                   });
  Slot leftover = surplus - assigned;
  for (std::size_t i = 0; leftover > 0; i = (i + 1) % hops, --leftover) {
    budgets[order[i]] += 1;
  }
  return budgets;
}

std::vector<Slot> SymmetricPathPartitioner::split(
    const ChannelSpec& spec, const std::vector<LinkId>& path,
    const PathNetworkState& /*state*/) const {
  return apportion(spec.deadline, spec.capacity,
                   std::vector<double>(path.size(), 1.0));
}

std::vector<Slot> AsymmetricPathPartitioner::split(
    const ChannelSpec& spec, const std::vector<LinkId>& path,
    const PathNetworkState& state) const {
  std::vector<double> weights;
  weights.reserve(path.size());
  for (const auto& link : path) {
    weights.push_back(static_cast<double>(state.link_load(link) + 1));
  }
  return apportion(spec.deadline, spec.capacity, weights);
}

std::unique_ptr<PathPartitioner> make_path_partitioner(
    const std::string& name) {
  if (name == "SDPS") return std::make_unique<SymmetricPathPartitioner>();
  if (name == "ADPS") return std::make_unique<AsymmetricPathPartitioner>();
  RTETHER_ASSERT_MSG(false, "unknown path partitioner name");
  return nullptr;
}

PathAdmissionController::PathAdmissionController(
    Topology topology, std::unique_ptr<PathPartitioner> partitioner)
    : state_(std::move(topology)), partitioner_(std::move(partitioner)) {
  RTETHER_ASSERT_MSG(partitioner_ != nullptr, "admission requires a DPS");
}

Expected<MultihopChannel, Rejection> PathAdmissionController::request(
    const ChannelSpec& spec) {
  ++stats_.requested;
  auto reject = [&](RejectReason reason,
                    std::string detail) -> Expected<MultihopChannel,
                                                    Rejection> {
    ++stats_.rejected;
    return Unexpected(Rejection{reason, std::move(detail)});
  };

  // Structural validity minus the 2C rule, which generalizes per path.
  if (spec.period == 0 || spec.capacity == 0 ||
      spec.capacity > spec.period || spec.deadline == 0) {
    return reject(RejectReason::kInvalidSpec, spec.to_string());
  }
  if (!state_.topology().attachment(spec.source) ||
      !state_.topology().attachment(spec.destination)) {
    return reject(RejectReason::kUnknownNode, spec.to_string());
  }
  const auto path = state_.topology().route(spec.source, spec.destination);
  if (!path) {
    return reject(RejectReason::kUnknownNode,
                  spec.to_string() + " (no route)");
  }
  // k·C with checked arithmetic: a near-2⁶⁴ capacity must fail the gate,
  // not wrap past it and trip the apportionment assert downstream.
  const auto path_floor = checked_mul(spec.capacity, path->size());
  if (!path_floor || spec.deadline < *path_floor) {
    return reject(RejectReason::kInvalidSpec,
                  spec.to_string() + " (d < k*C over a " +
                      std::to_string(path->size()) + "-hop path)");
  }

  const auto id = ids_.allocate();
  if (!id) {
    return reject(RejectReason::kChannelIdsExhausted, spec.to_string());
  }

  MultihopChannel channel;
  channel.id = *id;
  channel.spec = spec;
  channel.path = *path;
  channel.deadlines = partitioner_->split(spec, *path, state_);
  RTETHER_ASSERT_MSG(channel.partition_valid(),
                     "path partitioner produced an invalid split");

  auto hop_reject = [&](std::size_t hop, const edf::FeasibilityReport& report)
      -> Expected<MultihopChannel, Rejection> {
    ids_.release(*id);
    const bool is_uplink = channel.path[hop].kind == LinkId::Kind::kUplink;
    return reject(is_uplink ? RejectReason::kUplinkInfeasible
                            : RejectReason::kDownlinkInfeasible,
                  channel.path[hop].to_string() + ": " + report.summary());
  };

  // Cached trials: hop h tests link_h ∪ {task_h} by a merge-walk against its
  // scan cache — verdicts and diagnostics bit-identical to a from-scratch
  // check, O(checkpoints) per hop instead of O(tasks · checkpoints).
  // Nothing is installed until every hop passes, so rejection leaves no
  // residue by construction.
  std::vector<edf::FeasibilityReport> reports;
  reports.reserve(channel.path.size());
  for (std::size_t hop = 0; hop < channel.path.size(); ++hop) {
    const edf::TaskSet& set = state_.link(channel.path[hop]);
    edf::LinkScanCache& cache = caches_[channel.path[hop]];
    const edf::PseudoTask task{*id, spec.period, spec.capacity,
                               channel.deadlines[hop]};
    ++stats_.feasibility_tests;
    const auto report = cache.check_with(set, task);
    stats_.demand_evaluations += report.demand_evaluations;
    if (report.scanned_bound > cache.horizon()) {
      cache.reserve_horizon(set, report.scanned_bound);
    }
    if (!report.feasible) {
      return hop_reject(hop, report);
    }
    reports.push_back(report);
  }
  state_.add_channel(channel);
  for (std::size_t hop = 0; hop < channel.path.size(); ++hop) {
    caches_[channel.path[hop]].commit(
        {*id, spec.period, spec.capacity, channel.deadlines[hop]},
        reports[hop].used_utilization_fast_path
            ? std::nullopt
            : std::optional<Slot>(reports[hop].scanned_bound));
  }
  ++stats_.accepted;
  return channel;
}

ReleaseOutcome PathAdmissionController::release(ChannelId id) {
  const auto channel = state_.find_channel(id);
  if (!channel) {
    return admission_internal::make_release_outcome(false, id);
  }
  const bool removed = state_.remove_channel(id);
  RTETHER_ASSERT_MSG(removed, "channel registry out of sync");
  const bool was_live = ids_.release(id);
  RTETHER_ASSERT_MSG(was_live, "channel present but ID not live");
  ++stats_.released;
  // k-hop release fast path: every traversed link's cache sheds this
  // channel's pseudo-task.
  for (std::size_t hop = 0; hop < channel->path.size(); ++hop) {
    caches_[channel->path[hop]].downdate(
        state_.link(channel->path[hop]),
        {id, channel->spec.period, channel->spec.capacity,
         channel->deadlines[hop]});
  }
  return id;
}

}  // namespace rtether::core
