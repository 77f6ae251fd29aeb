#include "core/admission.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "core/admission_internal.hpp"

namespace rtether::core {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kInvalidSpec:
      return "invalid spec";
    case RejectReason::kUnknownNode:
      return "unknown node";
    case RejectReason::kUplinkInfeasible:
      return "uplink infeasible";
    case RejectReason::kDownlinkInfeasible:
      return "downlink infeasible";
    case RejectReason::kChannelIdsExhausted:
      return "channel IDs exhausted";
    case RejectReason::kUnknownChannel:
      return "unknown channel";
  }
  return "?";
}

std::optional<RejectReason> reject_reason_from_string(std::string_view text) {
  static constexpr RejectReason kAll[] = {
      RejectReason::kInvalidSpec,         RejectReason::kUnknownNode,
      RejectReason::kUplinkInfeasible,    RejectReason::kDownlinkInfeasible,
      RejectReason::kChannelIdsExhausted, RejectReason::kUnknownChannel,
  };
  for (const RejectReason reason : kAll) {
    if (text == to_string(reason)) {
      return reason;
    }
  }
  return std::nullopt;
}

AdmissionController::AdmissionController(
    std::uint32_t node_count, std::unique_ptr<DeadlinePartitioner> partitioner,
    AdmissionConfig config)
    : state_(node_count),
      partitioner_(std::move(partitioner)),
      config_(config) {
  RTETHER_ASSERT_MSG(partitioner_ != nullptr,
                     "admission control requires a DPS (paper §18.4: the "
                     "system cannot operate without one)");
}

namespace admission_internal {

std::string link_rejection_detail(const char* side, NodeId node,
                                  const edf::FeasibilityReport& report) {
  std::string detail = side;
  detail += std::to_string(node.value());
  detail += ": ";
  detail += report.summary();
  return detail;
}

std::string invalid_spec_detail(const ChannelSpec& spec) {
  std::ostringstream detail;
  detail << spec.to_string() << " is invalid";
  if (spec.period > 0 && spec.capacity > 0 &&
      spec.deadline < 2 * spec.capacity) {
    detail << " (d < 2C cannot be EDF-feasible through a store-and-forward"
              " switch)";
  }
  return detail.str();
}

bool cached_candidate_test(NetworkState& state,
                           edf::LinkScanCache& uplink_cache,
                           edf::LinkScanCache& downlink_cache,
                           AdmissionStats& stats, const ChannelSpec& spec,
                           ChannelId id, const DeadlinePartition& partition,
                           RejectReason& reason, std::string& detail) {
  const edf::PseudoTask uplink_task{id, spec.period, spec.capacity,
                                    partition.uplink};
  const edf::PseudoTask downlink_task{id, spec.period, spec.capacity,
                                      partition.downlink};
  const edf::TaskSet& uplink_set =
      state.link(spec.source, LinkDirection::kUplink);
  const edf::TaskSet& downlink_set =
      state.link(spec.destination, LinkDirection::kDownlink);

  // `check_with` is const — a trial whose busy period outruns the cached
  // horizon answers from stack scratch. Fold that range into the grid right
  // after, so the next trial at this bound is a pure merge-walk again. The
  // fold regenerates the scratch instants once more; that doubles a cost
  // paid only when the horizon actually grows (amortized rare — the grid
  // only ever extends), a deliberate trade for a side-effect-free trial
  // API that shard workers can share.
  auto memoize = [](edf::LinkScanCache& cache, const edf::TaskSet& set,
                    const edf::FeasibilityReport& report) {
    if (report.scanned_bound > cache.horizon()) {
      cache.reserve_horizon(set, report.scanned_bound);
    }
  };

  ++stats.feasibility_tests;
  const auto uplink_report = uplink_cache.check_with(uplink_set, uplink_task);
  stats.demand_evaluations += uplink_report.demand_evaluations;
  memoize(uplink_cache, uplink_set, uplink_report);
  if (!uplink_report.feasible) {
    reason = RejectReason::kUplinkInfeasible;
    detail = link_rejection_detail("uplink of node", spec.source,
                                   uplink_report);
    return false;
  }

  ++stats.feasibility_tests;
  const auto downlink_report =
      downlink_cache.check_with(downlink_set, downlink_task);
  stats.demand_evaluations += downlink_report.demand_evaluations;
  memoize(downlink_cache, downlink_set, downlink_report);
  if (!downlink_report.feasible) {
    reason = RejectReason::kDownlinkInfeasible;
    detail = link_rejection_detail("downlink of node", spec.destination,
                                   downlink_report);
    return false;
  }

  state.add_channel(RtChannel{id, spec, partition});
  // A scanned accept's bound *is* the link's new busy period — hand it to
  // the cache so the next trial's fixed point starts there.
  auto committed_bp = [](const edf::FeasibilityReport& report) {
    return report.used_utilization_fast_path
               ? std::nullopt
               : std::optional<Slot>(report.scanned_bound);
  };
  uplink_cache.commit(uplink_task, committed_bp(uplink_report));
  downlink_cache.commit(downlink_task, committed_bp(downlink_report));
  return true;
}

std::optional<RtChannel> release_channel(NetworkState& state,
                                         ChannelIdAllocator& ids,
                                         AdmissionStats& stats, ChannelId id) {
  auto channel = state.remove_channel(id);
  if (!channel) {
    return std::nullopt;
  }
  const bool was_live = ids.release(id);
  RTETHER_ASSERT_MSG(was_live, "channel present in state but ID not live");
  ++stats.released;
  return channel;
}

std::string unknown_channel_detail(ChannelId id) {
  std::string detail = "channel ";
  detail += std::to_string(id.value());
  detail += " is not live";
  return detail;
}

ReleaseOutcome make_release_outcome(bool released, ChannelId id) {
  if (released) {
    return id;
  }
  return Unexpected(
      Rejection{RejectReason::kUnknownChannel, unknown_channel_detail(id)});
}

}  // namespace admission_internal

namespace {

/// Shared admission scaffolding: spec validation, node checks, ID
/// allocation and the DPS-candidate loop. `try_candidate(id, partition,
/// reason, detail)` either commits the channel and returns true, or records
/// its rejection and returns false. The controller and the engine run
/// through this one flow, so their decisions and diagnostics cannot drift
/// apart.
template <typename TryCandidate>
Expected<RtChannel, Rejection> admission_flow(
    const NetworkState& state, const DeadlinePartitioner& partitioner,
    ChannelIdAllocator& ids, AdmissionStats& stats, const ChannelSpec& spec,
    TryCandidate&& try_candidate) {
  ++stats.requested;
  auto reject = [&](RejectReason reason,
                    std::string detail) -> Expected<RtChannel, Rejection> {
    ++stats.rejected;
    return Unexpected(Rejection{reason, std::move(detail)});
  };

  if (!spec.valid()) {
    return reject(RejectReason::kInvalidSpec,
                  admission_internal::invalid_spec_detail(spec));
  }
  if (!state.node_exists(spec.source) ||
      !state.node_exists(spec.destination)) {
    return reject(RejectReason::kUnknownNode, spec.to_string());
  }

  const auto id = ids.allocate();
  if (!id) {
    return reject(RejectReason::kChannelIdsExhausted, spec.to_string());
  }

  const auto candidates = partitioner.candidates(spec, state);
  RTETHER_ASSERT_MSG(!candidates.empty(), "DPS returned no candidates");

  RejectReason last_reason = RejectReason::kUplinkInfeasible;
  std::string last_detail;
  for (const auto& partition : candidates) {
    RTETHER_ASSERT_MSG(partition.satisfies(spec),
                       "DPS candidate violates Eq 18.8/18.9");
    if (try_candidate(*id, partition, last_reason, last_detail)) {
      ++stats.accepted;
      return RtChannel{*id, spec, partition};
    }
  }

  ids.release(*id);
  return reject(last_reason, last_detail);
}

/// The reference candidate test: tentatively install both pseudo-tasks,
/// run the from-scratch feasibility check on each affected link direction,
/// and roll back on failure — rejection must leave the state untouched.
bool tentative_candidate_test(NetworkState& state, AdmissionStats& stats,
                              edf::DemandScan scan, const ChannelSpec& spec,
                              ChannelId id, const DeadlinePartition& partition,
                              RejectReason& reason, std::string& detail) {
  const RtChannel channel{id, spec, partition};
  state.add_channel(channel);
  ++stats.feasibility_tests;
  const auto uplink_report = edf::check_feasibility(
      state.link(spec.source, LinkDirection::kUplink), scan);
  stats.demand_evaluations += uplink_report.demand_evaluations;
  if (!uplink_report.feasible) {
    state.remove_channel(id);
    reason = RejectReason::kUplinkInfeasible;
    detail = admission_internal::link_rejection_detail(
        "uplink of node", spec.source, uplink_report);
    return false;
  }
  ++stats.feasibility_tests;
  const auto downlink_report = edf::check_feasibility(
      state.link(spec.destination, LinkDirection::kDownlink), scan);
  stats.demand_evaluations += downlink_report.demand_evaluations;
  if (!downlink_report.feasible) {
    state.remove_channel(id);
    reason = RejectReason::kDownlinkInfeasible;
    detail = admission_internal::link_rejection_detail(
        "downlink of node", spec.destination, downlink_report);
    return false;
  }
  return true;
}

}  // namespace

Expected<RtChannel, Rejection> AdmissionController::request(
    const ChannelSpec& spec) {
  return admission_flow(
      state_, *partitioner_, ids_, stats_, spec,
      [&](ChannelId id, const DeadlinePartition& partition,
          RejectReason& reason, std::string& detail) {
        return tentative_candidate_test(state_, stats_, config_.scan, spec,
                                        id, partition, reason, detail);
      });
}

ReleaseOutcome AdmissionController::release(ChannelId id) {
  return admission_internal::make_release_outcome(
      admission_internal::release_channel(state_, ids_, stats_, id)
          .has_value(),
      id);
}

std::size_t ChurnResult::accepted() const {
  return static_cast<std::size_t>(
      std::count_if(admissions.begin(), admissions.end(),
                    [](const auto& outcome) { return outcome.has_value(); }));
}

std::size_t ChurnResult::rejected() const {
  return admissions.size() - accepted();
}

AdmissionEngine::AdmissionEngine(
    std::uint32_t node_count, std::unique_ptr<DeadlinePartitioner> partitioner)
    : state_(node_count),
      partitioner_(std::move(partitioner)),
      uplink_caches_(node_count),
      downlink_caches_(node_count) {
  RTETHER_ASSERT_MSG(partitioner_ != nullptr,
                     "admission control requires a DPS (paper §18.4: the "
                     "system cannot operate without one)");
}

edf::LinkScanCache& AdmissionEngine::cache(NodeId node, LinkDirection dir) {
  RTETHER_ASSERT(state_.node_exists(node));
  return dir == LinkDirection::kUplink ? uplink_caches_[node.value()]
                                       : downlink_caches_[node.value()];
}

Expected<RtChannel, Rejection> AdmissionEngine::admit(
    const ChannelSpec& spec) {
  return admission_flow(
      state_, *partitioner_, ids_, stats_, spec,
      [&](ChannelId id, const DeadlinePartition& partition,
          RejectReason& reason, std::string& why) {
        return admission_internal::cached_candidate_test(
            state_, cache(spec.source, LinkDirection::kUplink),
            cache(spec.destination, LinkDirection::kDownlink), stats_, spec,
            id, partition, reason, why);
      });
}

namespace {

/// Conservative per-link horizon sizing for the batch pre-pass. Iterates the
/// busy-period fixed point of `set ∪ every batch request on the link` —
/// deadlines play no role in the workload, so specs suffice. Returns nullopt
/// when the iteration diverges (aggregate overload), overflows, or exceeds
/// `cap`; callers then fall back to lazy per-request extension.
std::optional<Slot> batch_horizon(const edf::TaskSet& set,
                                  const std::vector<ChannelSpec>& specs,
                                  Slot cap) {
  // Quick divergence screen: the exact test is per-request; here a double
  // with margin is enough to skip hopeless aggregates.
  double utilization = set.utilization();
  Slot backlog = set.total_capacity();
  for (const auto& spec : specs) {
    utilization += spec.utilization();
    const auto sum = checked_add(backlog, spec.capacity);
    if (!sum) return std::nullopt;
    backlog = *sum;
  }
  if (utilization > 0.999) {
    return std::nullopt;
  }

  Slot length = backlog;
  for (;;) {
    Slot next = 0;
    for (const auto& task : set.tasks()) {
      const auto contribution =
          checked_mul(ceil_div(length, task.period), task.capacity);
      if (!contribution) return std::nullopt;
      const auto sum = checked_add(next, *contribution);
      if (!sum) return std::nullopt;
      next = *sum;
    }
    for (const auto& spec : specs) {
      const auto contribution =
          checked_mul(ceil_div(length, spec.period), spec.capacity);
      if (!contribution) return std::nullopt;
      const auto sum = checked_add(next, *contribution);
      if (!sum) return std::nullopt;
      next = *sum;
    }
    if (next == length) return length;
    if (next > cap) return std::nullopt;
    length = next;
  }
}

/// Cap on up-front grid reservation; lazy extension covers anything larger.
constexpr Slot kMaxReserveHorizon = Slot{1} << 22;

}  // namespace

namespace admission_internal {

void reserve_link_horizon(const edf::TaskSet& set, edf::LinkScanCache& cache,
                          const std::vector<ChannelSpec>& batch_specs) {
  // The link's hyperperiod caps any useful horizon: with U ≤ 1 the
  // synchronous busy period never exceeds it. Computed once per link from
  // the cache's distinct periods plus the batch periods.
  Slot cap = kMaxReserveHorizon;
  std::optional<Slot> hp = cache.hyperperiod();
  for (const auto& spec : batch_specs) {
    if (!hp) break;
    hp = checked_lcm(*hp, spec.period);
  }
  if (hp && *hp < cap) {
    cap = *hp;
  }

  if (const auto horizon = batch_horizon(set, batch_specs, cap)) {
    cache.reserve_horizon(set, std::min(*horizon, cap));
  }
}

}  // namespace admission_internal

void AdmissionEngine::prepare_links(std::span<const ChannelOp> admits) {
  // Sort the batch per link direction (egress downlinks and ingress
  // uplinks): key = node × 2 + direction. A counting-sort scatter — the key
  // space is dense and known, so O(requests + links) beats a comparator
  // sort on every batch size that matters.
  const std::size_t key_space = std::size_t{state_.node_count()} * 2;
  std::vector<std::uint32_t> offsets(key_space + 1, 0);
  auto each_key = [&](auto&& visit) {
    for (const ChannelOp& op : admits) {
      const ChannelSpec& spec = op.spec;
      if (!spec.valid() || !state_.node_exists(spec.source) ||
          !state_.node_exists(spec.destination)) {
        continue;
      }
      visit(std::size_t{spec.source.value()} * 2, spec);
      visit(std::size_t{spec.destination.value()} * 2 + 1, spec);
    }
  };
  each_key([&](std::size_t key, const ChannelSpec&) { ++offsets[key + 1]; });
  for (std::size_t k = 1; k <= key_space; ++k) {
    offsets[k] += offsets[k - 1];
  }
  std::vector<const ChannelSpec*> sorted(offsets[key_space]);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    each_key([&](std::size_t key, const ChannelSpec& spec) {
      sorted[cursor[key]++] = &spec;
    });
  }

  std::vector<ChannelSpec> group;
  for (std::size_t key = 0; key < key_space; ++key) {
    if (offsets[key] == offsets[key + 1]) {
      continue;
    }
    group.clear();
    for (std::uint32_t i = offsets[key]; i < offsets[key + 1]; ++i) {
      group.push_back(*sorted[i]);
    }
    const NodeId node{static_cast<NodeId::rep_type>(key / 2)};
    const LinkDirection dir =
        key % 2 == 0 ? LinkDirection::kUplink : LinkDirection::kDownlink;
    admission_internal::reserve_link_horizon(state_.link(node, dir),
                                             cache(node, dir), group);
  }
}

ChurnResult AdmissionEngine::process(std::span<const ChannelOp> ops) {
  ChurnResult result;
  for (std::size_t begin = 0; begin < ops.size();) {
    if (ops[begin].kind == ChannelOp::Kind::kRelease) {
      result.releases.push_back(release(ops[begin++].id));
      continue;
    }
    std::size_t end = begin;
    while (end < ops.size() && ops[end].kind == ChannelOp::Kind::kAdmit) {
      ++end;
    }
    const auto admits = ops.subspan(begin, end - begin);
    prepare_links(admits);
    for (const ChannelOp& op : admits) {
      result.admissions.push_back(admit(op.spec));
    }
    begin = end;
  }
  return result;
}

ReleaseOutcome AdmissionEngine::release(ChannelId id) {
  const auto channel =
      admission_internal::release_channel(state_, ids_, stats_, id);
  if (!channel) {
    return admission_internal::make_release_outcome(false, id);
  }
  const ChannelSpec& spec = channel->spec;
  cache(spec.source, LinkDirection::kUplink)
      .downdate(state_.link(spec.source, LinkDirection::kUplink),
                {channel->id, spec.period, spec.capacity,
                 channel->partition.uplink});
  cache(spec.destination, LinkDirection::kDownlink)
      .downdate(state_.link(spec.destination, LinkDirection::kDownlink),
                {channel->id, spec.period, spec.capacity,
                 channel->partition.downlink});
  return id;
}

}  // namespace rtether::core
