#include "scenario/runner.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "analysis/calculus.hpp"
#include "common/bytes.hpp"
#include "core/admission.hpp"
#include "core/admission_backend.hpp"
#include "core/gate_schedule.hpp"
#include "edf/feasibility.hpp"
#include "net/ethernet.hpp"
#include "net/mgmt_frames.hpp"
#include "proto/periodic_sender.hpp"
#include "proto/stack.hpp"
#include "sim/addressing.hpp"
#include "sim/best_effort.hpp"
#include "sim/fabric.hpp"
#include "sim/fault.hpp"
#include "sim/parallel.hpp"

namespace rtether::scenario {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kMalformedSpec:
      return "malformed scenario spec";
    case ViolationKind::kPartitionInvariant:
      return "DPS candidate violates Eq 18.8/18.9";
    case ViolationKind::kPathSplitInvariant:
      return "k-hop split violates generalized Eq 18.8/18.9";
    case ViolationKind::kEngineDisagreement:
      return "admission paths disagree";
    case ViolationKind::kReleaseDisagreement:
      return "release results disagree";
    case ViolationKind::kMultihopParity:
      return "multihop/classic SDPS parity broken";
    case ViolationKind::kStateInconsistent:
      return "committed states out of sync";
    case ViolationKind::kInfeasibleState:
      return "committed link fails the EDF test";
    case ViolationKind::kStackDivergence:
      return "wire-protocol outcome diverges from analytic decision";
    case ViolationKind::kDeadlineMiss:
      return "deadline miss in simulation";
    case ViolationKind::kFrameLoss:
      return "RT frame lost in simulation";
    case ViolationKind::kSimBudgetExhausted:
      return "simulation event budget exhausted (runaway guard)";
    case ViolationKind::kFaultContract:
      return "fault survival contract broken";
    case ViolationKind::kReadmissionDivergence:
      return "post-reboot re-admission diverges from fresh admission";
    case ViolationKind::kCalculusViolation:
      return "EDF accept violates the network-calculus bound";
    case ViolationKind::kCalculusDisagreement:
      return "EDF reject contradicts the network-calculus bound";
    case ViolationKind::kGateConflict:
      return "TT gate placement conflicts or breaks its bounds";
    case ViolationKind::kJitterViolation:
      return "TT delivery jitter nonzero";
  }
  return "?";
}

std::string Violation::to_string() const {
  std::ostringstream out;
  out << scenario::to_string(kind);
  if (op_index != static_cast<std::size_t>(-1)) {
    out << " at op " << op_index;
  }
  if (!detail.empty()) {
    out << ": " << detail;
  }
  return out.str();
}

std::string ScenarioResult::summary() const {
  std::ostringstream out;
  out << (passed ? "PASS" : "FAIL") << " admitted=" << admitted
      << " rejected=" << rejected << " released=" << released
      << " frames=" << frames_delivered;
  for (const auto& violation : violations) {
    out << "\n  " << violation.to_string();
  }
  return out.str();
}

namespace {

using core::AdmissionController;
using core::ChannelSpec;
using core::Rejection;
using core::ReleaseOutcome;
using core::RtChannel;

using AdmitOutcome = Expected<RtChannel, Rejection>;

/// FNV-1a accumulator for the SimDigest link-stats fingerprint.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

void mix_transmitter(Fnv1a& fnv, const sim::Transmitter& tx) {
  const auto& stats = tx.stats();
  fnv.mix(stats.rt_frames_sent);
  fnv.mix(stats.best_effort_frames_sent);
  fnv.mix(stats.busy_ticks);
  fnv.mix(stats.max_rt_queue_depth);
  fnv.mix(stats.max_best_effort_queue_depth);
  fnv.mix(tx.best_effort_dropped());
}

/// Mixes every per-channel delivery record (in ID order, with the delay
/// statistics' bit patterns) and the best-effort delay aggregates.
void mix_channel_stats(Fnv1a& fnv, const sim::SimStats& stats) {
  for (const auto& [id, channel] : stats.channels()) {
    fnv.mix(id.value());
    fnv.mix(channel.frames_sent);
    fnv.mix(channel.frames_delivered);
    fnv.mix(channel.deadline_misses);
    fnv.mix(static_cast<std::uint64_t>(channel.worst_lateness_ticks));
    fnv.mix(channel.delay_ticks.count());
    fnv.mix_double(channel.delay_ticks.mean());
    fnv.mix_double(channel.delay_ticks.min());
    fnv.mix_double(channel.delay_ticks.max());
  }
  fnv.mix(stats.best_effort_delay_ticks().count());
  fnv.mix_double(stats.best_effort_delay_ticks().mean());
}

/// Fingerprints the finished simulation: every per-link counter, the switch
/// aggregates and the per-channel delivery records. Field order is part of
/// the golden contract — do not reorder.
SimDigest compute_sim_digest(const sim::SimNetwork& network) {
  SimDigest digest;
  digest.executed_events = network.simulator().executed_events();
  const sim::SimStats& stats = network.stats();
  digest.rt_delivered = stats.total_rt_delivered();
  digest.deadline_misses = stats.total_deadline_misses();
  digest.best_effort_sent = stats.best_effort_sent();
  digest.best_effort_delivered = stats.best_effort_delivered();

  Fnv1a fnv;
  for (std::uint32_t n = 0; n < network.node_count(); ++n) {
    mix_transmitter(fnv, network.node(NodeId{n}).uplink());
  }
  const sim::SimSwitch& sw = network.ethernet_switch();
  for (std::uint32_t n = 0; n < sw.port_count(); ++n) {
    mix_transmitter(fnv, sw.port(NodeId{n}));
  }
  fnv.mix(sw.stats().rt_forwarded);
  fnv.mix(sw.stats().best_effort_forwarded);
  fnv.mix(sw.stats().management_received);
  fnv.mix(sw.stats().flooded);
  fnv.mix(sw.stats().rt_dropped_unknown_destination);
  mix_channel_stats(fnv, stats);
  digest.link_stats_hash = fnv.value();
  return digest;
}

[[nodiscard]] bool outcomes_equal(const AdmitOutcome& a,
                                  const AdmitOutcome& b) {
  if (a.has_value() != b.has_value()) return false;
  if (a.has_value()) return *a == *b;
  return a.error().reason == b.error().reason &&
         a.error().detail == b.error().detail;
}

[[nodiscard]] bool outcomes_equal(const ReleaseOutcome& a,
                                  const ReleaseOutcome& b) {
  if (a.has_value() != b.has_value()) return false;
  if (a.has_value()) return *a == *b;
  return a.error() == b.error();
}

[[nodiscard]] std::string describe(const AdmitOutcome& outcome) {
  if (outcome.has_value()) {
    std::ostringstream out;
    out << "accepted id=" << outcome->id.value()
        << " d_iu=" << outcome->partition.uplink
        << " d_id=" << outcome->partition.downlink;
    return out.str();
  }
  return std::string("rejected (") + core::to_string(outcome.error().reason) +
         "): " + outcome.error().detail;
}

[[nodiscard]] std::string describe(const ReleaseOutcome& outcome) {
  if (outcome.has_value()) {
    return "released id=" + std::to_string(outcome->value());
  }
  return std::string("rejected (") + core::to_string(outcome.error().reason) +
         "): " + outcome.error().detail;
}

/// Resolves which channel ID a release op tears down: the ID its target
/// admit op was assigned, or the raw ID when the target never admitted.
[[nodiscard]] ChannelId resolve_release(
    const ScenarioOp& op,
    const std::vector<std::optional<ChannelId>>& id_by_op) {
  if (op.target != ScenarioOp::kNoTarget && id_by_op[op.target]) {
    return *id_by_op[op.target];
  }
  return ChannelId{op.raw_id};
}

/// Live channels of a NetworkState, sorted by ID — the canonical form for
/// cross-engine registry comparison.
[[nodiscard]] std::vector<RtChannel> sorted_channels(
    const core::NetworkState& state) {
  auto channels = state.channels();
  std::sort(channels.begin(), channels.end(),
            [](const RtChannel& a, const RtChannel& b) { return a.id < b.id; });
  return channels;
}

struct RunContext {
  const ScenarioSpec& spec;
  const RunnerOptions& options;
  ScenarioResult result;

  bool fail(ViolationKind kind, std::size_t op_index, std::string detail) {
    result.violations.push_back({kind, op_index, std::move(detail)});
    return false;
  }
  /// An end-of-stream or end-of-run violation, tied to no op.
  bool fail(ViolationKind kind, std::string detail) {
    return fail(kind, static_cast<std::size_t>(-1), std::move(detail));
  }
};

/// The DPS a scheme's star admission components carry: the configured
/// factory's for the EDF schemes; a fixed inert SDPS for TT, whose gate
/// synthesis has no deadline split to choose (the instance only feeds the
/// `partitioner()` accessor and reports).
std::unique_ptr<core::DeadlinePartitioner> scheme_dps(const RunContext& ctx) {
  return ctx.spec.scheme == "TT"
             ? core::make_partitioner("SDPS")
             : ctx.options.partitioner_factory(ctx.spec.scheme);
}

/// Phases B–D, shared by every star scheme: each backend kind drives the
/// reference run's op stream through `AdmissionBackend::submit` and must
/// match the reference outcome for outcome — admissions *and* typed release
/// verdicts — then hold the reference's live channel registry.
/// `reference_label` names the reference in violation details.
bool check_backends(
    RunContext& ctx, std::span<const std::string> kinds,
    std::string_view reference_label, const core::NetworkState& reference,
    const std::vector<std::optional<AdmitOutcome>>& ref_by_op,
    const std::vector<std::optional<ChannelId>>& id_by_op,
    const std::vector<std::optional<ReleaseOutcome>>& release_by_op) {
  const ScenarioSpec& spec = ctx.spec;
  std::vector<core::ChannelOp> ops;
  ops.reserve(spec.ops.size());
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const auto& op = spec.ops[i];
    if (op.kind == ScenarioOp::Kind::kAdmit) {
      ops.push_back(core::ChannelOp::admit(op.spec));
    } else {
      ops.push_back(core::ChannelOp::release(resolve_release(op, id_by_op)));
    }
  }
  const auto reference_registry = sorted_channels(reference);
  const std::string versus = " vs " + std::string(reference_label) + ": ";
  for (const std::string& kind : kinds) {
    core::BackendConfig backend_config;
    backend_config.threads = ctx.options.parallel_threads;
    // Fuzz batches are small; lower the fallback threshold so the sharded
    // paths actually execute instead of degenerating to the batched engine.
    backend_config.min_parallel_batch = 2;
    auto backend = core::make_admission_backend(
        kind, spec.topology.nodes, scheme_dps(ctx), backend_config);
    if (!backend) {
      return ctx.fail(ViolationKind::kEngineDisagreement,
                      "unknown admission backend '" + kind + "'");
    }
    const auto churn = backend->submit(ops);
    std::size_t admit_cursor = 0;
    std::size_t release_cursor = 0;
    for (std::size_t i = 0; i < spec.ops.size(); ++i) {
      if (spec.ops[i].kind == ScenarioOp::Kind::kAdmit) {
        const auto& outcome = churn.admissions[admit_cursor++];
        if (!outcomes_equal(outcome, *ref_by_op[i])) {
          return ctx.fail(ViolationKind::kEngineDisagreement, i,
                          kind + " backend: " + describe(outcome) + versus +
                              describe(*ref_by_op[i]));
        }
      } else {
        const auto& outcome = churn.releases[release_cursor++];
        if (!outcomes_equal(outcome, *release_by_op[i])) {
          return ctx.fail(ViolationKind::kReleaseDisagreement, i,
                          kind + " backend: " + describe(outcome) + versus +
                              describe(*release_by_op[i]));
        }
      }
    }
    if (sorted_channels(backend->state()) != reference_registry) {
      return ctx.fail(ViolationKind::kStateInconsistent,
                      kind + " backend's live channel registry differs "
                             "after the stream");
    }
  }
  return true;
}

/// Whether the fault plan may legitimately have touched a channel from
/// `source` to `destination`: a windowed fault on one of its two links, or
/// the crash of its source. A switch reboot puts every channel in scope and
/// is the caller's to know; a management delay touches no channel.
bool in_fault_scope(const std::vector<sim::FaultEvent>& faults,
                    NodeId source, NodeId destination) {
  for (const auto& fault : faults) {
    switch (fault.kind) {
      case sim::FaultKind::kLinkDown:
      case sim::FaultKind::kFrameLoss:
      case sim::FaultKind::kFrameCorrupt:
        if (fault.downlink ? destination == fault.node
                           : source == fault.node) {
          return true;
        }
        break;
      case sim::FaultKind::kNodeCrash:
        if (source == fault.node) return true;
        break;
      case sim::FaultKind::kSwitchReboot:
      case sim::FaultKind::kMgmtDelay:
        break;
    }
  }
  return false;
}

/// The survival contract past zero misses, which the caller checks first
/// (the fault model only removes load — a dropped frame consumed its wire
/// time first — so the deadline guarantee holds for *every* channel).
/// Channels outside every fault's scope must be loss-free; channels in
/// scope must account for every frame exactly: sent == delivered + dropped.
/// `label` ("", "TT ", "fabric ") prefixes the channel in details.
bool check_survival(RunContext& ctx, std::string_view label, ChannelId id,
                    bool in_scope, std::uint64_t sent,
                    std::uint64_t delivered, std::uint64_t dropped) {
  if (in_scope ? sent == delivered + dropped
               : dropped == 0 && sent == delivered) {
    return true;
  }
  std::ostringstream detail;
  if (in_scope) {
    detail << "faulted " << label << "channel " << id.value() << " sent "
           << sent << " but delivered " << delivered << " + dropped "
           << dropped << " does not add up";
    return ctx.fail(ViolationKind::kFaultContract, detail.str());
  }
  detail << label << "channel " << id.value();
  if (dropped != 0) {
    detail << " is outside every fault's scope but booked " << dropped
           << " fault drops";
    return ctx.fail(ViolationKind::kFaultContract, detail.str());
  }
  detail << " sent " << sent << " but delivered " << delivered;
  return ctx.fail(ViolationKind::kFrameLoss, detail.str());
}

/// Phases A–D for the EDF schemes: the reference controller run with the
/// candidate audit, the configured `AdmissionBackend` kinds over the same
/// stream, and the end-of-stream feasibility check. Fills the per-op
/// reference outcomes the later phases (multihop parity, wire replay)
/// compare against.
bool run_star_engines(
    RunContext& ctx, std::vector<std::optional<AdmitOutcome>>& ref_by_op,
    std::vector<std::optional<ChannelId>>& id_by_op,
    std::vector<std::optional<ReleaseOutcome>>& release_by_op) {
  const ScenarioSpec& spec = ctx.spec;
  const std::uint32_t nodes = spec.topology.nodes;

  AdmissionController controller(nodes, scheme_dps(ctx));
  const auto audit_dps = scheme_dps(ctx);

  // --- Phase A: reference run with the Eq 18.8/18.9 candidate audit ------
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const auto& op = spec.ops[i];
    if (op.kind == ScenarioOp::Kind::kRelease) {
      const ChannelId id = resolve_release(op, id_by_op);
      release_by_op[i] = controller.release(id);
      if (release_by_op[i]->has_value()) ++ctx.result.released;
      continue;
    }
    // The audit mirrors admission_flow's gate: candidates are only
    // requested for valid specs between known nodes with ID headroom.
    const auto& request = op.spec;
    std::vector<core::DeadlinePartition> candidates;
    bool audited = false;
    if (request.valid() && controller.state().node_exists(request.source) &&
        controller.state().node_exists(request.destination) &&
        controller.state().channel_count() <
            core::ChannelIdAllocator::kCapacity) {
      candidates = audit_dps->candidates(request, controller.state());
      audited = true;
      for (const auto& candidate : candidates) {
        if (!candidate.satisfies(request)) {
          std::ostringstream detail;
          detail << spec.scheme << " proposed d_iu=" << candidate.uplink
                 << " d_id=" << candidate.downlink << " for "
                 << request.to_string();
          return ctx.fail(ViolationKind::kPartitionInvariant, i, detail.str());
        }
      }
    }
    auto outcome = controller.request(request);
    if (outcome.has_value()) {
      ++ctx.result.admitted;
      id_by_op[i] = outcome->id;
      // Independent cross-theory audit (necessary direction): the two link
      // task sets the engine just committed must satisfy the
      // network-calculus lower envelope — EDF feasibility implies it.
      for (const auto& [node, dir] :
           {std::pair{request.source, core::LinkDirection::kUplink},
            std::pair{request.destination, core::LinkDirection::kDownlink}}) {
        const auto verdict = analysis::CalculusOracle::check_accept(
            controller.state().link(node, dir).tasks());
        ++ctx.result.oracle_checks;
        if (!verdict.consistent) {
          return ctx.fail(ViolationKind::kCalculusViolation, i,
                          std::string(core::to_string(dir)) + " of node " +
                              std::to_string(node.value()) + ": " +
                              verdict.detail);
        }
      }
    } else {
      ++ctx.result.rejected;
      // Cross-theory audit (sufficient direction): an infeasibility
      // rejection is wrong if some DPS candidate is calculus-provably
      // feasible on *both* links (check_reject reports inconsistent
      // exactly when the inflated upper envelope fits — which implies
      // exact EDF feasibility).
      const auto reason = outcome.error().reason;
      if (audited && (reason == core::RejectReason::kUplinkInfeasible ||
                      reason == core::RejectReason::kDownlinkInfeasible)) {
        for (const auto& candidate : candidates) {
          const edf::PseudoTask up{ChannelId{0}, request.period,
                                   request.capacity, candidate.uplink};
          const edf::PseudoTask down{ChannelId{0}, request.period,
                                     request.capacity, candidate.downlink};
          const auto uplink_verdict = analysis::CalculusOracle::check_reject(
              controller.state()
                  .link(request.source, core::LinkDirection::kUplink)
                  .tasks(),
              up);
          const auto downlink_verdict = analysis::CalculusOracle::check_reject(
              controller.state()
                  .link(request.destination, core::LinkDirection::kDownlink)
                  .tasks(),
              down);
          ctx.result.oracle_checks += 2;
          if (!uplink_verdict.consistent && !downlink_verdict.consistent) {
            std::ostringstream detail;
            detail << "candidate d_iu=" << candidate.uplink
                   << " d_id=" << candidate.downlink << " for "
                   << request.to_string()
                   << " rejected although both links pass the calculus "
                      "sufficiency check";
            return ctx.fail(ViolationKind::kCalculusDisagreement, i,
                            detail.str());
          }
        }
      }
    }
    ref_by_op[i] = std::move(outcome);
  }

  if (!check_backends(ctx, ctx.options.backends, "controller",
                      controller.state(), ref_by_op, id_by_op,
                      release_by_op)) {
    return false;
  }
  for (std::uint32_t n = 0; n < nodes; ++n) {
    for (const auto dir :
         {core::LinkDirection::kUplink, core::LinkDirection::kDownlink}) {
      if (!edf::is_feasible(controller.state().link(NodeId{n}, dir))) {
        return ctx.fail(ViolationKind::kInfeasibleState,
                        std::string("link of node ") + std::to_string(n) +
                            " (" + core::to_string(dir) +
                            ") infeasible after churn");
      }
    }
  }
  return true;
}

/// Phase E: the multihop path over the scenario fabric, with the k-hop
/// split audit and (when applicable) SDPS parity against the classic
/// controller's decisions.
bool run_multihop(RunContext& ctx,
                  const std::vector<std::optional<AdmitOutcome>>& ref_by_op,
                  std::vector<core::MultihopChannel>* live_channels = nullptr) {
  const ScenarioSpec& spec = ctx.spec;
  core::Topology topology = spec.topology.build();
  core::PathAdmissionController multihop(
      spec.topology.build(),
      ctx.options.path_partitioner_factory(spec.scheme));
  const auto audit_split = ctx.options.path_partitioner_factory(spec.scheme);

  // The k-way largest-remainder apportionment matches the two-link floor
  // split exactly on even deadlines under SDPS (see
  // tests/property/test_multihop_properties.cpp) — there, decisions must
  // be identical to the classic controller's.
  bool parity = spec.topology.kind == TopologyKind::kStar &&
                spec.scheme == "SDPS";
  for (const auto& op : spec.ops) {
    if (op.kind == ScenarioOp::Kind::kAdmit && op.spec.valid() &&
        op.spec.deadline % 2 != 0) {
      parity = false;
      break;
    }
  }

  std::vector<std::optional<ChannelId>> id_by_op(spec.ops.size());
  std::size_t live = 0;
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const auto& op = spec.ops[i];
    if (op.kind == ScenarioOp::Kind::kRelease) {
      if (multihop.release(resolve_release(op, id_by_op))) --live;
      continue;
    }
    const auto& request = op.spec;
    // Pre-request audit of the split, mirroring request()'s own gate.
    const bool structurally_ok =
        request.period > 0 && request.capacity > 0 &&
        request.capacity <= request.period && request.deadline > 0 &&
        topology.attachment(request.source).has_value() &&
        topology.attachment(request.destination).has_value();
    if (structurally_ok && live < core::ChannelIdAllocator::kCapacity) {
      const auto route = topology.route(request.source, request.destination);
      if (route &&
          request.deadline >= request.capacity * route->size()) {
        const auto budgets =
            audit_split->split(request, *route, multihop.state());
        Slot sum = 0;
        bool hop_floor_ok = budgets.size() == route->size();
        for (const Slot budget : budgets) {
          hop_floor_ok = hop_floor_ok && budget >= request.capacity;
          sum += budget;
        }
        if (!hop_floor_ok || sum != request.deadline) {
          std::ostringstream detail;
          detail << audit_split->name() << " split of " << request.to_string()
                 << " over " << route->size() << " hops: sum=" << sum
                 << " (want " << request.deadline << ")";
          return ctx.fail(ViolationKind::kPathSplitInvariant, i, detail.str());
        }
      }
    }
    const auto outcome = multihop.request(request);
    if (outcome.has_value()) {
      id_by_op[i] = outcome->id;
      ++live;
      if (!outcome->partition_valid()) {
        return ctx.fail(ViolationKind::kPathSplitInvariant, i,
                        "admitted multihop channel fails partition_valid()");
      }
    }
    if (parity && ref_by_op[i].has_value() &&
        outcome.has_value() != ref_by_op[i]->has_value()) {
      return ctx.fail(ViolationKind::kMultihopParity, i,
                      "multihop " +
                          std::string(outcome.has_value() ? "accepted"
                                                          : "rejected") +
                          " where classic controller did the opposite for " +
                          request.to_string());
    }
  }

  if (multihop.state().channel_count() != live) {
    return ctx.fail(ViolationKind::kStateInconsistent,
                    "multihop registry count drifted from the op stream");
  }
  if (spec.topology.kind != TopologyKind::kStar) {
    // Multi-switch scenarios have no star reference; report the multihop
    // controller's own stats.
    ctx.result.admitted = multihop.stats().accepted;
    ctx.result.rejected = multihop.stats().rejected;
    ctx.result.released = multihop.stats().released;
  }

  // Every directed link a live channel crosses must still be feasible.
  std::unordered_set<core::LinkId> links;
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    if (!id_by_op[i]) continue;
    if (const auto channel = multihop.state().find_channel(*id_by_op[i])) {
      for (const auto& link : channel->path) links.insert(link);
    }
  }
  for (const auto& link : links) {
    if (!edf::is_feasible(multihop.state().link(link))) {
      return ctx.fail(ViolationKind::kInfeasibleState,
                      "multihop link " + link.to_string() +
                          " infeasible after churn");
    }
  }
  if (live_channels != nullptr) {
    // Surviving channel set for the fabric simulation phase, in admission
    // (op) order — the FabricNetwork's construction order. A released op's
    // ID may have been recycled by a later admit, in which case both ops
    // resolve to the same live channel: keep the first occurrence.
    std::unordered_set<std::uint16_t> seen;
    for (std::size_t i = 0; i < spec.ops.size(); ++i) {
      if (!id_by_op[i]) continue;
      if (const auto channel = multihop.state().find_channel(*id_by_op[i])) {
        if (seen.insert(channel->id.value()).second) {
          live_channels->push_back(*channel);
        }
      }
    }
  }
  return true;
}

/// Fingerprints a finished fabric simulation, mirroring
/// `compute_sim_digest`'s structure: per-partition transmitter counters in
/// the canonical order, per-partition per-channel delivery records
/// (including delay-statistics bit patterns), best-effort delay aggregates,
/// and the cut-link record counts. Field order is part of the golden
/// contract — do not reorder. Every input is a deterministic function of
/// the spec (the barrier-round schedule is fixed), so this digest is
/// bit-identical across driver thread counts.
SimDigest compute_fabric_digest(const sim::FabricNetwork& fabric) {
  SimDigest digest;
  digest.executed_events = fabric.executed_events();
  Fnv1a fnv;
  for (std::size_t p = 0; p < fabric.partition_count(); ++p) {
    const sim::SimStats& stats = fabric.partition_stats(p);
    digest.rt_delivered += stats.total_rt_delivered();
    digest.deadline_misses += stats.total_deadline_misses();
    digest.best_effort_sent += stats.best_effort_sent();
    digest.best_effort_delivered += stats.best_effort_delivered();
    for (const sim::Transmitter* tx : fabric.transmitters(p)) {
      mix_transmitter(fnv, *tx);
    }
    mix_channel_stats(fnv, stats);
  }
  for (const auto& trunk : fabric.trunk_traffic()) {
    fnv.mix(trunk.from);
    fnv.mix(trunk.to);
    fnv.mix(trunk.records);
  }
  digest.link_stats_hash = fnv.value();
  return digest;
}

/// Phase F: the fabric simulation of multi-switch scenarios. The admitted
/// multihop channel set runs through the partitioned kernel
/// (sim/fabric.hpp) under the conservative barrier-round driver
/// (sim/parallel.hpp, `RunnerOptions::fabric_threads` workers), and the
/// same guarantee/survival contracts as the star phase are enforced:
/// zero deadline misses against the path-generalized Eq 18.1 allowance,
/// loss-free channels outside every fault's scope, exact frame accounting
/// (sent == delivered + dropped) inside it.
bool run_simulation_fabric(RunContext& ctx,
                           const std::vector<core::MultihopChannel>& channels) {
  const ScenarioSpec& spec = ctx.spec;
  sim::SimConfig sim_config;
  sim_config.ticks_per_slot = spec.ticks_per_slot;
  // One slot of trunk propagation: plausible for long inter-switch
  // cabling, and it widens the conservative lookahead to a full slot of
  // event work per synchronization round (see sim/config.hpp).
  sim_config.trunk_propagation_ticks = spec.ticks_per_slot;

  sim::FabricOptions fabric_options;
  fabric_options.seed = spec.seed;
  fabric_options.traffic_stop = sim_config.slots_to_ticks(spec.run_slots);
  fabric_options.with_best_effort = spec.with_best_effort;
  fabric_options.best_effort_load = spec.best_effort_load;
  fabric_options.bursty_best_effort = spec.bursty_best_effort;
  fabric_options.faults = spec.faults;

  sim::FabricNetwork fabric(sim_config, spec.topology.build(), channels,
                            fabric_options);
  sim::ParallelSimulator driver(fabric, ctx.options.fabric_threads);

  Slot max_deadline = 0;
  for (const auto& channel : channels) {
    max_deadline = std::max(max_deadline, channel.spec.deadline);
  }
  // Drain: anything released before the stop must land within its
  // deadline plus the allowance; the extra slots cover in-flight
  // self-reschedules and the multi-hop pipeline.
  const Slot drain_slots = max_deadline + 64;
  if (!driver.run_until(fabric_options.traffic_stop +
                        sim_config.slots_to_ticks(drain_slots))) {
    return ctx.fail(ViolationKind::kSimBudgetExhausted,
                    "a fabric partition tripped the runaway guard");
  }
  ctx.result.simulated_slots = spec.run_slots + drain_slots;
  ctx.result.sim_digest = compute_fabric_digest(fabric);
  ctx.result.fabric_partitions = fabric.partition_count();
  ctx.result.cut_link_records = fabric.cut_link_records();
  ctx.result.fault_injections = fabric.fault_injections();

  const auto counts = fabric.channel_counts();
  for (const auto& channel : channels) {
    const auto it = counts.find(channel.id.value());
    if (it == counts.end()) continue;  // nothing released during the run
    const sim::FabricChannelCounts& count = it->second;
    ctx.result.frames_delivered += count.delivered;
    if (count.misses != 0) {
      std::ostringstream detail;
      detail << "fabric channel " << channel.id.value() << " (d="
             << channel.spec.deadline << ", " << channel.path.size()
             << " hops) missed " << count.misses << " of " << count.sent
             << " frames";
      return ctx.fail(ViolationKind::kDeadlineMiss, detail.str());
    }
    // Fabric plans are windowed only, so scope is per node link.
    if (!check_survival(ctx, "fabric ", channel.id,
                        in_fault_scope(spec.faults, channel.spec.source,
                                       channel.spec.destination),
                        count.sent, count.delivered, count.dropped)) {
      return false;
    }
  }
  return true;
}

/// Replays the op stream over the management protocol; the wire must reach
/// the same decisions, IDs and uplink deadlines as the analytic reference
/// (`ref_by_op`). Fills `live` with the surviving established channels.
/// The wire is scheme-blind: EDF and TT replay it alike.
bool replay_wire(
    RunContext& ctx, proto::Stack& stack,
    const std::vector<std::optional<AdmitOutcome>>& ref_by_op,
    const std::vector<std::optional<ChannelId>>& id_by_op,
    const std::vector<std::optional<ReleaseOutcome>>& release_by_op,
    std::unordered_map<std::uint16_t, proto::EstablishedChannel>& live) {
  const ScenarioSpec& spec = ctx.spec;
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const auto& op = spec.ops[i];
    if (op.kind == ScenarioOp::Kind::kRelease) {
      if (!release_by_op[i].has_value() || !release_by_op[i]->has_value()) {
        continue;
      }
      const ChannelId id = resolve_release(op, id_by_op);
      const auto it = live.find(id.value());
      if (it == live.end()) {
        return ctx.fail(ViolationKind::kStateInconsistent, i,
                        "stack lost track of channel " +
                            std::to_string(id.value()));
      }
      stack.teardown(it->second);
      live.erase(it);
      continue;
    }
    const auto& request = op.spec;
    const auto established =
        stack.establish(request.source, request.destination, request.period,
                        request.capacity, request.deadline);
    const auto& reference = *ref_by_op[i];
    if (established.has_value() != reference.has_value()) {
      return ctx.fail(
          ViolationKind::kStackDivergence, i,
          "wire " +
              std::string(established.has_value()
                              ? "accepted"
                              : "rejected (" + established.error() + ")") +
              " vs analytic " + describe(reference));
    }
    if (established.has_value()) {
      if (established->id != reference->id ||
          established->uplink_deadline != reference->partition.uplink) {
        std::ostringstream detail;
        detail << "wire id=" << established->id.value()
               << " d_iu=" << established->uplink_deadline << " vs analytic "
               << describe(reference);
        return ctx.fail(ViolationKind::kStackDivergence, i, detail.str());
      }
      live.emplace(established->id.value(), *established);
    }
  }
  return true;
}

/// Worst per-position delivery-delay spread (ticks) across the live
/// channels: frame position j of a period is compared only against position
/// j of other periods — the measure the TT audit enforces at 0, computed
/// the same way for the EDF schemes so the ablation bench compares like
/// with like. Returns 0 when delay recording was off.
std::uint64_t worst_position_jitter(
    const sim::SimStats& stats,
    const std::unordered_map<std::uint16_t, proto::EstablishedChannel>&
        live) {
  std::uint64_t worst = 0;
  for (const auto& [idv, channel] : live) {
    const auto channel_stats = stats.channel(channel.id);
    if (!channel_stats) continue;
    const auto& delays = channel_stats->delivery_delays;
    const std::size_t capacity = channel.capacity;
    for (std::size_t p = 0; p < capacity && p < delays.size(); ++p) {
      Tick low = delays[p];
      Tick high = delays[p];
      for (std::size_t i = p; i < delays.size(); i += capacity) {
        low = std::min(low, delays[i]);
        high = std::max(high, delays[i]);
      }
      worst = std::max<std::uint64_t>(worst, high - low);
    }
  }
  return worst;
}

/// Phase F on the star: wire-protocol replay against the analytic
/// reference, then the Eq 18.1 guarantee and the survival contract in the
/// slot-accurate simulator. TT runs the same wire on its "tt" backend, with
/// the admitted gate tables installed into every transmitter and all senders
/// released in phase at a common slot-aligned epoch, and must also show zero
/// delivery jitter: each frame position's delivery delay is identical in
/// every period, by construction of the slot table.
bool run_simulation(
    RunContext& ctx, const std::vector<std::optional<AdmitOutcome>>& ref_by_op,
    const std::vector<std::optional<ChannelId>>& id_by_op,
    const std::vector<std::optional<ReleaseOutcome>>& release_by_op) {
  const ScenarioSpec& spec = ctx.spec;
  const bool tt = spec.scheme == "TT";
  sim::SimConfig sim_config;
  sim_config.ticks_per_slot = spec.ticks_per_slot;
  proto::Stack stack(sim_config, spec.topology.nodes,
                     core::make_admission_backend(tt ? "tt" : "controller",
                                                  spec.topology.nodes,
                                                  scheme_dps(ctx), {}));
  auto& network = stack.network();
  network.set_miss_allowance(
      sim_config.t_latency_ticks(spec.with_best_effort));
  // Steps the wire to `until`; tripping the kernel's runaway guard fails.
  const auto run_to = [&](Tick until, const char* when) {
    return network.simulator().run_until(until) ||
           ctx.fail(ViolationKind::kSimBudgetExhausted,
                    std::string("runaway guard tripped ") + when);
  };
  // TT's zero-jitter check needs the exact delay sequence; the EDF schemes
  // record it only for the jitter metric.
  const bool record_delays = tt || ctx.options.record_jitter;
  if (record_delays) {
    network.stats().set_record_delays(true);
  }

  std::unordered_map<std::uint16_t, proto::EstablishedChannel> live;
  if (!replay_wire(ctx, stack, ref_by_op, id_by_op, release_by_op, live)) {
    return false;
  }

  // The fault plan (if any) hooks every transmitter now, so windows are
  // relative to the measured run's start — establishment above ran on a
  // pristine wire and its conformance checks stay exact. Structural faults
  // are EDF-only (TT plans are rejected as malformed).
  sim::FaultInjector injector(spec.seed);
  const sim::FaultEvent* structural = nullptr;
  for (const auto& fault : spec.faults) {
    if (fault.kind == sim::FaultKind::kSwitchReboot ||
        fault.kind == sim::FaultKind::kNodeCrash) {
      structural = &fault;  // well_formed: at most one
    }
  }
  if (!spec.faults.empty()) {
    injector.install(network, spec.faults, network.now());
  }

  // Synchronous periodic senders on every surviving channel (phase 0 — the
  // worst-case aligned release pattern), optional best-effort background.
  // `live` doubles as the measured-channel roster for the end-of-run
  // checks; a reboot appends its re-registered channels to it.
  std::vector<const proto::EstablishedChannel*> channels;
  channels.reserve(live.size());
  for (const auto& [id, channel] : live) channels.push_back(&channel);
  std::sort(channels.begin(), channels.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; });

  // The measured run starts once establishment is done. TT starts it at
  // the next slot boundary, the common epoch t0: every gate stream anchors
  // its offsets at t0 and every sender releases phase 0 exactly at t0, so
  // the conflict-free residues of admission become conflict-free absolute
  // window instants on the wire — and per-position delivery delays are
  // period-invariant. The collision analysis is epoch-invariant, so any
  // common t0 works.
  const Tick ticks_per_slot = sim_config.slots_to_ticks(1);
  Tick run_start = network.now();
  if (tt) {
    if (run_start % ticks_per_slot != 0) {
      run_start += ticks_per_slot - run_start % ticks_per_slot;
    }
    const core::GateScheduleAdmission* gates =
        stack.management().admission().gate_schedule();
    RTETHER_ASSERT_MSG(gates != nullptr,
                       "the tt backend must expose its gate schedule");
    // Downlink gates shift by the store-and-forward pipeline delay: frame j
    // finishes its uplink window at u_j + 1 slots and is queued on the
    // egress port propagation + processing ticks later — with v_j ≥ u_j + 1
    // that is never after the shifted downlink window opens.
    const Tick downlink_shift =
        sim_config.propagation_ticks + sim_config.switch_processing_ticks;
    std::vector<sim::Transmitter::GateWindow> windows;
    for (std::uint32_t n = 0; n < spec.topology.nodes; ++n) {
      for (const auto dir :
           {core::LinkDirection::kUplink, core::LinkDirection::kDownlink}) {
        const core::GateTable& table = gates->gate_table(NodeId{n}, dir);
        if (table.empty()) continue;
        const Tick shift =
            dir == core::LinkDirection::kUplink ? Tick{0} : downlink_shift;
        windows.clear();
        for (const auto& reservation : table) {
          for (const Slot offset : reservation.offsets) {
            sim::Transmitter::GateWindow window;
            window.channel = reservation.id;
            window.period_ticks =
                sim_config.slots_to_ticks(reservation.period);
            window.first_open =
                run_start + sim_config.slots_to_ticks(offset) + shift;
            windows.push_back(window);
          }
        }
        sim::Transmitter& transmitter =
            dir == core::LinkDirection::kUplink
                ? network.node(NodeId{n}).uplink()
                : network.ethernet_switch().port(NodeId{n});
        transmitter.install_gate_schedule(windows);
      }
    }
  }

  Slot max_deadline = 0;
  // Senders are only ever stopped, never destroyed mid-run: a stopped
  // sender may still have one armed kernel timer pointing at it. The EDF
  // schemes start them before the background attaches, TT only once the
  // wire is parked at the epoch — the kernel breaks same-tick ties by
  // scheduling order, so each scheme's order is part of its digest.
  std::vector<std::unique_ptr<proto::PeriodicRtSender>> senders;
  for (const auto* channel : channels) {
    max_deadline = std::max(max_deadline, channel->deadline);
    senders.push_back(std::make_unique<proto::PeriodicRtSender>(
        stack.layer(channel->source), channel->id));
    if (!tt) senders.back()->start();
  }
  std::vector<std::unique_ptr<sim::BestEffortSource>> background;
  if (spec.with_best_effort) {
    sim::BestEffortProfile profile;
    profile.offered_load = spec.best_effort_load;
    profile.arrivals = spec.bursty_best_effort
                           ? sim::BestEffortArrivals::kOnOff
                           : sim::BestEffortArrivals::kPoisson;
    background = sim::attach_best_effort_everywhere(network, profile,
                                                    spec.seed ^ 0xbeefULL);
  }
  if (tt) {
    if (!run_to(run_start, "reaching the TT epoch")) return false;
    for (auto& sender : senders) sender->start();
  }

  Tick stop_at = run_start + sim_config.slots_to_ticks(spec.run_slots);
  bool rebooted = false;

  // Structural faults segment the measured run: run to the fault instant,
  // execute the fault and its recovery protocol (which steps the simulator
  // itself), then continue to the stop.
  if (structural != nullptr) {
    const Tick fault_at =
        run_start + sim_config.slots_to_ticks(structural->at_slot);
    if (!run_to(fault_at, "before the structural fault")) return false;
    if (structural->kind == sim::FaultKind::kSwitchReboot) {
      // --- Switch reboot: tables lost, nodes must re-register. ----------
      rebooted = true;
      injector.record_structural(sim::FaultKind::kSwitchReboot);
      for (auto& sender : senders) sender->stop();
      stack.management().reboot();
      for (std::uint32_t n = 0; n < spec.topology.nodes; ++n) {
        stack.layer(NodeId{n}).reset_channels();
      }
      // Re-register the surviving set in ID order over the wire; the
      // outcome must be bit-identical to admitting the same specs, in the
      // same order, on a fresh controller (the reboot erased all state, so
      // nothing else is acceptable).
      core::AdmissionController fresh(
          spec.topology.nodes, ctx.options.partitioner_factory(spec.scheme));
      std::vector<proto::EstablishedChannel> survivors;
      survivors.reserve(channels.size());
      for (const auto* channel : channels) survivors.push_back(*channel);
      std::vector<proto::EstablishedChannel> restarted;
      restarted.reserve(survivors.size());
      for (const auto& old : survivors) {
        const auto re = stack.establish(old.source, old.destination,
                                        old.period, old.capacity,
                                        old.deadline);
        ChannelSpec request;
        request.source = old.source;
        request.destination = old.destination;
        request.period = old.period;
        request.capacity = old.capacity;
        request.deadline = old.deadline;
        const auto expected = fresh.request(request);
        if (re.has_value() != expected.has_value() ||
            (re.has_value() &&
             (re->id != expected->id ||
              re->uplink_deadline != expected->partition.uplink))) {
          std::ostringstream detail;
          detail << "re-registration of old channel " << old.id.value()
                 << " (" << request.to_string() << "): wire "
                 << (re.has_value()
                         ? "id=" + std::to_string(re->id.value()) +
                               " d_iu=" + std::to_string(re->uplink_deadline)
                         : "rejected (" + re.error() + ")")
                 << " vs fresh controller " << describe(expected);
          return ctx.fail(ViolationKind::kReadmissionDivergence, detail.str());
        }
        if (re.has_value()) {
          max_deadline = std::max(max_deadline, re->deadline);
          live[re->id.value()] = *re;
          restarted.push_back(*re);
        }
      }
      // Restart the release pattern only once every survivor is back, at
      // the next boundary of the *original* slot grid. The slotted EDF
      // analysis assumes slot-aligned synchronous releases; each handshake
      // above ends at an arbitrary tick, and starting senders there would
      // offset the streams against each other by sub-slot amounts — at
      // full utilization that is a *permanent* sub-slot lateness (found by
      // the fault campaign as systematic 9-tick misses after a reboot).
      const Tick off_grid = (network.now() - run_start) % ticks_per_slot;
      if (off_grid != 0 &&
          !run_to(network.now() + (ticks_per_slot - off_grid),
                  "aligning the reboot restart")) {
        return false;
      }
      for (const auto& channel : restarted) {
        senders.push_back(std::make_unique<proto::PeriodicRtSender>(
            stack.layer(channel.source), channel.id));
        senders.back()->start();
      }
    } else {
      // --- Node crash: its channels are torn down, then the wire absorbs
      // a storm of stale/duplicate teardown frames from the dead node. ---
      injector.record_structural(sim::FaultKind::kNodeCrash);
      const NodeId crashed = structural->node;
      for (auto& sender : senders) {
        const auto it = live.find(sender->channel().value());
        if (it != live.end() && it->second.source == crashed) sender->stop();
      }
      std::vector<proto::EstablishedChannel> victims;
      const proto::EstablishedChannel* bystander = nullptr;
      for (const auto* channel : channels) {
        if (channel->source == crashed) {
          victims.push_back(*channel);
        } else if (bystander == nullptr) {
          bystander = channel;
        }
      }
      for (const auto& victim : victims) stack.teardown(victim);
      // Raw management injection, bypassing the RT layer's bookkeeping —
      // exactly what a half-dead node's retransmit buffer would emit.
      auto inject_teardown = [&](NodeId from, ChannelId id) {
        net::TeardownFrame teardown;
        teardown.rt_channel = id;
        teardown.is_ack = false;
        net::EthernetHeader ethernet;
        ethernet.destination = sim::switch_mac();
        ethernet.source = sim::node_mac(from);
        ethernet.ether_type = net::EtherType::kRtManagement;
        const auto payload = teardown.serialize();
        ByteWriter writer(net::EthernetHeader::kWireSize + payload.size());
        ethernet.serialize(writer);
        writer.write_bytes(payload);
        sim::SimFrame frame = sim::SimFrame::make(network.next_frame_id(),
                                                  std::move(writer).take(), 0,
                                                  network.now(), from);
        network.node(from).send_best_effort(std::move(frame));
      };
      // Duplicates: teardowns for channels already gone (must be re-acked
      // and ignored). Stray: a teardown for a *live* bystander channel
      // from the wrong node (must not tear it down — the bystander's
      // clean-channel check below proves it survived).
      for (const auto& victim : victims) {
        inject_teardown(crashed, victim.id);
      }
      if (bystander != nullptr) {
        inject_teardown(crashed, bystander->id);
      }
    }
    // The recovery protocol steps the simulator itself, and its management
    // handshakes queue at best-effort priority — behind whatever backlog
    // the cross-traffic built up — so recovery can overrun the nominal
    // stop by far. Running to a stop instant that is already in the past
    // would end the run mid-flight (frames stranded in queues look like
    // unbooked losses). Give the recovered network the full remainder of
    // the measured run instead.
    stop_at = std::max(
        stop_at, network.now() + sim_config.slots_to_ticks(
                                     spec.run_slots - structural->at_slot));
  }

  if (!run_to(stop_at, "during the measured run")) return false;
  for (auto& sender : senders) sender->stop();
  for (auto& source : background) source->stop();
  // Drain: anything released before the stop must land within its deadline
  // plus the allowance; one extra period covers in-flight self-reschedules.
  const Slot drain_slots = max_deadline + 64;
  if (!run_to(stop_at + sim_config.slots_to_ticks(drain_slots),
              "during the drain")) {
    return false;
  }
  ctx.result.simulated_slots =
      (stop_at - run_start) / ticks_per_slot + drain_slots;
  ctx.result.sim_digest = compute_sim_digest(network);
  ctx.result.fault_injections = injector.injections();
  if (record_delays) {
    ctx.result.worst_jitter_ticks = worst_position_jitter(network.stats(),
                                                          live);
  }

  const std::string_view label = tt ? "TT " : "";
  for (const auto& [idv, channel] : live) {
    const auto stats = network.stats().channel(channel.id);
    if (!stats) continue;  // period longer than the run; nothing released
    ctx.result.frames_delivered += stats->frames_delivered;
    if (stats->deadline_misses != 0) {
      std::ostringstream detail;
      detail << label << "channel " << channel.id.value() << " (d="
             << channel.deadline << ") missed " << stats->deadline_misses
             << " of " << stats->frames_sent << " frames; worst lateness "
             << stats->worst_lateness_ticks << " ticks";
      return ctx.fail(ViolationKind::kDeadlineMiss, detail.str());
    }
    // After a reboot every channel is in scope (and re-registration may
    // have recycled IDs across different specs, so per-ID attribution is
    // meaningless anyway).
    const bool in_scope =
        rebooted ||
        in_fault_scope(spec.faults, channel.source, channel.destination);
    if (!check_survival(ctx, label, channel.id, in_scope, stats->frames_sent,
                        stats->frames_delivered, stats->frames_dropped)) {
      return false;
    }
    // The zero-jitter contract: frame position j of every period leaves at
    // offsets (u_j, v_j) of that period, so its delivery delay is the same
    // constant in every period — delays repeat with the message capacity.
    // A drop perturbs the frame-position bookkeeping, so channels in fault
    // scope are exempt (never from the zero-miss contract).
    if (!tt || in_scope) continue;
    const auto& delays = stats->delivery_delays;
    const std::size_t capacity = channel.capacity;
    for (std::size_t i = capacity; i < delays.size(); ++i) {
      if (delays[i] != delays[i - capacity]) {
        std::ostringstream detail;
        detail << "TT channel " << channel.id.value() << " frame " << i
               << " (position " << i % capacity << ") delivered after "
               << delays[i] << " ticks vs " << delays[i - capacity]
               << " one period earlier";
        return ctx.fail(ViolationKind::kJitterViolation, detail.str());
      }
    }
  }
  return true;
}

// --- Time-triggered (TT) reference phases --------------------------------

/// Checks one link's gate table for reservation conflicts: two offset
/// streams {o + kP} and {o' + mP'} collide iff o ≡ o' (mod gcd(P, P')).
/// Returns the first conflict found, or an empty string.
std::string find_gate_conflict(const core::GateTable& table) {
  for (std::size_t a = 0; a < table.size(); ++a) {
    const auto& first = table[a];
    for (std::size_t b = a + 1; b < table.size(); ++b) {
      const auto& second = table[b];
      const Slot residue = std::gcd(first.period, second.period);
      for (const Slot oa : first.offsets) {
        for (const Slot ob : second.offsets) {
          if (oa % residue == ob % residue) {
            std::ostringstream detail;
            detail << "channels " << first.id.value() << " (P="
                   << first.period << ", offset " << oa << ") and "
                   << second.id.value() << " (P=" << second.period
                   << ", offset " << ob << ") collide mod gcd=" << residue;
            return detail.str();
          }
        }
      }
    }
  }
  return {};
}

/// Audits one admitted channel's placement against the gate-schedule
/// contract: C offsets per link, strictly increasing, store-and-forward
/// ordering v_i ≥ u_i + 1, and delivery inside min(d, P). Returns the
/// first violation found, or an empty string.
std::string audit_placement(const ChannelSpec& request,
                            const core::GatePlacement& placement) {
  const Slot horizon = std::min(request.deadline, request.period);
  std::ostringstream detail;
  if (placement.uplink.size() != request.capacity ||
      placement.downlink.size() != request.capacity) {
    detail << "placement has " << placement.uplink.size() << "/"
           << placement.downlink.size() << " offsets for capacity "
           << request.capacity;
    return detail.str();
  }
  for (std::size_t i = 0; i < placement.uplink.size(); ++i) {
    const Slot uplink = placement.uplink[i];
    const Slot downlink = placement.downlink[i];
    if (i > 0 && (uplink <= placement.uplink[i - 1] ||
                  downlink <= placement.downlink[i - 1])) {
      detail << "offsets of frame " << i << " not strictly increasing";
      return detail.str();
    }
    if (downlink < uplink + 1) {
      detail << "frame " << i << " leaves the switch (v=" << downlink
             << ") before it fully arrived (u=" << uplink << ")";
      return detail.str();
    }
    if (downlink + 1 > horizon) {
      detail << "frame " << i << " delivers at slot " << downlink + 1
             << " past min(d, P)=" << horizon;
      return detail.str();
    }
  }
  return {};
}

/// Phases A–D for the TT scheme: the reference `GateScheduleAdmission` run
/// with the per-accept placement audit, the "tt" backend over the unified
/// front door (bit-identical outcomes and registry), and the end-of-stream
/// pairwise conflict-freedom check.
bool run_star_tt(
    RunContext& ctx, std::vector<std::optional<AdmitOutcome>>& ref_by_op,
    std::vector<std::optional<ChannelId>>& id_by_op,
    std::vector<std::optional<ReleaseOutcome>>& release_by_op) {
  const ScenarioSpec& spec = ctx.spec;
  const std::uint32_t nodes = spec.topology.nodes;
  core::GateScheduleAdmission reference(nodes, scheme_dps(ctx));

  // --- Phase A: reference run with the placement audit -------------------
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const auto& op = spec.ops[i];
    if (op.kind == ScenarioOp::Kind::kRelease) {
      release_by_op[i] = reference.release(resolve_release(op, id_by_op));
      if (release_by_op[i]->has_value()) ++ctx.result.released;
      continue;
    }
    const auto& request = op.spec;
    auto outcome = reference.admit(request);
    if (outcome.has_value()) {
      ++ctx.result.admitted;
      id_by_op[i] = outcome->id;
      if (!outcome->partition.satisfies(request)) {
        std::ostringstream detail;
        detail << "TT derived d_iu=" << outcome->partition.uplink
               << " d_id=" << outcome->partition.downlink << " for "
               << request.to_string();
        return ctx.fail(ViolationKind::kPartitionInvariant, i, detail.str());
      }
      const auto placement = reference.placement(outcome->id);
      if (!placement) {
        return ctx.fail(ViolationKind::kGateConflict, i,
                        "admitted channel " +
                            std::to_string(outcome->id.value()) +
                            " has no recorded placement");
      }
      if (auto broken = audit_placement(request, *placement);
          !broken.empty()) {
        return ctx.fail(ViolationKind::kGateConflict, i,
                        request.to_string() + ": " + broken);
      }
    } else {
      ++ctx.result.rejected;
    }
    ref_by_op[i] = std::move(outcome);
  }

  const std::string tt_kind[] = {"tt"};
  if (!check_backends(ctx, tt_kind, "reference", reference.state(),
                      ref_by_op, id_by_op, release_by_op)) {
    return false;
  }
  for (std::uint32_t n = 0; n < nodes; ++n) {
    for (const auto dir :
         {core::LinkDirection::kUplink, core::LinkDirection::kDownlink}) {
      if (auto broken =
              find_gate_conflict(reference.gate_table(NodeId{n}, dir));
          !broken.empty()) {
        return ctx.fail(ViolationKind::kGateConflict,
                        std::string(core::to_string(dir)) + " of node " +
                            std::to_string(n) + ": " + broken);
      }
    }
  }
  return true;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunnerOptions& options) {
  RunnerOptions resolved = options;
  if (!resolved.partitioner_factory) {
    resolved.partitioner_factory = [](const std::string& scheme) {
      return core::make_partitioner(scheme);
    };
  }
  if (!resolved.path_partitioner_factory) {
    resolved.path_partitioner_factory = [](const std::string& scheme) {
      return core::make_path_partitioner(scheme == "SDPS" ? "SDPS" : "ADPS");
    };
  }

  RunContext ctx{spec, resolved, {}};
  if (!known_scheme(spec.scheme)) {
    // Strict: an unknown scheme must be a replayable failure, not a silent
    // fallback to some default DPS (the multihop factory used to map
    // anything unrecognized to ADPS).
    ctx.fail(ViolationKind::kMalformedSpec,
             "unknown scheme '" + spec.scheme +
                 "' (want SDPS, ADPS, UDPS, Search or TT)");
    return ctx.result;
  }
  if (!spec.well_formed()) {
    ctx.fail(ViolationKind::kMalformedSpec,
             "release targets must point back at admit ops and fault plans "
             "need a simulated wire with sane windows (structural faults: "
             "star only)");
    return ctx.result;
  }
  const bool tt = spec.scheme == "TT";
  const bool star = spec.topology.kind == TopologyKind::kStar;
  if (tt && !star) {
    ctx.fail(ViolationKind::kMalformedSpec,
             "the TT scheme runs on the star fabric only");
    return ctx.result;
  }
  if (tt) {
    for (const auto& fault : spec.faults) {
      if (fault.kind == sim::FaultKind::kSwitchReboot ||
          fault.kind == sim::FaultKind::kNodeCrash) {
        ctx.fail(ViolationKind::kMalformedSpec,
                 "TT fault plans must be windowed — the structural recovery "
                 "protocol is defined for the EDF schemes");
        return ctx.result;
      }
    }
  }

  std::vector<std::optional<AdmitOutcome>> ref_by_op(spec.ops.size());
  std::vector<std::optional<ChannelId>> id_by_op(spec.ops.size());
  std::vector<std::optional<ReleaseOutcome>> release_by_op(spec.ops.size());

  bool ok = true;
  if (star) {
    ok = tt ? run_star_tt(ctx, ref_by_op, id_by_op, release_by_op)
            : run_star_engines(ctx, ref_by_op, id_by_op, release_by_op);
  }
  // Phase E: there is no multihop generalization of the TT gate synthesis.
  std::vector<core::MultihopChannel> fabric_channels;
  if (ok && !tt) {
    ok = run_multihop(ctx, ref_by_op, star ? nullptr : &fabric_channels);
  }
  if (ok && spec.simulate && resolved.run_simulation) {
    ok = star ? run_simulation(ctx, ref_by_op, id_by_op, release_by_op)
              : run_simulation_fabric(ctx, fabric_channels);
  }
  ctx.result.passed = ok && ctx.result.violations.empty();
  return ctx.result;
}

}  // namespace rtether::scenario
