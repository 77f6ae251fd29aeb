#include "core/parallel_admission.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "core/admission_internal.hpp"

namespace rtether::core {

using admission_internal::key_direction;
using admission_internal::key_node;
using admission_internal::link_key;

namespace {

/// How the pre-pass classified one op of a batch.
enum class OpKind : std::uint8_t {
  kInvalid,  ///< admit failing ChannelSpec::valid(); rejected at merge
  kUnknown,  ///< admit naming a node outside the network; rejected at merge
  kAdmit,    ///< admit decided by a shard worker
  kRelease,  ///< release of a channel live at batch start, applied in-shard
};

/// One admit's verdict as computed by a shard worker.
struct Decision {
  bool accepted{false};
  DeadlinePartition partition{};
  RejectReason reason{RejectReason::kUplinkInfeasible};
  std::string detail;
};

void append(ChurnResult& into, ChurnResult&& from) {
  for (auto& outcome : from.admissions) {
    into.admissions.push_back(std::move(outcome));
  }
  for (auto& outcome : from.releases) {
    into.releases.push_back(std::move(outcome));
  }
}

[[nodiscard]] std::size_t uplink_key(const ChannelSpec& spec) {
  return link_key(spec.source, LinkDirection::kUplink);
}

[[nodiscard]] std::size_t downlink_key(const ChannelSpec& spec) {
  return link_key(spec.destination, LinkDirection::kDownlink);
}

}  // namespace

/// Everything one worker needs, owned exclusively for the batch: the shard's
/// op indices (stream order), its links, the engine's per-link caches
/// (borrowed — moved out and later moved back), a placeholder channel ID per
/// admit drawn from the allocator's free pool so local trial commits can
/// never collide with a live ID, and the admits' verdicts in stream order.
/// Cache-line aligned: workers write their shard's fields on every trial.
struct alignas(64) ParallelAdmissionEngine::Shard {
  std::vector<std::uint32_t> ops;
  std::vector<std::size_t> links;
  std::vector<ChannelId> placeholders;
  std::vector<edf::LinkScanCache> caches;
  std::vector<Decision> decisions;
  AdmissionStats stats;
};

ParallelAdmissionEngine::ParallelAdmissionEngine(
    std::uint32_t node_count, std::unique_ptr<DeadlinePartitioner> partitioner,
    ParallelAdmissionConfig config)
    : engine_(node_count, std::move(partitioner)),
      pool_(1 + (config.threads != 0
                     ? config.threads
                     : std::max(1u, std::thread::hardware_concurrency()))),
      min_parallel_batch_(config.min_parallel_batch),
      released_(ChannelIdAllocator::kCapacity + 1, false) {}

AdmitOutcome ParallelAdmissionEngine::admit(const ChannelSpec& spec) {
  return engine_.admit(spec);
}

ReleaseOutcome ParallelAdmissionEngine::release(ChannelId id) {
  return engine_.release(id);
}

ChurnResult ParallelAdmissionEngine::process(std::span<const ChannelOp> ops) {
  last_shard_count_ = ops.empty() ? 0 : 1;
  // Short streams would pay more in shard setup than the analysis costs;
  // they run the sequential engine — decisions are identical on every
  // path, only wall clock differs. The pool always holds at least two
  // threads (the caller claims shards too), so length alone decides.
  if (ops.size() < min_parallel_batch_) {
    return engine_.process(ops);
  }

  // Cut the stream into batches at each release a shard cannot decide: one
  // whose ID was not live at batch start (it may name an admit of this very
  // batch, whose ID only the merge assigns) or was already released earlier
  // in the batch (the ID may have been recycled by an admit in between).
  // That release runs on the merged state, at its exact stream position.
  ChurnResult result;
  const auto admits = static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const ChannelOp& op) {
        return op.kind == ChannelOp::Kind::kAdmit;
      }));
  result.admissions.reserve(admits);
  result.releases.reserve(ops.size() - admits);
  std::size_t begin = 0;
  while (begin < ops.size()) {
    std::size_t end = begin;
    for (; end < ops.size(); ++end) {
      const ChannelOp& op = ops[end];
      if (op.kind != ChannelOp::Kind::kRelease) {
        continue;
      }
      if (!engine_.ids_.is_live(op.id) || released_[op.id.value()]) {
        break;
      }
      released_[op.id.value()] = true;
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (ops[i].kind == ChannelOp::Kind::kRelease) {
        released_[ops[i].id.value()] = false;
      }
    }
    process_batch(ops.subspan(begin, end - begin), result);
    if (end == ops.size()) {
      break;
    }
    result.releases.push_back(engine_.release(ops[end].id));
    begin = end + 1;
  }
  return result;
}

void ParallelAdmissionEngine::process_batch(std::span<const ChannelOp> batch,
                                            ChurnResult& result) {
  if (batch.size() < min_parallel_batch_) {
    append(result, engine_.process(batch));
    return;
  }
  const std::uint32_t node_count = engine_.state().node_count();
  const std::size_t key_space = std::size_t{node_count} * 2;

  // Phase 1a — classify and build the link-conflict graph. `subject[i]` is
  // the channel op i creates (spec only) or tears down (the live record);
  // either way its two link directions are an edge of the graph.
  std::vector<OpKind> kind(batch.size());
  std::vector<RtChannel> subject(batch.size());
  admission_internal::LinkUnionFind components(key_space);
  std::size_t admits = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ChannelOp& op = batch[i];
    if (op.kind == ChannelOp::Kind::kRelease) {
      const auto channel = engine_.state().find_channel(op.id);
      RTETHER_ASSERT_MSG(channel.has_value(), "batch cut missed a release");
      kind[i] = OpKind::kRelease;
      subject[i] = *channel;
    } else if (!op.spec.valid()) {
      kind[i] = OpKind::kInvalid;
      continue;
    } else if (!engine_.state().node_exists(op.spec.source) ||
               !engine_.state().node_exists(op.spec.destination)) {
      kind[i] = OpKind::kUnknown;
      continue;
    } else {
      kind[i] = OpKind::kAdmit;
      subject[i].spec = op.spec;
      ++admits;
    }
    components.unite(uplink_key(subject[i].spec),
                     downlink_key(subject[i].spec));
  }

  // Channel-ID headroom: the sequential flow rejects with
  // kChannelIdsExhausted exactly when the allocator runs dry mid-stream,
  // which depends on global acceptance order — not reproducible shard-
  // locally. With enough headroom the case cannot arise (releases only ever
  // add headroom); without it, the whole batch takes the sequential path.
  if (admits == 0 ||
      engine_.ids_.live_count() + admits > ChannelIdAllocator::kCapacity) {
    append(result, engine_.process(batch));
    return;
  }

  // Phase 1b — group ops into shards (one per connected component, stream
  // order preserved by the ascending index walk).
  std::vector<std::int32_t> shard_of_root(key_space, -1);
  std::vector<std::uint32_t> shard_of_op(batch.size());
  std::vector<Shard> shards;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (kind[i] != OpKind::kAdmit && kind[i] != OpKind::kRelease) {
      continue;
    }
    const std::uint32_t root = components.find(uplink_key(subject[i].spec));
    if (shard_of_root[root] < 0) {
      shard_of_root[root] = static_cast<std::int32_t>(shards.size());
      shards.emplace_back();
    }
    shard_of_op[i] = static_cast<std::uint32_t>(shard_of_root[root]);
    shards[shard_of_op[i]].ops.push_back(static_cast<std::uint32_t>(i));
  }

  if (shards.size() == 1) {
    // One giant component (e.g. uniform all-to-all traffic): sharding buys
    // nothing, skip the projection overhead.
    append(result, engine_.process(batch));
    return;
  }

  // Phase 1c — per-shard link membership. `slot_of_key` maps a link key to
  // its index within *its* shard's cache array; keys are partitioned across
  // shards, so one global table suffices (read-only while workers run).
  std::vector<std::int32_t> slot_of_key(key_space, -1);
  for (auto& shard : shards) {
    for (const std::uint32_t i : shard.ops) {
      for (const std::size_t key :
           {uplink_key(subject[i].spec), downlink_key(subject[i].spec)}) {
        if (slot_of_key[key] < 0) {
          slot_of_key[key] = static_cast<std::int32_t>(shard.links.size());
          shard.links.push_back(key);
        }
      }
    }
  }

  // Phase 1d — placeholder IDs. Trial commits inside a worker install
  // pseudo-tasks under a temporary channel ID; drawing those from the
  // allocator's free pool (allocate-then-release keeps the allocator
  // unchanged) guarantees no collision with live channels — including the
  // ones this batch releases — or with other shards.
  std::vector<ChannelId> free_ids;
  free_ids.reserve(admits);
  for (std::size_t n = 0; n < admits; ++n) {
    const auto id = engine_.ids_.allocate();
    RTETHER_ASSERT_MSG(id.has_value(), "headroom guard miscounted");
    free_ids.push_back(*id);
  }
  for (const ChannelId id : free_ids) {
    const bool was_live = engine_.ids_.release(id);
    RTETHER_ASSERT(was_live);
  }
  {
    auto next = free_ids.begin();
    for (auto& shard : shards) {
      for (const std::uint32_t i : shard.ops) {
        if (kind[i] == OpKind::kAdmit) {
          shard.placeholders.push_back(*next++);
        }
      }
      shard.decisions.resize(shard.placeholders.size());
    }
  }

  // Phase 1e — borrow the engine's caches (cheap vector-swap moves; must
  // stay sequential because the engine owns them until here).
  for (auto& shard : shards) {
    shard.caches.resize(shard.links.size());
    for (std::size_t slot = 0; slot < shard.links.size(); ++slot) {
      const std::size_t key = shard.links[slot];
      shard.caches[slot] =
          std::move(engine_.cache(key_node(key), key_direction(key)));
    }
  }

  // Phase 2 — decide every shard concurrently. Workers touch only their
  // own shard and read-only shared inputs (the batch, subject, slot_of_key,
  // the engine's — frozen — network state, the stateless partitioner).
  const DeadlinePartitioner& partitioner = engine_.partitioner();
  auto decide = [&](std::size_t si) {
    Shard& shard = shards[si];
    auto cache_of = [&](std::size_t key) -> edf::LinkScanCache& {
      return shard.caches[static_cast<std::size_t>(slot_of_key[key])];
    };

    // Project the network state: wholesale copies of exactly this shard's
    // links (task order and accumulated floating-point utilization
    // preserved), so partitioners and diagnostics observe exactly the
    // sequential numbers. Built and dropped by the worker itself — the
    // copies are part of the parallel phase, not the sequential prologue.
    NetworkState local(engine_.state().node_count());
    for (const std::size_t key : shard.links) {
      const NodeId node = key_node(key);
      const LinkDirection dir = key_direction(key);
      local.adopt_link(node, dir, engine_.state().link(node, dir));
    }

    // Per-link batch pre-pass, same as the sequential engine's
    // prepare_links but scoped (and parallelized) per shard. Grids never
    // affect verdicts, so sizing once for the whole batch — across the
    // releases in it — is pure throughput.
    std::vector<std::vector<ChannelSpec>> groups(shard.links.size());
    for (const std::uint32_t i : shard.ops) {
      if (kind[i] != OpKind::kAdmit) {
        continue;
      }
      const ChannelSpec& spec = subject[i].spec;
      groups[static_cast<std::size_t>(slot_of_key[uplink_key(spec)])]
          .push_back(spec);
      groups[static_cast<std::size_t>(slot_of_key[downlink_key(spec)])]
          .push_back(spec);
    }
    for (std::size_t slot = 0; slot < shard.links.size(); ++slot) {
      const std::size_t key = shard.links[slot];
      admission_internal::reserve_link_horizon(
          local.link(key_node(key), key_direction(key)), shard.caches[slot],
          groups[slot]);
    }

    auto placeholder = shard.placeholders.begin();
    auto out = shard.decisions.begin();
    for (const std::uint32_t i : shard.ops) {
      const RtChannel& channel = subject[i];
      const ChannelSpec& spec = channel.spec;
      edf::LinkScanCache& uplink_cache = cache_of(uplink_key(spec));
      edf::LinkScanCache& downlink_cache = cache_of(downlink_key(spec));

      if (kind[i] == OpKind::kRelease) {
        // The link half of `AdmissionEngine::release`; the registry, ID and
        // stat half runs at merge.
        auto unlink = [&](NodeId node, LinkDirection dir, Slot deadline,
                          edf::LinkScanCache& cache) {
          const bool removed = local.remove_link_task(node, dir, channel.id);
          RTETHER_ASSERT(removed);
          cache.downdate(local.link(node, dir),
                         {channel.id, spec.period, spec.capacity, deadline});
        };
        unlink(spec.source, LinkDirection::kUplink, channel.partition.uplink,
               uplink_cache);
        unlink(spec.destination, LinkDirection::kDownlink,
               channel.partition.downlink, downlink_cache);
        continue;
      }

      // The DPS-candidate loop, identical to `admission_flow`'s (validation
      // and ID allocation are handled by the pre-pass and merge phases).
      Decision& decision = *out++;
      const ChannelId id = *placeholder++;
      const auto candidates = partitioner.candidates(spec, local);
      RTETHER_ASSERT_MSG(!candidates.empty(), "DPS returned no candidates");
      RejectReason reason = RejectReason::kUplinkInfeasible;
      std::string why;
      for (const auto& partition : candidates) {
        RTETHER_ASSERT_MSG(partition.satisfies(spec),
                           "DPS candidate violates Eq 18.8/18.9");
        if (admission_internal::cached_candidate_test(
                local, uplink_cache, downlink_cache, shard.stats, spec, id,
                partition, reason, why)) {
          decision.accepted = true;
          decision.partition = partition;
          break;
        }
      }
      if (!decision.accepted) {
        decision.reason = reason;
        decision.detail = std::move(why);
      }
    }
  };
  // The pool's workers and this thread claim shards dynamically, so
  // uneven shards balance.
  pool_.run(shards.size(), decide);

  // Phase 3 — merge in stream order. Releases leave the registry and free
  // their IDs at their own positions, and real channel IDs are allocated
  // here, smallest-free-first over the global sequence — exactly the IDs
  // the sequential controller would have assigned. Rejections for
  // invalid/unknown specs are materialized with the shared detail builders,
  // so their strings cannot drift from the sequential path either.
  AdmissionStats& stats = engine_.stats_;
  std::vector<std::size_t> next_decision(shards.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ChannelSpec& spec = batch[i].spec;
    switch (kind[i]) {
      case OpKind::kInvalid:
        ++stats.requested;
        ++stats.rejected;
        result.admissions.push_back(Unexpected(
            Rejection{RejectReason::kInvalidSpec,
                      admission_internal::invalid_spec_detail(spec)}));
        break;
      case OpKind::kUnknown:
        ++stats.requested;
        ++stats.rejected;
        result.admissions.push_back(Unexpected(
            Rejection{RejectReason::kUnknownNode, spec.to_string()}));
        break;
      case OpKind::kRelease: {
        const ChannelId id = batch[i].id;
        const bool released = admission_internal::release_channel(
                                  engine_.state_, engine_.ids_, stats, id)
                                  .has_value();
        RTETHER_ASSERT(released);
        result.releases.emplace_back(id);
        break;
      }
      case OpKind::kAdmit: {
        ++stats.requested;
        Shard& shard = shards[shard_of_op[i]];
        Decision& decision = shard.decisions[next_decision[shard_of_op[i]]++];
        if (decision.accepted) {
          const auto id = engine_.ids_.allocate();
          RTETHER_ASSERT_MSG(id.has_value(),
                             "headroom guard admitted too many channels");
          const RtChannel channel{*id, spec, decision.partition};
          engine_.state_.add_channel(channel);
          ++stats.accepted;
          result.admissions.push_back(channel);
        } else {
          ++stats.rejected;
          result.admissions.push_back(Unexpected(
              Rejection{decision.reason, std::move(decision.detail)}));
        }
        break;
      }
    }
  }

  // Return the borrowed caches. They tracked the shard-local task sets,
  // which the merge just replayed (ID-agnostically) into the real state, so
  // shadow and state are in sync again.
  for (auto& shard : shards) {
    for (std::size_t slot = 0; slot < shard.links.size(); ++slot) {
      const std::size_t key = shard.links[slot];
      engine_.cache(key_node(key), key_direction(key)) =
          std::move(shard.caches[slot]);
    }
    stats.feasibility_tests += shard.stats.feasibility_tests;
    stats.demand_evaluations += shard.stats.demand_evaluations;
  }

  last_shard_count_ = std::max(last_shard_count_, shards.size());
}

}  // namespace rtether::core
