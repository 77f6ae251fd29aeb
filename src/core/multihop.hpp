#pragma once

/// @file multihop.hpp
/// k-hop generalization of the paper's deadline partitioning and admission
/// control (future work of §18.5). A channel crossing k directed links
/// splits its deadline into k parts with Σd_j = d_i (Eq 18.8 generalized)
/// and d_j ≥ C_i on every hop (Eq 18.9 generalized — hence d_i ≥ k·C_i for
/// a path of k store-and-forward hops). Per-link EDF feasibility is tested
/// exactly as in the two-link case; the soundness argument is hop-by-hop
/// identical because every queue sorts by the *global* absolute deadline
/// carried in the frame header (sim/switch.cpp, sim/fabric.hpp).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "core/admission.hpp"
#include "core/channel.hpp"
#include "core/id_allocator.hpp"
#include "core/topology.hpp"
#include "edf/feasibility.hpp"
#include "edf/task_set.hpp"

namespace rtether::core {

/// An admitted multi-hop channel: its path and per-hop deadline budgets
/// (parallel arrays; deadlines[j] belongs to path[j]).
struct MultihopChannel {
  ChannelId id;
  ChannelSpec spec;
  std::vector<LinkId> path;
  std::vector<Slot> deadlines;

  /// Generalized Eq 18.8/18.9 check.
  [[nodiscard]] bool partition_valid() const;
};

/// Per-link task sets over a fabric (the multi-switch "system state").
class PathNetworkState {
 public:
  explicit PathNetworkState(Topology topology);

  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Task set on a directed link (an empty static set if never used).
  [[nodiscard]] const edf::TaskSet& link(const LinkId& id) const;

  /// LinkLoad: channels traversing the directed link.
  [[nodiscard]] std::size_t link_load(const LinkId& id) const {
    return link(id).size();
  }

  void add_channel(const MultihopChannel& channel);
  bool remove_channel(ChannelId id);
  [[nodiscard]] std::optional<MultihopChannel> find_channel(
      ChannelId id) const;
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

 private:
  Topology topology_;
  std::unordered_map<LinkId, edf::TaskSet> links_;
  std::unordered_map<ChannelId, MultihopChannel> channels_;
};

/// Splits a deadline across a path. Implementations must return budgets
/// satisfying the generalized Eqs 18.8/18.9 for any spec with
/// deadline ≥ path_length · capacity.
class PathPartitioner {
 public:
  virtual ~PathPartitioner() = default;

  /// Per-hop budgets (same length/order as `path`).
  [[nodiscard]] virtual std::vector<Slot> split(
      const ChannelSpec& spec, const std::vector<LinkId>& path,
      const PathNetworkState& state) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Largest-remainder apportionment of `deadline` over `weights` with a
  /// lower bound of `capacity` per hop: every budget ≥ capacity, budgets
  /// sum exactly to `deadline`, surplus distributed ∝ weights.
  [[nodiscard]] static std::vector<Slot> apportion(
      Slot deadline, Slot capacity, const std::vector<double>& weights);
};

/// SDPS over k hops: equal split (the paper's Eq 18.14 generalized).
class SymmetricPathPartitioner final : public PathPartitioner {
 public:
  [[nodiscard]] std::vector<Slot> split(
      const ChannelSpec& spec, const std::vector<LinkId>& path,
      const PathNetworkState& state) const override;
  [[nodiscard]] std::string name() const override { return "SDPS"; }
};

/// ADPS over k hops: split ∝ LinkLoad of each hop (+1 for the requested
/// channel itself, as in the two-link implementation).
class AsymmetricPathPartitioner final : public PathPartitioner {
 public:
  [[nodiscard]] std::vector<Slot> split(
      const ChannelSpec& spec, const std::vector<LinkId>& path,
      const PathNetworkState& state) const override;
  [[nodiscard]] std::string name() const override { return "ADPS"; }
};

/// Factory: "SDPS" or "ADPS".
[[nodiscard]] std::unique_ptr<PathPartitioner> make_path_partitioner(
    const std::string& name);

/// Admission control over a fabric: route, split, per-link two-constraint
/// feasibility on every hop, commit or reject with no residue.
///
/// Each directed link carries an `edf::LinkScanCache`, exactly like the
/// star engines: a hop's trial is an O(checkpoints) merge-walk
/// (`check_with`), an accepted channel `commit`s into every hop's cache and
/// a release `downdate`s them — the k-hop generalization of the star
/// release fast path. Decisions and diagnostics are bit-identical to a
/// from-scratch `check_feasibility` of link ∪ task per hop, under any scan
/// strategy.
class PathAdmissionController {
 public:
  PathAdmissionController(Topology topology,
                          std::unique_ptr<PathPartitioner> partitioner);

  [[nodiscard]] Expected<MultihopChannel, Rejection> request(
      const ChannelSpec& spec);

  /// Releases an established channel; typed `kUnknownChannel` rejection if
  /// the ID is not live. O(affected hops): every traversed link's cache is
  /// downdated in place.
  [[nodiscard]] ReleaseOutcome release(ChannelId id);

  [[nodiscard]] const PathNetworkState& state() const { return state_; }
  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }

 private:
  PathNetworkState state_;
  std::unique_ptr<PathPartitioner> partitioner_;
  ChannelIdAllocator ids_;
  AdmissionStats stats_;
  /// Per-directed-link scan caches. A link absent here is in the
  /// default-constructed state, which shadows the empty task set
  /// `PathNetworkState::link` reports for untouched links.
  std::unordered_map<LinkId, edf::LinkScanCache> caches_;
};

}  // namespace rtether::core
