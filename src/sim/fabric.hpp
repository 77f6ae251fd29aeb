#pragma once

/// @file fabric.hpp
/// Multi-switch fabric simulation, partitioned for the parallel driver
/// (sim/parallel.hpp).
///
/// A fabric of S switches becomes S partitions: partition p owns switch p,
/// every end-node attached to it, and one typed event kernel (`Simulator`)
/// with its own calendar queue and `FrameArena`. The transmitters of
/// partition p are the uplinks and downlinks of its local nodes plus the
/// out-going trunks of switch p; a channel's frames ride
/// uplink → trunk* → downlink with the *global* absolute deadline from the
/// frame header as the EDF key on every switch hop (see core/multihop.hpp)
/// and the admitted first-hop budget d_0 as the uplink key —
/// exactly the star semantics generalized to k hops.
///
/// **Cut links.** A trunk p→q is the only coupling between partitions.
/// When a trunk transmission completes at tick c, the frame arrives —
/// fully store-and-forward processed — at switch q at
/// `c + trunk_propagation_ticks + switch_processing_ticks`; that sum is
/// the conservative lookahead `L`. The frame crosses as a POD record
/// `(tick, sequence, image)` through a lock-free SPSC ring
/// (common/spsc_channel.hpp): the producer serializes the frame bytes into
/// the record and releases its arena slot immediately, the consumer
/// rebuilds the frame in its own arena. Carrying the bytes by value
/// (instead of a `FrameIndex` into the producer's arena) is what keeps the
/// consumer race-free against the producer's allocator.
///
/// **Determinism.** The driver executes fixed barrier rounds: round k runs
/// every partition over the tick window `(target_{k-1}, target_k]` with
/// `target_k − target_{k-1} ≤ L`, and a global fork/join barrier between
/// rounds. A record emitted during round k carries an arrival tick
/// strictly beyond `target_k`, so the set of records a partition drains at
/// the start of round k+1 — everything with `tick ≤ target_{k+1}` — is
/// complete (emitted at least one barrier ago) and independent of thread
/// timing. Because the round schedule itself is fixed, every partition
/// executes a bitwise-identical event sequence (same kernel sequence
/// numbers, same same-tick tie-breaks) for *any* thread count, including
/// the inline sequential driver — which is why the fabric digest is
/// bit-identical across `threads ∈ {0,1,2,4,8}` by construction rather
/// than by careful merging.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "common/spsc_channel.hpp"
#include "common/types.hpp"
#include "core/multihop.hpp"
#include "core/topology.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/transmitter.hpp"

namespace rtether::sim {

/// Knobs of one fabric run. Traffic (periodic senders, best-effort
/// sources) emits releases while `now < traffic_stop`; the drain phase
/// beyond it only flushes in-flight frames.
struct FabricOptions {
  std::uint64_t seed{1};
  /// First tick at which no new traffic is released (= run length).
  Tick traffic_stop{0};
  bool with_best_effort{false};
  double best_effort_load{0.2};
  bool bursty_best_effort{false};
  /// Windowed fault plan (kLinkDown / kFrameLoss / kFrameCorrupt on node
  /// links); structural and management kinds are skipped — they belong to
  /// the star's establishment protocol, which the fabric does not model.
  std::vector<FaultEvent> faults;
};

/// Merged (across partitions) per-channel accounting for the survival
/// contract: a channel's sends book at the source partition, deliveries
/// and CRC discards at the destination, windowed drops wherever the
/// faulted link lives.
struct FabricChannelCounts {
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  std::uint64_t misses{0};
  std::uint64_t dropped{0};
};

/// One directed cut link's traffic, for the bench's cut-share metric.
struct TrunkTraffic {
  std::uint32_t from{0};
  std::uint32_t to{0};
  std::uint64_t records{0};
};

class FabricNetwork {
 public:
  /// Builds the partitions, transmitters, routes, periodic senders,
  /// best-effort sources and fault hooks for the admitted channel set.
  /// Paths must be valid routes of `topology` (they are — the multihop
  /// admission controller produced them). All construction is
  /// deterministic in the iteration order of its inputs.
  FabricNetwork(const SimConfig& config, const core::Topology& topology,
                std::span<const core::MultihopChannel> channels,
                FabricOptions options);

  FabricNetwork(const FabricNetwork&) = delete;
  FabricNetwork& operator=(const FabricNetwork&) = delete;

  [[nodiscard]] std::size_t partition_count() const {
    return partitions_.size();
  }

  /// Conservative lookahead of every cut link:
  /// `trunk_propagation_ticks + switch_processing_ticks`.
  [[nodiscard]] Tick lookahead() const { return lookahead_; }

  /// One barrier round of partition `p`: drain due cut-link records, run
  /// the kernel to `target`, flush spilled records. The driver may invoke
  /// distinct partitions concurrently, the same partition never; `target`
  /// must advance by at most `lookahead()` per round, identically for all
  /// partitions. False when the event budget was exhausted (the whole run
  /// is then failed).
  [[nodiscard]] bool run_round(std::size_t p, Tick target,
                               std::uint64_t max_events);

  /// A partition exhausted its budget or overflowed a cut-link spill.
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }

  // --- Results (call after the run; not thread-safe) ---------------------

  /// Events executed across all partition kernels.
  [[nodiscard]] std::uint64_t executed_events() const;

  /// Per-partition stats, digest-stable iteration (partition index order;
  /// `SimStats::channels()` is itself sorted).
  [[nodiscard]] const SimStats& partition_stats(std::size_t p) const;
  [[nodiscard]] const Simulator& kernel(std::size_t p) const;

  /// Canonical transmitter order of partition `p` for digests: local node
  /// uplinks (node id ascending), then downlinks, then out-trunks
  /// (destination switch ascending).
  [[nodiscard]] std::vector<const Transmitter*> transmitters(
      std::size_t p) const;

  /// Merged per-channel accounting (key: channel id value).
  [[nodiscard]] std::map<std::uint16_t, FabricChannelCounts> channel_counts()
      const;

  /// Delivery allowance of a channel (ticks beyond d_i): every
  /// propagation and processing latency along its path, plus one maximal
  /// frame of non-preemption blocking per hop when best-effort traffic
  /// shares the links — the k-hop generalization of Eq 18.1's T_latency.
  [[nodiscard]] Tick allowance(std::uint16_t channel_id) const;

  /// Directed cut links and their record counts, `(from, to)` ascending.
  [[nodiscard]] std::vector<TrunkTraffic> trunk_traffic() const;
  /// Total records that crossed any cut link.
  [[nodiscard]] std::uint64_t cut_link_records() const;

  /// Per-fault-class frames affected, merged across partitions.
  [[nodiscard]] std::array<std::uint64_t, kFaultKindCount> fault_injections()
      const;

 private:
  /// Serialized POD snapshot of a frame crossing a cut link. RT data
  /// frames carry 42 header bytes on the wire; the cap leaves headroom.
  struct FrameImage {
    static constexpr std::size_t kMaxBytes = 64;
    std::uint64_t id{0};
    std::uint64_t extra_payload_bytes{0};
    Tick created_at{0};
    std::uint32_t origin{0};
    std::uint16_t byte_count{0};
    bool corrupted{false};
    std::uint8_t bytes[kMaxBytes]{};
  };

  /// The SPSC record: arrival tick at the consumer switch (already
  /// including trunk propagation + store-and-forward processing), the
  /// producer's per-edge FIFO sequence, and the frame by value.
  struct FabricRecord {
    Tick tick{0};
    std::uint64_t sequence{0};
    FrameImage image;
  };

  /// One armed fault window on a node link.
  struct FaultWindow {
    FaultKind kind{FaultKind::kFrameLoss};
    Tick from{0};
    Tick to{0};
    double probability{0.0};
    std::uint64_t salt{0};
  };

  struct Partition;

  /// Per-transmitter context: which link this is, where its frames go.
  /// Stable addresses (deque) — registered as raw sink/fault contexts.
  struct HopPort {
    enum class Role : std::uint8_t { kUplink, kTrunk, kDownlink };

    FabricNetwork* net{nullptr};
    std::uint32_t partition{0};
    Role role{Role::kUplink};
    /// kUplink: the sending node; kDownlink: the destination node.
    std::uint32_t node{0};
    /// kTrunk: index into edges_.
    std::uint32_t edge{0};
    Transmitter* tx{nullptr};
    std::vector<FaultWindow> windows;
  };

  /// One directed cut link p→q. The ring is the only producer/consumer
  /// coupling; everything else is single-sided (producer: spill + both
  /// sequence/record counters during its round; consumer: drained
  /// sequence during its round — never the same round for both roles of
  /// one side, and barrier-ordered across rounds).
  struct CutEdge {
    std::uint32_t from{0};
    std::uint32_t to{0};
    SpscChannel<FabricRecord> ring{kRingCapacity};
    /// Producer-side overflow, flushed (in order) at round end. With a
    /// 1024-record ring and at most `lookahead()` records per round per
    /// edge (the trunk wire serializes ≥ 1 tick per frame) this never
    /// engages; it exists so an overflow degrades to a failed run instead
    /// of silent loss.
    std::vector<FabricRecord> spill;
    std::size_t spill_pos{0};
    std::uint64_t next_sequence{0};
    std::uint64_t drained_sequence{0};
    std::uint64_t records{0};
  };

  /// Periodic sender of one admitted channel (source partition). Emits
  /// C_i maximal frames every P_i slots from tick 0, mirroring the star's
  /// RT layer frame construction byte for byte.
  struct Sender {
    FabricNetwork* net{nullptr};
    std::uint32_t partition{0};
    std::uint16_t channel{0};
    std::uint32_t source{0};
    std::uint32_t destination{0};
    Slot capacity{0};
    Tick period_ticks{0};
    /// ticks(d_i): release + this = the absolute deadline in the tag.
    Tick deadline_ticks{0};
    /// ticks(d_0): release + this = the uplink EDF key (first-hop budget).
    Tick uplink_key_ticks{0};
    HopPort* uplink{nullptr};
  };

  /// Fabric-local best-effort source: same interarrival process as the
  /// star's BestEffortSource, destinations uniform among same-switch
  /// peers (best-effort never crosses trunks — trunks are the fabric's
  /// reserved RT backbone, and keeping them cross-traffic-free is also
  /// what keeps the cut-link record rate bounded by the lookahead).
  struct BeSource {
    FabricNetwork* net{nullptr};
    std::uint32_t partition{0};
    std::uint32_t node{0};
    Rng rng{1};
    bool on_phase{false};
    bool bursty{false};
    double load{0.2};
  };

  struct Partition {
    FabricNetwork* net{nullptr};
    std::uint32_t index{0};
    Simulator sim;
    SimStats stats;
    std::deque<Transmitter> txs;
    std::deque<HopPort> ports;
    /// Attached global node ids, ascending.
    std::vector<std::uint32_t> nodes;
    /// Indices into edges_, destination ascending / source ascending.
    std::vector<std::uint32_t> out_edges;
    std::vector<std::uint32_t> in_edges;
    /// channel id value → the local transmitter a frame arriving (fully
    /// processed) at this switch enters next (trunk or downlink).
    std::unordered_map<std::uint16_t, HopPort*> next_hop;
    std::uint64_t next_frame_id{1};
    std::array<std::uint64_t, kFaultKindCount> injections{};
  };

  static constexpr std::size_t kRingCapacity = 1024;

  // Kernel timer / sink callbacks (raw function pointers, alloc-free).
  static void on_handoff(void* context, FrameIndex frame, Tick completion);
  static void on_fault_drop(void* context, const SimFrame& frame);
  static Transmitter::FaultDecision on_fault(void* context,
                                             const SimFrame& frame, Tick now);
  static void on_switch_arrival(void* context, std::uint64_t arg, Tick now);
  static void on_deliver(void* context, std::uint64_t arg, Tick now);
  static void on_sender_release(void* context, std::uint64_t arg, Tick now);
  static void on_best_effort_arrival(void* context, std::uint64_t arg,
                                     Tick now);

  void build_partitions(const core::Topology& topology);
  void build_channels(std::span<const core::MultihopChannel> channels);
  void build_best_effort();
  void build_faults();

  /// Frame arriving — store-and-forward complete — at partition's switch:
  /// CRC-discard corrupted frames, else enqueue at the next hop.
  void arrive_at_switch(Partition& part, FrameIndex frame);
  void emit_message(Sender& sender, Tick release);
  void emit_best_effort(BeSource& source, Tick now);
  double be_mean_interarrival_ticks(const BeSource& source) const;
  void schedule_be_arrival(BeSource& source);

  void push_record(Partition& part, CutEdge& edge, Tick arrival,
                   FrameIndex frame);
  void drain_inputs(Partition& part, Tick target);
  void inject(Partition& part, const FabricRecord& record);
  void flush_spill(Partition& part);

  SimConfig config_;
  FabricOptions options_;
  Tick lookahead_{0};
  std::deque<Partition> partitions_;
  std::deque<CutEdge> edges_;
  std::deque<Sender> senders_;
  std::deque<BeSource> be_sources_;
  /// Global node → partition / ports (delivery + best-effort routing).
  std::vector<std::uint32_t> node_partition_;
  std::vector<HopPort*> node_uplink_;
  std::vector<HopPort*> node_downlink_;
  /// channel id value → delivery allowance (ticks).
  std::unordered_map<std::uint16_t, Tick> allowance_;
  /// Set on budget exhaustion / spill overflow; sticky. The only
  /// cross-partition shared state outside the SPSC rings (atomic —
  /// -Wthread-safety needs no capability for it).
  std::atomic<bool> failed_{false};
};

}  // namespace rtether::sim
