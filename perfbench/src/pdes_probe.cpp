/// The pdes.* probe of the traced run: a multi-switch line fabric on the
/// conservative parallel simulator.
///
/// Four switches in a line, 64 end-nodes each, with a fixed set of
/// cross-switch RT channel requests admitted through the multihop
/// controller and bursty best-effort traffic from the run's seed. The probe
/// sweeps the simulator's worker count (0 is the inline schedule), requires
/// bit-identical digests across the sweep, and drives the inline round
/// schedule by hand to time each partition's share of every round.
///
/// The fabric is not an end-to-end workload: on a shared host its figures
/// follow the neighbours' load more than the program. The 2-worker run
/// slowed whole 20-s runs by up to 2.5x when fewer than two CPUs were free,
/// and even the inline run, whose 39 MB working set is the largest of the
/// benchmark, spread its throughput by 0.34 over ten runs on a 4-vCPU cloud
/// host, while the host-speed kernel moved by 0.2.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/multihop.hpp"
#include "core/topology.hpp"
#include "sim/fabric.hpp"
#include "sim/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rtether;

constexpr std::uint32_t kSwitches = 4;
constexpr std::uint32_t kNodesPerSwitch = 64;
constexpr std::uint32_t kNodes = kSwitches * kNodesPerSwitch;
constexpr std::size_t kRequestsPerNode = 8;
constexpr Slot kPeriods[] = {40, 80, 160};
constexpr Tick kTicksPerSlot = 16;
constexpr double kBestEffortLoad = 0.5;
constexpr unsigned kThreads = 2;
constexpr Slot kChunkSlots = 64;
/// Seed of the fixed channel request set.
constexpr std::uint64_t kRequestSeed = 0xfab1;
/// Worker threads never outnumber the host's hardware threads.
unsigned capped_threads(unsigned wanted) {
  return std::min(wanted, std::max(1U, std::thread::hardware_concurrency()));
}

/// Traffic never stops inside a run: the stop tick lies far beyond any
/// chunk count a run can reach.
constexpr Slot kTrafficSlots = Slot{1} << 32;

struct Workload {
  core::Topology topology{1, 1};
  std::vector<core::MultihopChannel> channels;
  std::size_t requested{0};
};

/// The line fabric and its channels, admitted through the real multihop
/// controller: every node asks for channels to random nodes on other
/// switches, so paths and per-hop deadline splits are admission outputs.
Workload build_workload() {
  Workload workload;
  workload.topology = core::Topology(kNodes, kSwitches);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    workload.topology.attach_node(NodeId{n}, core::SwitchId{n % kSwitches});
  }
  for (std::uint32_t s = 0; s + 1 < kSwitches; ++s) {
    workload.topology.connect_switches(core::SwitchId{s},
                                       core::SwitchId{s + 1});
  }
  Rng rng(kRequestSeed);
  core::PathAdmissionController controller(
      workload.topology, core::make_path_partitioner("ADPS"));
  for (std::size_t round = 0; round < kRequestsPerNode; ++round) {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      // A node on another switch: same switch residue is n % kSwitches.
      const auto hop = 1 + static_cast<std::uint32_t>(rng.index(kSwitches - 1));
      const auto rank = static_cast<std::uint32_t>(rng.index(kNodesPerSwitch));
      const std::uint32_t dst_switch = (n % kSwitches + hop) % kSwitches;
      core::ChannelSpec spec;
      spec.source = NodeId{n};
      spec.destination = NodeId{rank * kSwitches + dst_switch};
      spec.period = kPeriods[rng.index(std::size(kPeriods))];
      spec.capacity = 1;
      spec.deadline = 24 + rng.index(spec.period - 24 + 1);
      ++workload.requested;
      auto admitted = controller.request(spec);
      if (admitted.has_value()) {
        workload.channels.push_back(std::move(admitted).value());
      }
    }
  }
  return workload;
}

sim::SimConfig fabric_config() {
  sim::SimConfig config;
  config.ticks_per_slot = kTicksPerSlot;
  // Long trunks (32 slots of propagation, inside every channel's allowance):
  // the conservative lookahead then spans 32 slots of event work per
  // barrier round, so a round stays long next to the barrier's wake-up
  // latency on a shared host.
  config.trunk_propagation_ticks = 32 * kTicksPerSlot;
  return config;
}

std::unique_ptr<sim::FabricNetwork> build_fabric(const Workload& workload,
                                                 std::uint64_t seed) {
  const sim::SimConfig config = fabric_config();
  sim::FabricOptions options;
  options.seed = seed;
  options.traffic_stop = config.slots_to_ticks(kTrafficSlots);
  options.with_best_effort = true;
  options.best_effort_load = kBestEffortLoad;
  options.bursty_best_effort = true;
  return std::make_unique<sim::FabricNetwork>(config, workload.topology,
                                              workload.channels, options);
}

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xff;
    hash *= 0x0000'0100'0000'01b3ULL;
  }
}

/// Kernel event counts, per-partition totals, per-channel accounting and
/// cut-link record counts: any divergence in event order lands here.
std::uint64_t fabric_digest(const sim::FabricNetwork& fabric) {
  std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL;
  for (std::size_t p = 0; p < fabric.partition_count(); ++p) {
    fnv_mix(hash, fabric.kernel(p).executed_events());
    const sim::SimStats& stats = fabric.partition_stats(p);
    fnv_mix(hash, stats.total_rt_delivered());
    fnv_mix(hash, stats.total_deadline_misses());
    fnv_mix(hash, stats.best_effort_sent());
    fnv_mix(hash, stats.best_effort_delivered());
  }
  for (const auto& [id, counts] : fabric.channel_counts()) {
    fnv_mix(hash, id);
    fnv_mix(hash, counts.sent);
    fnv_mix(hash, counts.delivered);
    fnv_mix(hash, counts.misses);
    fnv_mix(hash, counts.dropped);
  }
  for (const auto& trunk : fabric.trunk_traffic()) {
    fnv_mix(hash, (std::uint64_t{trunk.from} << 32) | trunk.to);
    fnv_mix(hash, trunk.records);
  }
  return hash;
}

/// A fabric and the driver that runs it in chunks.
struct Fabric {
  std::unique_ptr<sim::FabricNetwork> network;
  std::unique_ptr<sim::ParallelSimulator> driver;
  Tick now{0};

  Fabric(const Workload& workload, std::uint64_t seed, unsigned threads)
      : network(build_fabric(workload, seed)),
        driver(std::make_unique<sim::ParallelSimulator>(*network, threads)) {}

  [[nodiscard]] bool run_chunks(std::size_t chunks) {
    now += fabric_config().slots_to_ticks(kChunkSlots * chunks);
    return driver->run_until(now);
  }
};

std::uint64_t fabric_seed(std::uint64_t seed) {
  return SplitMix64(seed ^ 0xfde5u).next();
}

}  // namespace

void probe_pdes(const Options& options, Report& report) {
  constexpr std::size_t kProbeChunks = 800;
  const std::uint64_t seed = fabric_seed(options.seed);
  const Workload workload = build_workload();
  const double slots = static_cast<double>(kProbeChunks * kChunkSlots);

  // Thread sweep: 0 is the inline schedule; every count must agree on the
  // digest. On hosts with fewer hardware threads the larger counts are
  // capped (and their rates then repeat the cap's).
  const unsigned sweep[] = {0, 1, 2, 4};
  double rate[4] = {};
  std::uint64_t digests[4] = {};
  for (int i = 0; i < 4; ++i) {
    Fabric fabric(workload, seed, sweep[i] == 0 ? 0 : capped_threads(sweep[i]));
    const std::uint64_t rounds_before = fabric.driver->rounds();
    const std::int64_t t0 = now_ns();
    const bool ok = fabric.run_chunks(kProbeChunks);
    const double seconds = seconds_between(t0, now_ns());
    report.check(ok, "pdes probe: the fabric failed");
    rate[i] = slots / seconds;
    digests[i] = fabric_digest(*fabric.network);
    if (sweep[i] == kThreads) {
      const auto rounds =
          static_cast<double>(fabric.driver->rounds() - rounds_before);
      report.metric("pdes.rounds", rounds, "count");
      report.metric("pdes.cut_link_records",
                    static_cast<double>(fabric.network->cut_link_records()),
                    "count");
      report.metric("pdes.ns_per_round", seconds * 1e9 / rounds, "ns");
    }
  }
  report.check(std::all_of(std::begin(digests), std::end(digests),
                           [&](std::uint64_t d) { return d == digests[0]; }),
               "pdes probe: digests differ across thread counts");
  report.metric("pdes.slots_per_s_t0", rate[0], "1/s");
  report.metric("pdes.slots_per_s_t1", rate[1], "1/s");
  report.metric("pdes.slots_per_s_t2", rate[2], "1/s");
  report.metric("pdes.slots_per_s_t4", rate[3], "1/s");
  report.metric("pdes.speedup_t2", rate[2] / rate[0], "ratio");
  report.metric("pdes.speedup_t4", rate[3] / rate[0], "ratio");

  // The inline round schedule, driven partition by partition through the
  // public run_round, timing each partition's share of every round.
  auto network = build_fabric(workload, seed);
  const Tick until = fabric_config().slots_to_ticks(kProbeChunks * kChunkSlots);
  const Tick lookahead = network->lookahead();
  const std::size_t partitions = network->partition_count();
  double compute_ns = 0.0;
  double critical_ns = 0.0;
  double imbalance_sum = 0.0;
  std::uint64_t rounds = 0;
  std::vector<double> partition_ns(partitions);
  for (Tick now = 0; now < until;) {
    const Tick target = std::min(until, now + lookahead);
    for (std::size_t p = 0; p < partitions; ++p) {
      const std::uint64_t executed = network->kernel(p).executed_events();
      const std::int64_t t0 = now_ns();
      (void)network->run_round(p, target,
                               sim::Simulator::kDefaultMaxEvents - executed);
      partition_ns[p] = static_cast<double>(now_ns() - t0);
    }
    const double round_max =
        *std::max_element(partition_ns.begin(), partition_ns.end());
    double round_sum = 0.0;
    for (const double ns : partition_ns) round_sum += ns;
    compute_ns += round_sum;
    critical_ns += round_max;
    if (round_sum > 0.0) {
      imbalance_sum +=
          round_max / (round_sum / static_cast<double>(partitions));
    }
    ++rounds;
    now = target;
  }
  report.check(!network->failed() &&
                   fabric_digest(*network) == digests[0],
               "pdes probe: the hand-driven round schedule diverged");
  report.metric("pdes.partition_imbalance",
                imbalance_sum / static_cast<double>(rounds), "ratio");
  report.metric("pdes.ideal_speedup", compute_ns / critical_ns, "ratio");
}

}  // namespace perfbench
