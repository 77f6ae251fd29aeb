/// Sim-kernel gate: the typed, allocation-free event kernel on a saturated
/// 64-node workload — 3 periodic RT channels per node (periods 4/8/16
/// slots, synchronous worst-case phase) plus bursty on-off best-effort
/// cross-traffic from every node against bounded FCFS queues. The gate
/// demands:
///
///   1. the pinned event, delivery, miss and drop counts and arena size at
///      the default 6144 measured slots (a divergence means a kernel change
///      altered semantics; the conformance corpus pins them in more
///      detail), and
///   2. zero heap allocations across the measured steady-state phase
///      (counted by a global operator-new hook) — the event heap, frame
///      arena, queues and stat maps must all have reached their high-water
///      marks during warm-up.
///
/// Throughput is reported, not gated; perfbench's `star_plant` workload
/// bounds the kernel's speed end to end.
///
/// Writes BENCH_sim.json for the perf trajectory (scripts/
/// bench_trajectory.py merges it with the other benches' artifacts).
///
/// Usage: bench_sim_kernel [measure_slots] [json]
///
/// Diagnostics: RTETHER_TRACE_ALLOCS=1 prints a backtrace for every heap
/// allocation inside the measured window (to pinpoint a zero-alloc gate
/// failure).

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/json_writer.hpp"
#include "common/units.hpp"
#include "net/deadline_codec.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "sim/addressing.hpp"
#include "sim/best_effort.hpp"
#include "sim/network.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: every heap allocation in the process increments
// one counter. The zero-allocation assertion snapshots it around the
// kernel's measured phase.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
std::atomic<bool> g_trace_allocations{false};
}  // namespace

#include <execinfo.h>

// GCC pairs the inlined replacement operator new (malloc-backed) with
// library-emitted sized deletes and flags a false mismatch under -O2.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (g_trace_allocations.load(std::memory_order_relaxed)) {
    void* frames[16];
    const int n = backtrace(frames, 16);
    backtrace_symbols_fd(frames, n, 2);
    std::fprintf(stderr, "--- alloc of %zu bytes ---\n", size);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (g_trace_allocations.load(std::memory_order_relaxed)) {
    void* frames[16];
    const int n = backtrace(frames, 16);
    backtrace_symbols_fd(frames, n, 2);
    std::fprintf(stderr, "--- aligned alloc of %zu bytes ---\n", size);
  }
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace rtether {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload: saturated 64-node mixed RT + bursty best-effort.
// ---------------------------------------------------------------------------

struct WorkloadConfig {
  std::uint32_t nodes{64};
  /// Per-node channel periods (slots); deadline == period, capacity 1.
  /// Utilization per uplink: 1/4 + 1/8 + 1/16 = 0.4375.
  std::vector<Slot> periods{4, 8, 16};
  /// Destination strides per channel (mixes the switch ports).
  std::vector<std::uint32_t> strides{1, 3, 7};
  /// Bursty (on-off) best-effort offered load per node, saturating the
  /// wire together with the RT set (≈0.94 mean, >1 in bursts).
  double best_effort_load{0.5};
  /// Bounded FCFS queues (a real switch has finite buffers) — keeps the
  /// saturated backlog, and with it the frame arena, bounded.
  std::size_t best_effort_depth{128};
  std::uint64_t seed{42};
  Slot warmup_slots{1024};
  Slot measure_slots{6144};
};

/// Serializes the §18.2.2 RT data frame (Ethernet + IPv4 deadline tag +
/// UDP, payload padded to a maximal frame) into `writer`; returns the pad.
std::uint64_t serialize_rt_frame(ByteWriter& writer, NodeId source,
                                 NodeId destination, ChannelId channel,
                                 Tick absolute_deadline) {
  net::Ipv4Header ip;
  ip.protocol = net::IpProtocol::kUdp;
  net::encode_rt_tag({absolute_deadline, channel}, ip);

  net::EthernetHeader ethernet;
  ethernet.source = sim::node_mac(source);
  ethernet.destination = sim::node_mac(destination);
  ethernet.ether_type = net::EtherType::kIpv4;

  net::UdpHeader udp;
  udp.source_port = 5004;
  udp.destination_port = 5004;

  ethernet.serialize(writer);
  const std::size_t header_bytes = net::EthernetHeader::kWireSize +
                                   net::Ipv4Header::kWireSize +
                                   net::UdpHeader::kWireSize;
  const std::uint64_t pad = kMaxFrameWireBytes - (header_bytes + 4 + 8 + 12);
  ip.total_length = static_cast<std::uint16_t>(net::Ipv4Header::kWireSize +
                                               net::UdpHeader::kWireSize +
                                               pad);
  ip.serialize(writer);
  udp.length = static_cast<std::uint16_t>(net::UdpHeader::kWireSize + pad);
  udp.serialize(writer);
  return pad;
}

/// Periodic RT channel sender: a self-rescheduling function-pointer timer
/// that serializes each release straight into the frame arena —
/// allocation-free in steady state, like proto's senders.
struct RtSender {
  sim::SimNetwork* network{nullptr};
  NodeId source;
  NodeId destination;
  ChannelId channel;
  Tick period_ticks{0};
  Tick deadline_ticks{0};

  void start() {
    network->simulator().schedule_timer(0, &RtSender::fire, this);
  }

  static void fire(void* context, std::uint64_t /*arg*/, Tick /*now*/) {
    auto* self = static_cast<RtSender*>(context);
    self->release();
    self->network->simulator().schedule_timer(self->period_ticks,
                                              &RtSender::fire, self);
  }

  void release() {
    const Tick released = network->now();
    sim::FrameArena& arena = network->arena();
    const sim::FrameIndex index = arena.acquire();
    sim::SimFrame& frame = arena.get(index);
    ByteWriter writer(std::move(frame.bytes));
    const std::uint64_t pad = serialize_rt_frame(
        writer, source, destination, channel, released + deadline_ticks);
    frame.bytes = std::move(writer).take();
    frame.finalize(network->next_frame_id(), pad, released, source);
    network->stats().record_rt_sent(channel);
    network->node(source).send_rt(released + deadline_ticks, index);
  }
};

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct RunOutcome {
  double seconds{0.0};
  std::uint64_t executed_events{0};
  std::uint64_t rt_sent{0};
  std::uint64_t rt_delivered{0};
  std::uint64_t deadline_misses{0};
  std::uint64_t best_effort_sent{0};
  std::uint64_t best_effort_delivered{0};
  std::uint64_t best_effort_dropped{0};
  /// Heap allocations during the measured phase (must be zero) and the
  /// frame arena's capacity at the end of it.
  std::uint64_t steady_state_allocations{0};
  std::uint64_t arena_frames{0};

  [[nodiscard]] double slots_per_second(Slot slots) const {
    return seconds > 0.0 ? static_cast<double>(slots) / seconds : 0.0;
  }
  [[nodiscard]] double events_per_second() const {
    return seconds > 0.0 ? static_cast<double>(executed_events) / seconds
                         : 0.0;
  }
};

/// The default run's counts: 1024 warm-up + 6144 measured slots, seed 42.
/// Pinned from the typed kernel while a frozen copy of the seed kernel
/// still ran beside it and reproduced every one of them.
constexpr Slot kPinnedMeasureSlots = 6144;

struct PinnedCount {
  const char* name;
  std::uint64_t pinned;
  std::uint64_t RunOutcome::*field;
};

constexpr PinnedCount kPinnedCounts[] = {
    {"executed_events", 2'334'438, &RunOutcome::executed_events},
    {"rt_sent", 200'896, &RunOutcome::rt_sent},
    {"rt_delivered", 200'704, &RunOutcome::rt_delivered},
    {"deadline_misses", 0, &RunOutcome::deadline_misses},
    {"best_effort_sent", 91'093, &RunOutcome::best_effort_sent},
    {"best_effort_delivered", 91'062, &RunOutcome::best_effort_delivered},
    {"best_effort_dropped", 0, &RunOutcome::best_effort_dropped},
    {"arena_frames", 726, &RunOutcome::arena_frames},
};

/// Prints one line per count that differs from its pin; true when none do.
bool counts_match_pins(const RunOutcome& outcome) {
  bool match = true;
  for (const PinnedCount& count : kPinnedCounts) {
    const std::uint64_t actual = outcome.*count.field;
    if (actual != count.pinned) {
      std::printf("FAIL: %s = %llu, pinned %llu\n", count.name,
                  static_cast<unsigned long long>(actual),
                  static_cast<unsigned long long>(count.pinned));
      match = false;
    }
  }
  return match;
}

sim::BestEffortProfile best_effort_profile(const WorkloadConfig& workload) {
  sim::BestEffortProfile profile;
  profile.offered_load = workload.best_effort_load;
  profile.arrivals = sim::BestEffortArrivals::kOnOff;
  return profile;
}

RunOutcome run_kernel(const WorkloadConfig& workload) {
  sim::SimConfig config;  // 64 ticks/slot, 1 tick propagation/processing
  sim::SimNetwork network(config, workload.nodes, workload.best_effort_depth);
  network.prime_forwarding();

  std::vector<RtSender> senders;
  senders.reserve(static_cast<std::size_t>(workload.nodes) *
                  workload.periods.size());
  std::uint16_t next_channel = 1;
  for (std::uint32_t n = 0; n < workload.nodes; ++n) {
    for (std::size_t k = 0; k < workload.periods.size(); ++k) {
      RtSender sender;
      sender.network = &network;
      sender.source = NodeId{n};
      sender.destination =
          NodeId{(n + workload.strides[k % workload.strides.size()]) %
                 workload.nodes};
      sender.channel = ChannelId{next_channel++};
      sender.period_ticks = config.slots_to_ticks(workload.periods[k]);
      sender.deadline_ticks = sender.period_ticks;
      senders.push_back(sender);
    }
  }
  for (auto& sender : senders) sender.start();
  auto sources = sim::attach_best_effort_everywhere(
      network, best_effort_profile(workload), workload.seed);

  const Tick warmup = config.slots_to_ticks(workload.warmup_slots);
  const Tick total =
      config.slots_to_ticks(workload.warmup_slots + workload.measure_slots);
  if (!network.simulator().run_until(warmup)) {
    std::fprintf(stderr, "FATAL: warmup exhausted the event budget\n");
    std::exit(2);
  }

  // Pre-size every pool past its warm-up high-water mark: container
  // growth on a later burst peak is an allocation the steady-state
  // assertion would (correctly) flag, but it is capacity management, not
  // event-loop work — so it happens here, before the measured window.
  network.simulator().reserve_events(std::size_t{1} << 15);
  network.arena().prewarm(512, 160);
  for (std::uint32_t n = 0; n < workload.nodes; ++n) {
    network.node(NodeId{n}).uplink().reserve(2048, workload.best_effort_depth);
    network.ethernet_switch().port(NodeId{n}).reserve(
        2048, workload.best_effort_depth);
  }

  const std::uint64_t allocations_before =
      g_allocation_count.load(std::memory_order_relaxed);
  if (std::getenv("RTETHER_TRACE_ALLOCS") != nullptr) {
    g_trace_allocations.store(true, std::memory_order_relaxed);
  }
  const auto t0 = Clock::now();
  if (!network.simulator().run_until(total)) {
    std::fprintf(stderr, "FATAL: measured run exhausted the event budget\n");
    std::exit(2);
  }
  const auto t1 = Clock::now();
  g_trace_allocations.store(false, std::memory_order_relaxed);
  const std::uint64_t allocations_after =
      g_allocation_count.load(std::memory_order_relaxed);

  RunOutcome outcome;
  outcome.seconds = std::chrono::duration<double>(t1 - t0).count();
  outcome.executed_events = network.simulator().executed_events();
  outcome.rt_delivered = network.stats().total_rt_delivered();
  outcome.deadline_misses = network.stats().total_deadline_misses();
  outcome.best_effort_sent = network.stats().best_effort_sent();
  outcome.best_effort_delivered = network.stats().best_effort_delivered();
  for (const auto& [id, channel] : network.stats().channels()) {
    outcome.rt_sent += channel.frames_sent;
  }
  for (std::uint32_t n = 0; n < workload.nodes; ++n) {
    outcome.best_effort_dropped +=
        network.node(NodeId{n}).uplink().best_effort_dropped();
    outcome.best_effort_dropped +=
        network.ethernet_switch().port(NodeId{n}).best_effort_dropped();
  }
  outcome.steady_state_allocations = allocations_after - allocations_before;
  outcome.arena_frames = network.arena().capacity();
  return outcome;
}

bool parse_u64_arg(const char* text, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0';
}

}  // namespace
}  // namespace rtether

int main(int argc, char** argv) {
  using namespace rtether;

  WorkloadConfig workload;
  std::string json_path = "BENCH_sim.json";

  for (int i = 1; i < argc; ++i) {
    std::uint64_t value = 0;
    bool ok = true;
    switch (i) {
      case 1:
        ok = parse_u64_arg(argv[i], value) && value >= 64;
        workload.measure_slots = value;
        break;
      case 2:
        json_path = argv[i];
        break;
      default:
        ok = false;
        break;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad argument: %s\nusage: bench_sim_kernel "
                   "[measure_slots>=64] [json]\n",
                   argv[i]);
      return 64;
    }
  }

  std::printf(
      "sim-kernel bench: %u nodes, %zu RT channels/node, BE load %.2f "
      "(bursty, depth %zu), warmup %llu + measured %llu slots\n",
      workload.nodes, workload.periods.size(), workload.best_effort_load,
      workload.best_effort_depth,
      static_cast<unsigned long long>(workload.warmup_slots),
      static_cast<unsigned long long>(workload.measure_slots));

  const RunOutcome outcome = run_kernel(workload);
  const double slots_per_sec = outcome.slots_per_second(workload.measure_slots);
  std::printf(
      "typed kernel: %9.0f slots/s  %10.0f events/s  (%.3f s, %llu events)\n",
      slots_per_sec, outcome.events_per_second(), outcome.seconds,
      static_cast<unsigned long long>(outcome.executed_events));
  std::printf(
      "  rt sent/delivered/missed %llu/%llu/%llu, be sent/delivered/dropped "
      "%llu/%llu/%llu, arena %llu frames\n",
      static_cast<unsigned long long>(outcome.rt_sent),
      static_cast<unsigned long long>(outcome.rt_delivered),
      static_cast<unsigned long long>(outcome.deadline_misses),
      static_cast<unsigned long long>(outcome.best_effort_sent),
      static_cast<unsigned long long>(outcome.best_effort_delivered),
      static_cast<unsigned long long>(outcome.best_effort_dropped),
      static_cast<unsigned long long>(outcome.arena_frames));
  std::printf(
      "steady-state allocations: %llu\n",
      static_cast<unsigned long long>(outcome.steady_state_allocations));

  const bool pinned = workload.measure_slots == kPinnedMeasureSlots;
  const bool counts_match = !pinned || counts_match_pins(outcome);
  if (!pinned) {
    std::printf("counts unpinned: the pins hold at %llu measured slots\n",
                static_cast<unsigned long long>(kPinnedMeasureSlots));
  }

  JsonWriter json;
  json.begin_object();
  json.member("bench", "sim_kernel");
  json.member("nodes", static_cast<std::uint64_t>(workload.nodes));
  json.member("rt_channels",
              static_cast<std::uint64_t>(workload.nodes *
                                         workload.periods.size()));
  json.member("best_effort_load", workload.best_effort_load);
  json.member("warmup_slots", workload.warmup_slots);
  json.member("measure_slots", workload.measure_slots);
  json.member("typed_kernel_slots_per_sec", slots_per_sec);
  json.member("typed_kernel_events_per_sec", outcome.events_per_second());
  json.member("executed_events", outcome.executed_events);
  json.member("steady_state_allocations", outcome.steady_state_allocations);
  json.member("arena_frames", outcome.arena_frames);
  json.member("counts_pinned", pinned);
  json.member("counts_match", counts_match);
  json.member("deadline_misses", outcome.deadline_misses);
  json.end_object();
  if (!json.write_file(json_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", json_path.c_str());
    return 3;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!counts_match) {
    return 1;
  }
  if (outcome.steady_state_allocations != 0) {
    std::printf(
        "FAIL: %llu heap allocations in the steady-state event loop "
        "(must be 0)\n",
        static_cast<unsigned long long>(outcome.steady_state_allocations));
    return 1;
  }
  std::printf(pinned ? "gate passed (pinned counts, 0 allocs)\n"
                     : "gate passed (0 allocs)\n");
  return 0;
}
