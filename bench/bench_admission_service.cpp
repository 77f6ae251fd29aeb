/// Scaling S4 — resident admission service throughput: the always-on
/// sharded `AdmissionService` vs the single-threaded batched engine on
/// identical mixed admit/release streams.
///
/// This is the *service* shape the paper's switch actually runs: channels
/// are requested and torn down continuously, and the dispatcher must
/// sustain throughput from whatever bursts the ingest ring delivers, each
/// decided through the sharded `ParallelAdmissionEngine`. The workload is
/// an industrial one — machine cells whose traffic stays inside the cell —
/// so the link-conflict graph shards one component per cell; releases
/// target channels admitted well in the past, the steady-state churn of a
/// running plant.
///
/// Gates, both enforced only on full-size runs:
///   * resident ≥ 3× the batched engine at 8 workers (enforced when the
///     host has ≥ 8 hardware threads — a smaller box only reports);
///   * inline mode (workers = 0) ≥ 0.95× batched — the unified front door
///     may not tax callers who don't want threads.
/// Every outcome — accepts, rejects, IDs, releases — is checked against
/// the sequential controller oracle; any divergence exits non-zero.
///
/// Every run also writes `BENCH_service.json` (path overridable) so CI can
/// archive the perf trajectory as a machine-readable artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "core/admission.hpp"
#include "core/admission_service.hpp"
#include "core/partitioner.hpp"

using namespace rtether;
using namespace rtether::core;

namespace {

constexpr const char* kScheme = "ADPS";

/// Releases only target channels admitted at least this many ops earlier,
/// so steady-state churn does not degenerate into batch cuts (a release of
/// an ID admitted in the same engine batch cuts the batch there).
constexpr std::size_t kReleaseAge = 2048;

struct ChurnStream {
  std::vector<ChannelOp> ops;
  /// Oracle outcomes, per-kind submission order (the bit-identity target).
  ChurnResult expected;
};

/// Cell-local constrained-deadline churn: ~one release per four ops once
/// enough aged channels exist. Release IDs come from a sequential oracle
/// replay, so the same concrete ops drive every implementation.
ChurnStream make_celled_churn(std::uint64_t seed, std::size_t count,
                              std::uint32_t nodes, std::uint32_t cell_size) {
  Rng rng(seed);
  const std::uint32_t cells = nodes / cell_size;
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200, 300};
  AdmissionController oracle(nodes, make_partitioner(kScheme));
  struct LiveRec {
    ChannelId id;
    std::size_t admitted_at;
  };
  std::vector<LiveRec> live;
  ChurnStream stream;
  stream.ops.reserve(count);
  while (stream.ops.size() < count) {
    // Aged channels sit at the front of `live` (admission order).
    std::size_t aged = 0;
    while (aged < live.size() &&
           live[aged].admitted_at + kReleaseAge < stream.ops.size()) {
      ++aged;
    }
    if (aged > 0 && rng.index(4) == 0) {
      const auto victim = rng.index(aged);
      const ChannelId id = live[victim].id;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      stream.ops.push_back(ChannelOp::release(id));
      stream.expected.releases.push_back(oracle.release(id));
      continue;
    }
    const auto cell = static_cast<std::uint32_t>(rng.index(cells));
    const std::uint32_t base = cell * cell_size;
    const auto src = base + static_cast<std::uint32_t>(rng.index(cell_size));
    auto dst = base + static_cast<std::uint32_t>(rng.index(cell_size));
    if (dst == src) {
      dst = base + (dst - base + 1) % cell_size;
    }
    const Slot period = kPeriods[rng.index(std::size(kPeriods))];
    const Slot capacity = 1 + rng.index(4);
    const Slot deadline =
        2 * capacity + rng.index(period / 2 - 2 * capacity + 1);
    const ChannelSpec spec{NodeId{src}, NodeId{dst}, period, capacity,
                           deadline};
    stream.ops.push_back(ChannelOp::admit(spec));
    auto outcome = oracle.request(spec);
    if (outcome.has_value()) {
      live.push_back(LiveRec{outcome->id, stream.ops.size() - 1});
    }
    stream.expected.admissions.push_back(std::move(outcome));
  }
  return stream;
}

bool outcomes_match(const ChurnResult& got, const ChurnResult& want) {
  if (got.admissions.size() != want.admissions.size() ||
      got.releases.size() != want.releases.size()) {
    return false;
  }
  for (std::size_t i = 0; i < want.admissions.size(); ++i) {
    const auto& a = got.admissions[i];
    const auto& b = want.admissions[i];
    if (a.has_value() != b.has_value()) return false;
    if (a.has_value() ? !(*a == *b) : !(a.error() == b.error())) return false;
  }
  for (std::size_t i = 0; i < want.releases.size(); ++i) {
    const auto& a = got.releases[i];
    const auto& b = want.releases[i];
    if (a.has_value() != b.has_value()) return false;
    if (a.has_value() ? !(*a == *b) : !(a.error() == b.error())) return false;
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-N wall time, the benchmarking standard for scheduler noise.
constexpr int kRepetitions = 3;

struct RunResult {
  double seconds{1e300};
  bool identical{true};
};

/// The batched baseline drives the raw `AdmissionEngine::process`: each run
/// of admits shares one per-link pre-pass, releases apply one at a time —
/// the fastest single-threaded path the library has, with no service front
/// door.
double time_batched_once(const ChurnStream& stream, std::uint32_t nodes,
                         bool& identical) {
  AdmissionEngine engine(nodes, make_partitioner(kScheme));
  const auto start = std::chrono::steady_clock::now();
  const ChurnResult churn = engine.process(stream.ops);
  const double seconds = seconds_since(start);
  identical = identical && outcomes_match(churn, stream.expected);
  return seconds;
}

double time_service_once(const ChurnStream& stream, std::uint32_t nodes,
                         unsigned workers, bool& identical) {
  AdmissionServiceConfig config;
  config.workers = workers;
  AdmissionService service(nodes, make_partitioner(kScheme), config);
  const auto start = std::chrono::steady_clock::now();
  const ChurnResult churn = service.submit(stream.ops);
  const double seconds = seconds_since(start);
  identical = identical && outcomes_match(churn, stream.expected);
  return seconds;
}

RunResult run_service(const ChurnStream& stream, std::uint32_t nodes,
                      unsigned workers) {
  RunResult result;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    result.seconds = std::min(
        result.seconds,
        time_service_once(stream, nodes, workers, result.identical));
  }
  return result;
}

/// Inline mode is the batched algorithm plus the service front door, so its
/// 0.95x gate measures pure call overhead — a few percent of signal against
/// tens of percent of scheduler noise on a busy host. Interleave the
/// timings (baseline, then inline, back to back per repetition) and gate on
/// the best *paired* ratio: a host-wide slowdown hits both sides of a pair,
/// while a genuine front-door regression drags every pair down.
struct PairedInline {
  RunResult batched;
  RunResult service;
  double best_ratio{0.0};
};

constexpr int kPairedRepetitions = 5;

PairedInline run_paired_inline(const ChurnStream& stream,
                               std::uint32_t nodes) {
  PairedInline paired;
  for (int rep = 0; rep < kPairedRepetitions; ++rep) {
    const double batched_seconds =
        time_batched_once(stream, nodes, paired.batched.identical);
    const double service_seconds =
        time_service_once(stream, nodes, 0, paired.service.identical);
    paired.batched.seconds = std::min(paired.batched.seconds, batched_seconds);
    paired.service.seconds = std::min(paired.service.seconds, service_seconds);
    paired.best_ratio =
        std::max(paired.best_ratio, batched_seconds / service_seconds);
  }
  return paired;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t op_count = 24'000;
  unsigned workers = 8;
  std::string json_path = "BENCH_service.json";
  if (argc > 1) {
    op_count = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  }
  if (argc > 2) {
    workers = static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10));
  }
  if (argc > 3) {
    json_path = argv[3];
  }
  const unsigned hardware = std::thread::hardware_concurrency();

  std::puts("================================================================");
  std::puts("Scaling S4 — resident admission service: dispatcher + engine");
  std::puts("worker pool vs the single-threaded batched engine, mixed churn");
  std::puts("================================================================");
  std::printf("workers: %u (hardware: %u)\n\n", workers, hardware);

  ConsoleTable table("S4: ops/sec on a " + std::to_string(op_count) +
                     "-op cell-local churn stream");
  table.set_header({"nodes", "cells", "workers", "batched ops/s",
                    "service ops/s", "svc/batch", "identical", "gated"});

  struct Scenario {
    std::uint32_t nodes;
    std::uint32_t cell_size;
    bool gated;
  };
  // Saturated multi-cell regimes: enough independent components to feed 8
  // shard workers.
  const Scenario scenarios[] = {
      Scenario{64, 4, true},
      Scenario{256, 8, true},
  };
  // 0 workers = inline mode (the 0.95x front-door gate); the rest shows the
  // scaling curve up to the gated worker count.
  std::vector<unsigned> worker_sweep{0, 2, 4};
  if (workers > 4) worker_sweep.push_back(workers);

  bool all_identical = true;
  double min_gated_speedup = 1e300;
  double min_inline_ratio = 1e300;

  JsonWriter json;
  json.begin_object();
  json.member("bench", "admission_service");
  json.member("op_count", static_cast<std::uint64_t>(op_count));
  json.member("workers", static_cast<std::uint64_t>(workers));
  json.member("hardware_concurrency", static_cast<std::uint64_t>(hardware));
  json.member("repetitions", kRepetitions);
  json.member("paired_repetitions", kPairedRepetitions);
  json.key("scenarios").begin_array();

  for (const Scenario& scenario : scenarios) {
    const auto stream =
        make_celled_churn(7, op_count, scenario.nodes, scenario.cell_size);
    // One paired block measures the batched baseline and inline mode in
    // interleaved repetitions; the resident worker configs reuse the
    // baseline's best-of time for their speedup denominators.
    const PairedInline paired = run_paired_inline(stream, scenario.nodes);
    const RunResult& batched = paired.batched;
    all_identical = all_identical && batched.identical;

    const double n = static_cast<double>(stream.ops.size());
    const double batch_rate = n / batched.seconds;

    json.begin_object();
    json.member("nodes", static_cast<std::uint64_t>(scenario.nodes));
    json.member("cell_size", static_cast<std::uint64_t>(scenario.cell_size));
    json.member("scheme", kScheme);
    json.member("ops", static_cast<std::uint64_t>(stream.ops.size()));
    json.member("admits",
                static_cast<std::uint64_t>(stream.expected.admissions.size()));
    json.member("releases",
                static_cast<std::uint64_t>(stream.expected.releases.size()));
    json.member("batched_ops_per_sec", batch_rate);
    json.member("batched_outcomes_identical", batched.identical);
    json.key("service").begin_array();

    for (const unsigned w : worker_sweep) {
      const RunResult service =
          w == 0 ? paired.service : run_service(stream, scenario.nodes, w);
      all_identical = all_identical && service.identical;
      const double rate = n / service.seconds;
      // Inline rows report the best paired ratio (what the 0.95x gate
      // checks); resident rows compare best-of times.
      const double speedup =
          w == 0 ? paired.best_ratio : batched.seconds / service.seconds;
      const bool gated = scenario.gated && w == workers && w >= 8;
      if (gated) {
        min_gated_speedup = std::min(min_gated_speedup, speedup);
      }
      if (w == 0) {
        min_inline_ratio = std::min(min_inline_ratio, speedup);
      }
      table.add(scenario.nodes, scenario.nodes / scenario.cell_size, w,
                batch_rate, rate, speedup, service.identical ? "yes" : "NO",
                gated ? "yes" : w == 0 ? "inline" : "no");

      json.begin_object();
      json.member("workers", static_cast<std::uint64_t>(w));
      json.member("ops_per_sec", rate);
      json.member("speedup_vs_batched", speedup);
      json.member("outcomes_identical", service.identical);
      json.member("gated", gated);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  table.print();

  const bool full_run = op_count >= 24'000;
  const bool gated_ran = min_gated_speedup < 1e299;
  const bool gate_enforced =
      full_run && hardware >= 8 && workers >= 8 && gated_ran;
  const bool inline_gate_enforced = full_run;
  json.member("min_gated_service_speedup", gated_ran ? min_gated_speedup : 0.0);
  json.member("gate_threshold", 3.0);
  json.member("gate_enforced", gate_enforced);
  json.member("min_inline_ratio", min_inline_ratio);
  json.member("inline_gate_threshold", 0.95);
  json.member("inline_gate_enforced", inline_gate_enforced);
  json.member("all_outcomes_identical", all_identical);
  json.end_object();

  std::printf("outcomes identical across all paths and scenarios: %s\n",
              all_identical ? "yes" : "NO");
  if (gated_ran) {
    std::printf("min gated service speedup vs batched: %.2fx (target >= 3x,"
                " %s)\n",
                min_gated_speedup,
                gate_enforced ? "enforced"
                              : "reported only: needs a full-size run, >= 8"
                                " workers and >= 8 hardware threads");
  } else {
    std::puts("min gated service speedup vs batched: n/a (no gated worker"
              " configuration ran)");
  }
  std::printf("min inline-mode paired ratio vs batched: %.2fx (target >="
              " 0.95x, %s)\n",
              min_inline_ratio,
              inline_gate_enforced ? "enforced"
                                   : "reported only on reduced runs");
  std::puts("reading: the resident dispatcher runs each ingest burst through");
  std::puts("the sharded engine (releases of live channels decided in their");
  std::puts("component's shard) and completes tickets in dequeue order, so");
  std::puts("continuous churn scales like one-shot batches while keeping");
  std::puts("outcomes bit-identical to the sequential controller.\n");

  if (!json.write_file(json_path)) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 3;
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Non-zero exit on outcome divergence or a missed throughput target so CI
  // can gate on this bench directly.
  if (!all_identical) return 1;
  if (gate_enforced && min_gated_speedup < 3.0) return 2;
  if (inline_gate_enforced && min_inline_ratio < 0.95) return 2;
  return 0;
}
