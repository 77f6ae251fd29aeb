/// Scaling S2 — multi-core admission throughput: the link-sharded
/// `ParallelAdmissionEngine` vs the single-threaded batched engine vs the
/// reference one-at-a-time controller, on identical request streams.
///
/// The workload is the industrial one that makes sharding real: machine
/// cells whose traffic stays inside the cell, saturating each cell's links
/// — a plant bring-up where thousands of RT channels are requested across
/// many cells at once. The link-conflict graph then has one component per
/// cell, so the 64-node switch (4-node cells) yields 16 independent shards
/// and the 256-node switch (8-node cells) 32.
///
/// Gate: ≥ 3× speedup over the single-threaded batched path at 8 worker
/// threads on both saturated scenarios, enforced whenever the host actually
/// has 8 hardware threads (a smaller box cannot exhibit 8-way scaling and
/// only reports). Decisions must be identical across all three paths — any
/// divergence is an immediate failure.
///
/// Every run also writes `BENCH_admission.json` (path overridable) so CI
/// can archive the perf trajectory as a machine-readable artifact.
///
/// All three paths are driven through the unified `core::AdmissionBackend`
/// front door ("controller" / "batched" / "parallel"), the same interface
/// the scenario runner uses.

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
#include "core/admission_backend.hpp"
#include "core/partitioner.hpp"

using namespace rtether;
using namespace rtether::core;

namespace {

/// Cell-local constrained-deadline request stream (d < P keeps the demand
/// scan off the Liu & Layland shortcut; cell-locality keeps the conflict
/// graph sharded, one component per cell).
std::vector<ChannelOp> make_celled_stream(std::uint64_t seed,
                                          std::size_t count,
                                          std::uint32_t nodes,
                                          std::uint32_t cell_size) {
  Rng rng(seed);
  const std::uint32_t cells = nodes / cell_size;
  static constexpr Slot kPeriods[] = {40, 60, 80, 100, 150, 200, 300};
  std::vector<ChannelOp> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
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
    ops.push_back(ChannelOp::admit(
        ChannelSpec{NodeId{src}, NodeId{dst}, period, capacity, deadline}));
  }
  return ops;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RunResult {
  double seconds{0.0};
  std::size_t accepted{0};
  std::vector<bool> decisions;
};

/// Best-of-N wall time, the benchmarking standard for scheduler noise.
constexpr int kRepetitions = 3;

/// Replays the stream through any `AdmissionBackend` kind; best-of-N wall
/// time of the backend's own `submit` path.
RunResult run_backend(const std::string& kind,
                      const std::vector<ChannelOp>& ops,
                      std::uint32_t nodes, const std::string& scheme,
                      unsigned threads) {
  RunResult result;
  result.seconds = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    BackendConfig config;
    config.threads = threads;
    auto backend =
        make_admission_backend(kind, nodes, make_partitioner(scheme), config);
    if (backend == nullptr) {
      std::fprintf(stderr, "unknown backend kind: %s\n", kind.c_str());
      std::exit(64);
    }
    const auto start = std::chrono::steady_clock::now();
    const ChurnResult churn = backend->submit(ops);
    result.seconds = std::min(result.seconds, seconds_since(start));
    result.decisions.clear();
    result.decisions.reserve(churn.admissions.size());
    for (const auto& outcome : churn.admissions) {
      result.decisions.push_back(outcome.has_value());
    }
    result.accepted = churn.accepted();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t request_count = 16'000;
  unsigned threads = 8;
  std::string json_path = "BENCH_admission.json";
  if (argc > 1) {
    request_count =
        static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  }
  if (argc > 2) {
    threads = static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10));
  }
  if (argc > 3) {
    json_path = argv[3];
  }
  const unsigned hardware = std::thread::hardware_concurrency();

  std::puts("================================================================");
  std::puts("Scaling S2 — multi-core admission: link-sharded engine vs");
  std::puts("single-threaded batched engine vs sequential controller");
  std::puts("================================================================");
  std::printf("threads: %u (hardware: %u)\n\n", threads, hardware);

  ConsoleTable table("S2: admits/sec on a " + std::to_string(request_count) +
                     "-request cell-local stream");
  table.set_header({"nodes", "shards", "accepted", "sequential adm/s",
                    "batched adm/s", "parallel adm/s", "par/batch", "gated"});

  struct Scenario {
    std::uint32_t nodes;
    std::uint32_t cell_size;
    const char* scheme;
    bool gated;
  };
  // The ≥ 3× target applies to the saturated multi-cell regimes the paper's
  // switch grows into: enough cells to feed 8 workers, links running full.
  const Scenario scenarios[] = {
      // 16 cells / 16 shards and 32 cells / 32 shards: enough shards above
      // the 8 workers that dynamic claiming evens out per-cell load noise.
      Scenario{64, 4, "ADPS", true},
      Scenario{256, 8, "ADPS", true},
  };

  bool all_identical = true;
  double min_gated_speedup = 1e300;

  JsonWriter json;
  json.begin_object();
  json.member("bench", "admission_throughput");
  json.member("request_count", static_cast<std::uint64_t>(request_count));
  json.member("threads", static_cast<std::uint64_t>(threads));
  json.member("hardware_concurrency", static_cast<std::uint64_t>(hardware));
  json.member("repetitions", kRepetitions);
  json.key("scenarios").begin_array();

  for (const Scenario& scenario : scenarios) {
    const auto requests =
        make_celled_stream(7, request_count, scenario.nodes,
                           scenario.cell_size);
    const auto sequential = run_backend("controller", requests,
                                        scenario.nodes, scenario.scheme,
                                        threads);
    const auto batched = run_backend("batched", requests, scenario.nodes,
                                     scenario.scheme, threads);
    const auto parallel = run_backend("parallel", requests, scenario.nodes,
                                      scenario.scheme, threads);
    // Cell-local traffic puts one conflict component in every cell, so the
    // shard count is the cell count by construction.
    const std::size_t shards = scenario.nodes / scenario.cell_size;

    const bool identical = sequential.decisions == batched.decisions &&
                           sequential.decisions == parallel.decisions &&
                           sequential.accepted == parallel.accepted;
    all_identical = all_identical && identical;

    const double n = static_cast<double>(requests.size());
    const double seq_rate = n / sequential.seconds;
    const double batch_rate = n / batched.seconds;
    const double par_rate = n / parallel.seconds;
    const double batched_speedup = sequential.seconds / batched.seconds;
    const double parallel_speedup = batched.seconds / parallel.seconds;
    if (scenario.gated) {
      min_gated_speedup = std::min(min_gated_speedup, parallel_speedup);
    }

    table.add(scenario.nodes, shards, parallel.accepted, seq_rate,
              batch_rate, par_rate, parallel_speedup,
              scenario.gated ? "yes" : "no");
    if (!identical) {
      std::printf("DECISION MISMATCH at nodes=%u scheme=%s\n",
                  scenario.nodes, scenario.scheme);
    }

    json.begin_object();
    json.member("nodes", static_cast<std::uint64_t>(scenario.nodes));
    json.member("cell_size", static_cast<std::uint64_t>(scenario.cell_size));
    json.member("scheme", scenario.scheme);
    json.member("shards", static_cast<std::uint64_t>(shards));
    json.member("accepted", static_cast<std::uint64_t>(parallel.accepted));
    json.member("sequential_admits_per_sec", seq_rate);
    json.member("batched_admits_per_sec", batch_rate);
    json.member("parallel_admits_per_sec", par_rate);
    json.member("batched_speedup_vs_sequential", batched_speedup);
    json.member("parallel_speedup_vs_batched", parallel_speedup);
    json.member("parallel_speedup_vs_sequential",
                sequential.seconds / parallel.seconds);
    json.member("decisions_identical", identical);
    json.member("gated", scenario.gated);
    json.end_object();
  }
  json.end_array();

  table.print();

  const bool full_run = request_count >= 16'000;
  const bool gate_enforced = full_run && hardware >= 8 && threads >= 8;
  json.member("min_gated_parallel_speedup", min_gated_speedup);
  json.member("gate_threshold", 3.0);
  json.member("gate_enforced", gate_enforced);
  json.member("all_decisions_identical", all_identical);
  json.end_object();

  std::printf("decisions identical across all paths and scenarios: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("min gated parallel speedup vs batched: %.2fx (target >= 3x,"
              " %s)\n",
              min_gated_speedup,
              gate_enforced ? "enforced"
                            : "reported only: needs a full-size run and >= 8"
                              " hardware threads");
  std::puts("reading: decisions on disjoint egress links are independent");
  std::puts("(the paper's test is per-link, Eqs 18.2-18.5), so cell-local");
  std::puts("traffic shards across cores; the merge phase re-serializes");
  std::puts("channel-ID assignment, keeping decisions bit-identical to the");
  std::puts("sequential controller.\n");

  if (!json.write_file(json_path)) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 3;
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Non-zero exit on decision divergence or a missed throughput target so
  // CI can gate on this bench directly.
  if (!all_identical) return 1;
  if (gate_enforced && min_gated_speedup < 3.0) return 2;
  return 0;
}
