/// Admission backends: one front door, four implementations.
///
/// Demonstrates the `core::AdmissionBackend` surface in ~70 lines:
///   1. create any admission implementation by name ("controller",
///      "batched", "parallel", "service") — same decisions, same IDs,
///      same diagnostics from all four;
///   2. drive a mixed admit/release stream through the uniform `submit`;
///   3. use the async ticket API, native on the resident service and
///      emulated everywhere else, so callers can be written ticket-first.
///
/// Usage: example_admission_service [kind] (default "service")

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/admission_backend.hpp"
#include "core/partitioner.hpp"

using namespace rtether;
using namespace rtether::core;

int main(int argc, char** argv) {
  const std::string kind = argc > 1 ? argv[1] : "service";

  // 1. An 8-node star switch under SDPS, fronted by the chosen backend.
  //    The service kind keeps a dispatcher and a two-thread engine pool
  //    resident.
  BackendConfig config;
  config.threads = 2;
  auto backend = make_admission_backend(
      kind, /*node_count=*/8, std::make_unique<SymmetricPartitioner>(),
      config);
  if (backend == nullptr) {
    std::fprintf(stderr, "unknown backend kind '%s'\n", kind.c_str());
    return 64;
  }
  std::printf("backend: %s (async %s)\n", backend->name().c_str(),
              backend->supports_async() ? "native" : "emulated");

  // 2. A mixed stream: admit six {P=100, C=3, d=40} channels on one uplink
  //    (the paper's saturation point admits exactly six), then release the
  //    first and retry. Every backend reports the same typed outcomes.
  std::vector<ChannelOp> ops;
  for (std::uint32_t i = 0; i < 7; ++i) {
    ops.push_back(ChannelOp::admit(
        ChannelSpec{NodeId{0}, NodeId{1 + (i % 6)}, 100, 3, 40}));
  }
  const ChurnResult churn = backend->submit(ops);
  for (std::size_t i = 0; i < churn.admissions.size(); ++i) {
    const auto& outcome = churn.admissions[i];
    if (outcome.has_value()) {
      std::printf("admit %zu: accepted as channel %u (d_iu=%llu)\n", i,
                  outcome->id.value(),
                  static_cast<unsigned long long>(
                      outcome->partition.uplink));
    } else {
      std::printf("admit %zu: rejected (%s): %s\n", i,
                  to_string(outcome.error().reason),
                  outcome.error().detail.c_str());
    }
  }

  // 3. Ticket-first teardown + re-admit: submit_async returns immediately
  //    on the service (the dispatcher linearizes in dequeue order), and
  //    pre-completed on synchronous kinds — the calling code is identical.
  const ChannelId first = churn.admissions.front()->id;
  Ticket release = backend->submit_async(ChannelOp::release(first));
  Ticket retry = backend->submit_async(
      ChannelOp::admit(ChannelSpec{NodeId{0}, NodeId{7}, 100, 3, 40}));
  release.wait();
  retry.wait();
  std::printf("released channel %u, slot reused by channel %u\n",
              release.release_outcome()->value(),
              retry.admit_outcome()->id.value());

  backend->drain();
  std::printf("live channels: %zu, accepted %llu / requested %llu\n",
              backend->state().channels().size(),
              static_cast<unsigned long long>(backend->stats().accepted),
              static_cast<unsigned long long>(backend->stats().requested));
  return 0;
}
