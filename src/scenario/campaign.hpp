#pragma once

/// @file campaign.hpp
/// Parallel fuzzing campaigns: N seeds → N scenarios → N oracle runs across
/// a `common::ThreadPool`, with failures collected, deterministically
/// ordered by seed and shrunk to minimized repro specs. This is the engine
/// behind `bench_scenario_fuzz` (PR perf gate + nightly CI job) and the
/// campaign smoke tests; scenario throughput is a first-class perf metric
/// (BENCH_scenario_fuzz.json).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/shrinker.hpp"
#include "scenario/spec.hpp"

namespace rtether::scenario {

struct CampaignConfig {
  /// Scenario i uses seed base_seed + i.
  std::uint64_t base_seed{1};
  std::size_t scenario_count{1000};
  /// Threads that run scenarios, the caller included; 0 = one per hardware
  /// thread.
  unsigned threads{0};
  GeneratorConfig generator{};
  /// Injected factories must be thread-safe (the defaults are).
  RunnerOptions runner{};
  /// Failures beyond this many are counted but not kept/shrunk.
  std::size_t max_failures{8};
  /// Wall-clock budget; scenarios not started before it expires are
  /// skipped (0 = unbounded). The nightly CI job runs a 60-second budget.
  double time_budget_seconds{0.0};
  bool shrink_failures{true};
};

struct CampaignFailure {
  std::uint64_t seed{0};
  ScenarioSpec spec;
  ScenarioSpec minimized;
  /// First violation of the original failing run.
  std::string detail;
};

struct CampaignResult {
  std::size_t scenarios_run{0};
  std::size_t failures{0};
  bool time_budget_hit{false};
  /// The `max_failures` failures with the *lowest* seeds, ascending
  /// (deterministic across thread interleavings even when more fail).
  std::vector<CampaignFailure> failing;
  // Aggregates for throughput reporting.
  std::uint64_t ops_total{0};
  std::uint64_t admitted_total{0};
  std::uint64_t frames_delivered_total{0};
  std::uint64_t simulated_slots_total{0};
  /// Per-fault-class injection totals across every scenario (indexed by
  /// sim::FaultKind). A fault-heavy campaign gates on each class being
  /// nonzero — proof the whole fault universe was actually exercised.
  std::array<std::uint64_t, sim::kFaultKindCount> fault_injections_total{};
  /// Calculus-oracle consultations across every scenario.
  std::uint64_t oracle_checks_total{0};
  /// XOR of every scenario's SimDigest fields (order-independent, so it is
  /// identical across thread counts and interleavings). Campaigns run with
  /// the same seeds on two kernel builds must agree on this fingerprint.
  std::uint64_t sim_digest_xor{0};
  /// Campaign wall-clock (generation + oracle runs only).
  double seconds{0.0};
  /// Additional wall-clock spent shrinking failures (0 on green runs).
  double shrink_seconds{0.0};

  [[nodiscard]] double scenarios_per_second() const {
    return seconds > 0.0 ? static_cast<double>(scenarios_run) / seconds : 0.0;
  }
  [[nodiscard]] double simulated_slots_per_second() const {
    return seconds > 0.0 ? static_cast<double>(simulated_slots_total) / seconds
                         : 0.0;
  }
};

[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace rtether::scenario
