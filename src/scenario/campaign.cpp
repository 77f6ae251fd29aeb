#include "scenario/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <thread>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"

namespace rtether::scenario {

namespace {

/// Cross-worker result accumulation. `GUARDED_BY` makes the folding
/// protocol machine-checked: under Clang `-Wthread-safety` a worker cannot
/// touch the shared result without holding the mutex on every path.
struct Accumulator {
  Mutex mutex;
  CampaignResult result GUARDED_BY(mutex);
};

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const auto deadline =
      config.time_budget_seconds > 0.0
          ? started + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              config.time_budget_seconds))
          : Clock::time_point::max();

  unsigned threads = config.threads;
  if (threads == 0) {
    threads = std::max(1U, std::thread::hardware_concurrency());
  }
  // The caller runs scenarios too; one thread runs them inline, in order
  // (which keeps single-threaded campaigns trivially deterministic to
  // debug).
  ThreadPool pool(threads);

  Accumulator acc;
  std::atomic<bool> out_of_time{false};

  pool.run(config.scenario_count, [&](std::size_t index) {
    if (out_of_time.load(std::memory_order_relaxed)) return;
    if (Clock::now() >= deadline) {
      out_of_time.store(true, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t seed = config.base_seed + index;
    const ScenarioSpec spec = generate_scenario(config.generator, seed);
    const ScenarioResult run = run_scenario(spec, config.runner);

    MutexLock lock(acc.mutex);
    CampaignResult& result = acc.result;
    ++result.scenarios_run;
    result.ops_total += spec.ops.size();
    result.admitted_total += run.admitted;
    result.frames_delivered_total += run.frames_delivered;
    result.simulated_slots_total += run.simulated_slots;
    for (std::size_t kind = 0; kind < run.fault_injections.size(); ++kind) {
      result.fault_injections_total[kind] += run.fault_injections[kind];
    }
    result.oracle_checks_total += run.oracle_checks;
    // Rotate the fields so (events, hash) pairs cannot cancel across
    // scenarios; XOR keeps the fold order-independent.
    result.sim_digest_xor ^= run.sim_digest.link_stats_hash ^
                             (run.sim_digest.executed_events * seed) ^
                             std::rotl(run.sim_digest.rt_delivered, 17) ^
                             std::rotl(run.sim_digest.best_effort_sent, 31);
    if (!run.passed) {
      ++result.failures;
      // Keep the max_failures *lowest* seeds (sorted insert + trim), not
      // the first to finish — the kept set must be identical across thread
      // interleavings.
      CampaignFailure failure;
      failure.seed = seed;
      failure.detail = run.violations.empty()
                           ? "unknown failure"
                           : run.violations.front().to_string();
      auto& failing = result.failing;
      const auto at = std::lower_bound(
          failing.begin(), failing.end(), failure.seed,
          [](const CampaignFailure& f, std::uint64_t s) { return f.seed < s; });
      if (at != failing.end() || failing.size() < config.max_failures) {
        failure.spec = spec;
        failing.insert(at, std::move(failure));
        if (failing.size() > config.max_failures) {
          failing.pop_back();
        }
      }
    }
  });

  // The fork-join above is the synchronization point: every worker is done,
  // so move the accumulated result out under the lock and drop the lock for
  // the single-threaded epilogue.
  CampaignResult result;
  {
    MutexLock lock(acc.mutex);
    result = std::move(acc.result);
  }

  result.time_budget_hit = out_of_time.load(std::memory_order_relaxed);
  // Throughput metrics cover the campaign itself; shrinking failures is
  // diagnostic work accounted separately, so a red campaign's
  // scenarios/sec stays comparable with a green one's.
  result.seconds =
      std::chrono::duration<double>(Clock::now() - started).count();

  if (config.shrink_failures) {
    ShrinkOptions shrink_options;
    shrink_options.runner = config.runner;
    for (auto& failure : result.failing) {
      failure.minimized =
          shrink_scenario(failure.spec, shrink_options).minimized;
    }
  }
  result.shrink_seconds =
      std::chrono::duration<double>(Clock::now() - started).count() -
      result.seconds;
  return result;
}

}  // namespace rtether::scenario
