/// conformance_campaign: `scenario::run_campaign` run inline over a fixed
/// seed range of the kMixed generator, with the runner's default options.
///
/// Thousands of 3–12-node networks: construction, the admission backend
/// battery, the oracle and the wire replay dominate. The seed range is
/// fixed so its digest can be pinned; the workload seed only permutes the
/// order in which the range's scenarios run. Each scenario is one
/// `run_campaign` call over a one-seed range, so its time is measured; the
/// calls run back to back in passes over the range until the run's time is
/// up, and every complete pass must reproduce the pinned digest.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/admission_backend.hpp"
#include "core/partitioner.hpp"
#include "scenario/campaign.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rtether;

constexpr std::uint64_t kBaseSeed = 1;
constexpr std::size_t kRangeSize = 6'000;
/// `sim_digest_xor` of `run_campaign` over seeds [kBaseSeed,
/// kBaseSeed + kRangeSize) with default generator and runner options.
constexpr std::uint64_t kPinnedDigestXor = 0x9b77'2b87'a42d'56d9ULL;
constexpr std::size_t kScenariosPerSegment = 50;
constexpr int kSetupReps = 31;

std::vector<scenario::ScenarioSpec> generate_range(std::size_t count) {
  std::vector<scenario::ScenarioSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    specs.push_back(scenario::generate_scenario({}, kBaseSeed + i));
  }
  return specs;
}

std::size_t admit_ops(const scenario::ScenarioSpec& spec) {
  return static_cast<std::size_t>(
      std::count_if(spec.ops.begin(), spec.ops.end(), [](const auto& op) {
        return op.kind == scenario::ScenarioOp::Kind::kAdmit;
      }));
}

scenario::CampaignResult run_one(std::uint64_t seed) {
  scenario::CampaignConfig config;
  config.base_seed = seed;
  config.scenario_count = 1;
  config.threads = 1;
  return scenario::run_campaign(config);
}

}  // namespace

void run_conformance_campaign(const Options& options, Report& report) {
  const ScopedPin pin;
  std::vector<scenario::ScenarioSpec> specs;
  const double setup_s = median_setup_seconds(
      kSetupReps, [&](int) { specs = generate_range(kRangeSize); });
  std::size_t range_admits = 0;
  for (const auto& spec : specs) range_admits += admit_ops(spec);

  // The workload seed permutes the order of the fixed range.
  std::vector<std::uint64_t> order(kRangeSize);
  for (std::size_t i = 0; i < kRangeSize; ++i) order[i] = kBaseSeed + i;
  Rng rng(SplitMix64(options.seed ^ 0xca3au).next());
  rng.shuffle(order);

  Tracer tracer;
  const std::uint32_t segment_span = tracer.name("campaign.segment");
  const std::uint32_t scenario_span = tracer.name("scenario.run_campaign");
  Segments segments;
  Segments traced_segments;
  Reservoir scenario_us(kOpSamples);
  std::uint64_t scenarios = 0;
  std::uint64_t failures = 0;
  std::uint64_t passes = 0;
  std::uint64_t pass_xor = 0;
  std::uint64_t pass_admitted = 0;
  std::uint64_t bad_passes = 0;
  double accept_ratio = 0.0;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  bool out_of_time = false;
  for (std::size_t segment = 0; !out_of_time; ++segment) {
    const bool traced = options.trace && segment % 2 == 1;
    Tracer* t = traced ? &tracer : nullptr;
    const std::int64_t seg_start = now_ns();
    std::uint32_t root = 0;
    if (t) root = t->begin(segment_span, segment);
    for (std::size_t i = 0; i < kScenariosPerSegment; ++i) {
      const std::uint64_t seed = order[scenarios % kRangeSize];
      const std::int64_t t0 = now_ns();
      scenario::CampaignResult result;
      {
        ScopedSpan span(t, scenario_span, seed);
        result = run_one(seed);
      }
      if (!t) {
        scenario_us.add(static_cast<double>(now_ns() - t0) * 1e-3,
                        segments.size());
      }
      ++scenarios;
      failures += result.failures;
      if (result.failures != 0 && !result.failing.empty()) {
        std::fprintf(stderr, "conformance_campaign: seed %llu failed: %s\n",
                     static_cast<unsigned long long>(seed),
                     result.failing.front().detail.c_str());
      }
      pass_xor ^= result.sim_digest_xor;
      pass_admitted += result.admitted_total;
      if (scenarios % kRangeSize == 0) {
        ++passes;
        if (pass_xor != kPinnedDigestXor) {
          ++bad_passes;
          std::fprintf(stderr,
                       "conformance_campaign: pass digest %016llx, pinned "
                       "%016llx\n",
                       static_cast<unsigned long long>(pass_xor),
                       static_cast<unsigned long long>(kPinnedDigestXor));
        }
        accept_ratio = static_cast<double>(pass_admitted) /
                       static_cast<double>(range_admits);
        pass_xor = 0;
        pass_admitted = 0;
      }
    }
    if (t) t->end(root);
    (traced ? traced_segments : segments)
        .add(static_cast<double>(kScenariosPerSegment),
             seconds_between(seg_start, now_ns()), 0.0);
    host_speed::sample_if_due();
    out_of_time = passes >= 1 && now_ns() - start >= budget_ns;
  }
  const double rss_mb = peak_rss_mb();
  std::fprintf(stderr,
               "conformance_campaign: %llu scenarios (%llu complete passes "
               "of %zu) in %.2f s\n",
               static_cast<unsigned long long>(scenarios),
               static_cast<unsigned long long>(passes), kRangeSize,
               seconds_between(start, now_ns()));

  report.check(failures == 0, "conformance_campaign: " +
                                  std::to_string(failures) +
                                  " scenarios violated the oracle");
  report.check(bad_passes == 0,
               "conformance_campaign: sim_digest_xor differs from the pin");
  report.attempted = scenarios;
  report.failed = failures + bad_passes;

  if (options.trace) {
    report_trace_overhead(report, segments, traced_segments, tracer, options,
                          0.05);
    return;
  }
  const double scale = host_speed::scale();
  report.metric("setup_s", setup_s / scale, "s");
  report.metric("ops_per_s", segments.median_rate() * scale, "1/s");
  const std::vector<double> sampled_us = scenario_us.sample();
  report.percentile_metric("op_p50_us", sampled_us, 0.50, "us", scale);
  report.percentile_metric("op_p99_us", sampled_us, 0.99, "us", scale);
  report.metric("accept_ratio", accept_ratio, "ratio");
  report.metric("peak_rss_mb", rss_mb, "MB");
}

// The range is fixed and its order does not matter here, so the options
// (the seed) go unused.
void probe_scenario(const Options& /*options*/, Report& report) {
  constexpr std::size_t kSample = 400;
  std::vector<double> generate_us;
  std::vector<scenario::ScenarioSpec> specs;
  for (std::size_t i = 0; i < kSample; ++i) {
    const std::int64_t t0 = now_ns();
    specs.push_back(scenario::generate_scenario({}, kBaseSeed + i));
    generate_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  report.metric("scenario.generate_us", median(generate_us), "us");

  scenario::RunnerOptions admission_only;
  admission_only.run_simulation = false;
  const scenario::RunnerOptions defaults;
  std::vector<double> admission_us;
  std::vector<double> sim_us;
  std::uint64_t oracle_checks = 0;
  std::size_t failed = 0;
  for (const auto& spec : specs) {
    std::int64_t t0 = now_ns();
    const auto admission = scenario::run_scenario(spec, admission_only);
    const double adm = static_cast<double>(now_ns() - t0) * 1e-3;
    t0 = now_ns();
    const auto full = scenario::run_scenario(spec, defaults);
    const double all = static_cast<double>(now_ns() - t0) * 1e-3;
    admission_us.push_back(adm);
    sim_us.push_back(all - adm);
    oracle_checks += full.oracle_checks;
    failed += (admission.passed && full.passed) ? 0 : 1;
  }
  report.check(failed == 0, "scenario probe: a scenario failed");
  report.metric("scenario.admission_phase_us", median(admission_us), "us");
  report.metric("scenario.sim_phase_us", median(sim_us), "us");
  report.metric("analysis.oracle_checks_per_scenario",
                static_cast<double>(oracle_checks) /
                    static_cast<double>(specs.size()),
                "count");

  // Each backend kind replays the star scenarios' op streams via submit.
  for (const std::string_view kind : core::backend_kinds()) {
    double total_us = 0.0;
    std::size_t replayed = 0;
    for (const auto& spec : specs) {
      if (spec.topology.kind != scenario::TopologyKind::kStar ||
          spec.scheme == "TT") {
        continue;
      }
      const std::int64_t t0 = now_ns();
      auto backend = core::make_admission_backend(
          kind, spec.topology.nodes, core::make_partitioner(spec.scheme));
      std::vector<std::int32_t> assigned(spec.ops.size(), -1);
      for (std::size_t i = 0; i < spec.ops.size(); ++i) {
        const scenario::ScenarioOp& op = spec.ops[i];
        core::ChannelOp channel_op;
        if (op.kind == scenario::ScenarioOp::Kind::kAdmit) {
          channel_op = core::ChannelOp::admit(op.spec);
        } else {
          const bool live_target = op.target != scenario::ScenarioOp::kNoTarget &&
                                   assigned[op.target] >= 0;
          channel_op = core::ChannelOp::release(ChannelId{
              live_target ? static_cast<std::uint16_t>(assigned[op.target])
                          : op.raw_id});
        }
        const core::ChurnResult result = backend->submit({&channel_op, 1});
        if (!result.admissions.empty() && result.admissions[0].has_value()) {
          assigned[i] = result.admissions[0]->id.value();
        }
      }
      total_us += static_cast<double>(now_ns() - t0) * 1e-3;
      ++replayed;
    }
    report.metric("scenario.backend_us." + std::string(kind),
                  total_us / static_cast<double>(replayed), "us");
  }
}

}  // namespace perfbench
