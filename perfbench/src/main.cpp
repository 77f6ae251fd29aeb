/// perfbench: the repository benchmark driver.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --drift-bound B [--trace-dir DIR]
///   perfbench --selftest
///
/// Diagnostics go to stderr; the last line of stdout is one JSON object
/// with the keys correct, attempted, failed and metrics. The exit code is
/// non-zero when any correctness check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

void report_trace_overhead(Report& report, const Segments& untraced,
                           const Segments& traced, const Tracer& tracer,
                           const Options& options,
                           double uncovered_tolerance) {
  const double base = untraced.median_rate();
  const double overhead =
      base > 0.0 ? 1.0 - traced.median_rate() / base : 0.0;
  const double uncovered = tracer.uncovered_share();
  std::fprintf(stderr,
               "  traced %s: untraced rate %.6g, traced rate %.6g, overhead "
               "%.4f, uncovered %.4f of traced wall time (tolerance %.2f)\n",
               options.workload.c_str(), base, traced.median_rate(), overhead,
               uncovered, uncovered_tolerance);
  for (const auto& layer : tracer.self_times()) {
    std::fprintf(stderr, "    span %-24s count %10llu self %.4f s\n",
                 layer.name.c_str(),
                 static_cast<unsigned long long>(layer.count),
                 layer.self_seconds);
  }
  report.check(uncovered <= uncovered_tolerance,
               options.workload + ": layer spans leave " +
                   std::to_string(uncovered) +
                   " of the measured wall time uncovered");
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-" + std::to_string(options.seed) + ".spans.csv";
  report.check(tracer.write_csv(path, 100'000), "cannot write " + path);
  report.metric("trace.overhead_share", overhead, "ratio");
  report.metric("trace.uncovered_share", uncovered, "ratio");
  report.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
  report.metric("trace.rate_drift", untraced.rate_drift(), "ratio");
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --drift-bound B [--trace-dir DIR]\n"
               "       perfbench --selftest\n",
               why);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failures = run_selftest();
      std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || options.seconds <= 0.0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--drift-bound") {
      options.drift_bound = std::strtod(value, &end);
      if (end == value || *end != '\0' || options.drift_bound <= 0.0) {
        return usage("bad --drift-bound");
      }
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage("unknown argument");
    }
  }

  using RunFn = void (*)(const Options&, Report&);
  RunFn run = nullptr;
  if (options.workload == "switch_churn") {
    run = run_switch_churn;
  } else if (options.workload == "star_plant") {
    run = run_star_plant;
  } else if (options.workload == "conformance_campaign") {
    run = run_conformance_campaign;
  } else {
    return usage("unknown --workload");
  }
  if (options.drift_bound <= 0.0) return usage("missing --drift-bound");

  Report report;
  try {
    for (int i = 0; i < 3; ++i) host_speed::sample();
    run(options, report);
    if (options.trace) {
      probe_core_edf(options, report);
      probe_net_proto_sim(options, report);
      probe_pdes(options, report);
      probe_scenario(options, report);
      report.metric("host.speed_scale", host_speed::scale(), "ratio");
    }
    std::fprintf(stderr, "host speed scale %.4f\n", host_speed::scale());
  } catch (const std::exception& error) {
    report.fail(std::string("exception: ") + error.what());
  }
  for (const auto& problem : report.problems()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
