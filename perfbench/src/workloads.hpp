#pragma once
/// The three benchmark workloads and the per-layer probes of the traced run.
///
/// Each workload drives the library from one process through its public
/// API. In an untraced run it reports the end-to-end metrics; in a traced
/// run it alternates traced and untraced segments of the same timed phase,
/// so it can report the tracing overhead and the span coverage of its own
/// measured phase. Every traced run also runs all layer probes, so each
/// traced run carries the whole per-layer ledger.

#include "measure.hpp"

namespace perfbench {

void run_switch_churn(const Options& options, Report& report);
void run_star_plant(const Options& options, Report& report);
void run_conformance_campaign(const Options& options, Report& report);

/// core.* and edf.* on the switch_churn network.
void probe_core_edf(const Options& options, Report& report);
/// net.*, proto.* and sim.* on the star_plant network.
void probe_net_proto_sim(const Options& options, Report& report);
/// pdes.* on a multi-switch line fabric.
void probe_pdes(const Options& options, Report& report);
/// scenario.* and analysis.* on the conformance_campaign seed range.
void probe_scenario(const Options& options, Report& report);

/// The traced-run metrics every workload reports about its own timed phase.
void report_trace_overhead(Report& report, const Segments& untraced,
                           const Segments& traced, const Tracer& tracer,
                           const Options& options, double uncovered_tolerance);

}  // namespace perfbench
