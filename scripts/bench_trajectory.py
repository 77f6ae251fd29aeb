#!/usr/bin/env python3
"""Merge BENCH_*.json artifacts into one machine-readable perf trajectory.

Every bench binary writes a flat JSON object (BENCH_service.json,
BENCH_scenario_fuzz.json, BENCH_sim.json, ...). Until now
those were fire-and-forget artifacts: each CI run uploaded them and nothing
ever read them together, so the repo had no single place to see how the
perf story composes. This script collects them, prints a compact summary in
the job log, and writes BENCH_trajectory.json — one object keyed by bench
name with the headline metrics plus the full per-bench payloads — which the
CI bench job uploads as the canonical perf artifact of the commit.

Usage:
    bench_trajectory.py [--out BENCH_trajectory.json] [file-or-dir ...]

With no positional arguments, BENCH_*.json files in the current directory
are used. Exit code 1 when no bench files were found (a wired-up CI job
producing nothing is a bug), 0 otherwise.
"""

import argparse
import glob
import json
import os
import sys

# Headline metrics per bench kind: (json key, short label, unit). Keys are
# top-level members of each bench's JSON (see the json.member calls in the
# bench mains).
HEADLINES = {
    "admission_service": [
        ("min_gated_service_speedup", "service/batch (worst gated)", "x"),
        ("min_inline_ratio", "inline/batch (worst)", "x"),
        ("all_outcomes_identical", "outcomes identical", ""),
        ("gate_enforced", "gate enforced", ""),
    ],
    "scenario_fuzz": [
        ("scenarios_per_sec", "scenarios", "/s"),
        ("sim_slots_per_sec", "sim slots", "/s"),
        ("failures", "failures", ""),
    ],
    "fault_campaign": [
        ("scenarios_per_sec", "scenarios", "/s"),
        ("oracle_checks", "oracle checks", ""),
        ("failures", "failures", ""),
        ("min_injections_per_class", "min injections/class", ""),
    ],
    "ablation_tt": [
        ("tt_acceptance_ratio", "TT acceptance", ""),
        ("edf_acceptance_ratio", "EDF acceptance", ""),
        ("tt_worst_jitter_ticks", "TT worst jitter", " ticks"),
        ("edf_worst_jitter_ticks", "EDF worst jitter", " ticks"),
        ("tt_be_delivered_per_kslot", "TT BE", "/kslot"),
        ("failures", "failures", ""),
    ],
    "sim_kernel": [
        ("typed_kernel_slots_per_sec", "typed kernel", " slots/s"),
        ("steady_state_allocations", "steady-state allocs", ""),
    ],
    "sim_parallel": [
        ("sequential_slots_per_sec", "sequential", " slots/s"),
        ("threads1_slots_per_sec", "1 thread", " slots/s"),
        ("threads2_slots_per_sec", "2 threads", " slots/s"),
        ("threads4_slots_per_sec", "4 threads", " slots/s"),
        ("partition_count", "partitions", ""),
        ("cut_link_share", "cut-link share", ""),
        ("paired_1thread_ratio", "paired 1-thread", "x"),
        ("speedup_4threads", "4-thread speedup", "x"),
        ("digests_identical", "digests identical", ""),
    ],
}


def collect(paths):
    """Yields (filename, parsed object) for every readable bench JSON."""
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"WARN: skipping {path}: {error}", file=sys.stderr)
            continue
        if not isinstance(data, dict):
            print(f"WARN: skipping {path}: not a JSON object", file=sys.stderr)
            continue
        yield path, data


def format_value(value):
    if isinstance(value, float):
        return f"{value:,.2f}" if abs(value) < 100 else f"{value:,.0f}"
    return f"{value:,}" if isinstance(value, int) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_trajectory.json")
    parser.add_argument("inputs", nargs="*",
                        help="bench JSON files or directories to scan")
    args = parser.parse_args()

    paths = []
    for item in args.inputs or ["."]:
        if os.path.isdir(item):
            paths.extend(sorted(glob.glob(os.path.join(item, "BENCH_*.json"))))
        else:
            paths.append(item)
    # The merged output must never feed itself on a re-run.
    paths = [p for p in paths if os.path.basename(p) != os.path.basename(args.out)]

    trajectory = {}
    print("== perf trajectory ==")
    for path, data in collect(paths):
        name = data.get("bench", os.path.basename(path))
        trajectory[name] = {
            "source": os.path.basename(path),
            "headlines": {},
            "raw": data,
        }
        lines = []
        for key, label, unit in HEADLINES.get(name, []):
            if key in data:
                trajectory[name]["headlines"][key] = data[key]
                lines.append(f"{label} {format_value(data[key])}{unit}")
        # Benches without a registered headline set still appear (raw only).
        summary = ", ".join(lines) if lines else "(no headline metrics)"
        print(f"  {name:<16} {summary}")

    if not trajectory:
        print("ERROR: no BENCH_*.json inputs found", file=sys.stderr)
        return 1

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(trajectory)} benches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
