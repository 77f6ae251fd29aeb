#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py steady [--runs N] [--seed-base B]
    python3 perfbench/run.py selftest

Run from the root of a checkout. The first call configures and builds the
library and the driver under $CARGO_TARGET_DIR (default .bench_build).
The last line of stdout is the run's JSON result; build output and
diagnostics go to stderr. `steady` runs every workload N times, interleaved,
for BENCHMARK.json's run_seconds, and prints median, quartiles and min/max
per metric. `selftest` checks the estimators (in the C++ driver) and
BENCHMARK.json.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no rtether sources next to {HERE}")
    out = build_dir()
    env = dict(os.environ, CCACHE_DIR=str(out / "ccache"))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return out / "perfbench"


def metric_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result)."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--drift-bound", str(bounds["ops_per_s"]),
               "--trace-dir", str(trace_dir)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    expected = set(metric_names(spec, trace))
    got = set(result["metrics"])
    if got != expected:
        log(f"metric set mismatch: missing {sorted(expected - got)}, "
            f"unexpected {sorted(got - expected)}")
        result["correct"] = False
        return 1, result
    return proc.returncode, result


def cmd_run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    code, result = run_once(binary, spec, args.workload, args.seed,
                            args.seconds, args.trace == 1)
    print(json.dumps(result), flush=True)
    return code


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def cmd_steady(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    binary = build()
    values = {w: {} for w in workloads}
    failures = 0
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed_base + i
            code, result = run_once(binary, spec, workload, seed,
                                    spec["run_seconds"], False)
            ok = code == 0 and result["correct"]
            failures += 0 if ok else 1
            log(f"run {i} {workload} seed {seed}: "
                f"{'ok' if ok else 'FAILED'}")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':22} {'metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for name, series in values[workload].items():
            if len(series) < 2:
                continue
            q1, q2, q3, share = spread(series)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound:
                flag = " OVER"
            print(f"{workload:22} {name:34} {q2:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {min(series):12.6g} {max(series):12.6g} "
                  f"{share:7.4f} {bound if bound is not None else '':>6}"
                  f"{flag}")
    return 1 if failures else 0


def check_spec(spec):
    """Returns the list of problems in BENCHMARK.json and layers.json."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "top-level keys")
    need(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for path in spec["paths"]:
        need(PATH_RE.match(path) and not path.startswith("/")
             and ".." not in path.split("/"), f"path {path!r}")
    command = spec["command"]
    need(1 <= len(command) <= 32 and all(len(c) <= 200 for c in command),
         "command length")
    need(isinstance(spec["run_seconds"], int)
         and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    need(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    for workload in spec["workloads"]:
        need(set(workload) == {"name", "why"}, f"workload keys {workload}")
        need(len(workload["why"]) <= 200 and "\n" not in workload["why"],
             f"why of {workload['name']}")
    need(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    for metric in spec["end_to_end"]:
        need(set(metric) == {"name", "unit", "better", "bound"},
             f"end-to-end keys {metric}")
        need(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    for metric in spec["per_layer"]:
        need(set(metric) == {"name", "unit", "better"},
             f"per-layer keys {metric}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        need(NAME_RE.match(name), f"name {name!r}")
    need(len(names) == len(set(names)), "names are unique")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        need(UNIT_RE.match(metric["unit"]), f"unit of {metric['name']}")
        need(metric["better"] in ("higher", "lower"),
             f"better of {metric['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s"
         and setup[0]["better"] == "lower"
         and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
         "setup_s in s, lower is better, with the largest bound")
    need(len(json.dumps(spec).encode()) <= 64 * 1024, "at most 64 KiB")

    with open(HERE / "layers.json", encoding="utf-8") as handle:
        layers = json.load(handle)
    workload_names = {w["name"] for w in spec["workloads"]}
    need(set(layers["workloads"]) == workload_names,
         "layers.json describes every workload")
    for name, entry in layers["workloads"].items():
        why = {w["name"]: w["why"] for w in spec["workloads"]}.get(name)
        need(entry.get("why") == why, f"layers.json why of {name}")
    per_layer = {m["name"] for m in spec["per_layer"]}
    mapped = set()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for layer, metrics in layers["layers"].items():
        for name, moves in metrics.items():
            mapped.add(name)
            need(name.split(".")[0] == layer, f"{name} under layer {layer}")
            for target in moves:
                need(target["metric"] in end_to_end
                     and target["workload"] in workload_names,
                     f"{name} moves {target}")
    need(mapped == per_layer, "layers.json maps exactly the per-layer "
         f"metrics (missing {sorted(per_layer - mapped)}, "
         f"extra {sorted(mapped - per_layer)})")
    return problems


def cmd_selftest(_args):
    problems = check_spec(load_spec())
    for problem in problems:
        log(f"BENCHMARK.json: {problem}")
    binary = build()
    code = subprocess.run([str(binary), "--selftest"], check=False).returncode
    ok = not problems and code == 0
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("steady", "selftest"):
        parser = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "steady":
            parser.add_argument("--runs", type=int, default=5)
            parser.add_argument("--seed-base", type=int, default=1)
        args = parser.parse_args(sys.argv[2:])
        if sys.argv[1] == "steady":
            return cmd_steady(args)
        return cmd_selftest(args)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return cmd_run(parser.parse_args())


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        sys.exit(2)
