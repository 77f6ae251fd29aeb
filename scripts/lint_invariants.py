#!/usr/bin/env python3
"""Hot-path invariant linter for the rtether tree.

Token-level static checks for invariants the compiler cannot express:

  hot-path-alloc         no heap allocation in the typed sim kernel hot path
                         (`new`, `make_unique`, `make_shared`, `malloc`, ...)
  hot-path-type-erasure  no `std::function` in the hot path
  hot-path-virtual       no virtual dispatch in the hot path
  lock-free-path         no mutex/condvar types in lock-free files
                         (`MpscQueue`, the SPSC cut-link channel, the
                         admission-service ingest/ticket path, the
                         shard-worker feasibility path)
  nodiscard-expected     every `Expected`-returning public API declaration in
                         a header is `[[nodiscard]]`
  thread-start           no `std::thread`/`std::jthread` object or
                         `std::async` in `src/` outside the files that own
                         threads (`ThreadPool`, the admission service's
                         dispatcher); static members such as
                         `std::thread::hardware_concurrency` are fine

The scanner strips comments and string/char literals first (so prose such as
"the new event" never trips a rule), then matches whole tokens. It is a
deliberately dependency-free, conservative implementation; if `clang.cindex`
(libclang) is ever available it would be the natural upgrade path, but the
rules below are precise enough at token level for this codebase's style.

Waivers (each must carry a reason):

  // LINT-WAIVE(rule-id): reason         -- same line or the line above
  // LINT-WAIVE-FILE(rule-id): reason    -- anywhere; waives the whole file

Exit status: 0 clean, 1 findings, 2 usage/config error.

Usage:
  lint_invariants.py [--root DIR] [--json OUT]
  lint_invariants.py --file PATH --profile {hot-path,lock-free,nodiscard,thread-start} [--json OUT]

The `--file/--profile` form checks one file against one rule family as if it
were in that family's configured file set; the negative lint tests under
`tests/static/seeded/` use it to prove each rule still fires.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Configuration: which invariant applies to which files (repo-relative).
# --------------------------------------------------------------------------

# The typed simulator kernel: event loop, transmitter, per-port queues and
# the FrameArena-backed frame type, plus the partitioned fabric and its
# parallel round driver (per-round code runs once per event/frame, so the
# same no-alloc/no-type-erasure rules apply). Amortized std::vector growth
# (reserve/push_back in setup) is allowed; explicit allocation is not.
HOT_PATH_FILES = [
    "src/sim/fabric.hpp",
    "src/sim/fabric.cpp",
    "src/sim/parallel.hpp",
    "src/sim/parallel.cpp",
    "src/sim/simulator.hpp",
    "src/sim/simulator.cpp",
    "src/sim/transmitter.hpp",
    "src/sim/transmitter.cpp",
    "src/sim/queues.hpp",
    "src/sim/frame.hpp",
    "src/sim/frame.cpp",
]

# Files whose lock-freedom is a documented hard invariant: the Vyukov MPSC
# ring + eventcount transport, the SPSC cut-link channel, the admission
# service's ingest/ticket path (producers never block on a lock; the
# dispatcher's only blocking point inside a burst is the engine pool's
# fork-join), and the shard-worker feasibility path.
LOCK_FREE_FILES = [
    "src/common/mpsc_queue.hpp",
    "src/common/spsc_channel.hpp",
    "src/core/admission_service.cpp",
    "src/core/parallel_admission.cpp",
]

# Headers scanned for the nodiscard rule (public API surface).
NODISCARD_SCAN_DIRS = ["src"]

# Parallel work in `src/` runs on `ThreadPool::run`; the only other thread
# is the admission service's dispatcher. Every other file is scanned for
# thread starts.
THREAD_SCAN_DIRS = ["src"]
THREAD_OWNER_FILES = {
    "src/common/thread_pool.hpp",
    "src/common/thread_pool.cpp",
    "src/core/admission_service.cpp",
}

# Return types that are `Expected` or a direct alias of it.
EXPECTED_TYPES = ["Expected", "Status", "AdmitOutcome", "ReleaseOutcome"]

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

PROFILES = {
    "hot-path": ["hot-path-alloc", "hot-path-type-erasure", "hot-path-virtual"],
    "lock-free": ["lock-free-path"],
    "nodiscard": ["nodiscard-expected"],
    "thread-start": ["thread-start"],
}

# --------------------------------------------------------------------------
# Source scanning helpers
# --------------------------------------------------------------------------

_WAIVE_LINE = re.compile(r"LINT-WAIVE\(([a-z0-9-]+)\)\s*:\s*\S")
_WAIVE_FILE = re.compile(r"LINT-WAIVE-FILE\(([a-z0-9-]+)\)\s*:\s*\S")


def strip_code(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers match the original file."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == 'R' and nxt == '"':
                # Raw string literal: R"delim( ... )delim"
                m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(" " * m.end())
                    i += m.end()
                else:
                    out.append(c)
                    i += 1
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'" and not (out and (out[-1].isalnum() or out[-1] == "_")):
                # char literal ('a', '\n'); digit separators (1'000) excluded
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            if c == "\\":
                out.append("  ")
                i += 2
            elif (state == "string" and c == '"') or (
                state == "char" and c == "'"
            ):
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
                state = "code"
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.code = strip_code(self.text)
        self.lines = self.text.splitlines()
        self.code_lines = self.code.splitlines()
        self.file_waivers = set(_WAIVE_FILE.findall(self.text))
        self.line_waivers = {}  # line number (1-based) -> set of rule ids
        for lineno, line in enumerate(self.lines, start=1):
            for rule in _WAIVE_LINE.findall(line):
                self.line_waivers.setdefault(lineno, set()).add(rule)

    def waived(self, rule: str, lineno: int) -> bool:
        if rule in self.file_waivers:
            return True
        for candidate in (lineno, lineno - 1):
            if rule in self.line_waivers.get(candidate, set()):
                return True
        return False


class Report:
    def __init__(self):
        self.findings = []
        self.waivers_used = 0
        self.files_checked = 0

    def add(self, src: SourceFile, rule: str, lineno: int, message: str):
        if src.waived(rule, lineno):
            self.waivers_used += 1
            return
        snippet = (
            src.lines[lineno - 1].strip() if 0 < lineno <= len(src.lines) else ""
        )
        self.findings.append(
            {
                "rule": rule,
                "file": src.rel,
                "line": lineno,
                "message": message,
                "snippet": snippet[:160],
            }
        )


def token_matches(pattern: str, code_lines, flags=0):
    """Yields (lineno, match) for a whole-token regex over stripped code."""
    rx = re.compile(pattern, flags)
    for lineno, line in enumerate(code_lines, start=1):
        for m in rx.finditer(line):
            yield lineno, m


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

_ALLOC_TOKENS = re.compile(
    r"(?<![\w:])(new\b(?!\s*\()|new\s*\(|new\s*\[|"
    r"(?:std\s*::\s*)?make_unique\s*<|(?:std\s*::\s*)?make_shared\s*<|"
    r"malloc\s*\(|calloc\s*\(|realloc\s*\(|free\s*\(|"
    r"delete\b)"
)


def rule_hot_path_alloc(src: SourceFile, report: Report):
    for lineno, line in enumerate(src.code_lines, start=1):
        for m in _ALLOC_TOKENS.finditer(line):
            tok = m.group(1)
            # `= delete` declares a deleted special member, not deallocation.
            if tok.startswith("delete") and re.search(
                r"=\s*delete\s*$", line[: m.end()].rstrip(";").rstrip()
            ):
                continue
            report.add(
                src,
                "hot-path-alloc",
                lineno,
                f"heap allocation token `{tok.strip()}` in sim hot path; "
                "use FrameArena / preallocated storage",
            )


def rule_hot_path_type_erasure(src: SourceFile, report: Report):
    for lineno, _ in token_matches(
        r"(?<![\w])std\s*::\s*function\s*<", src.code_lines
    ):
        report.add(
            src,
            "hot-path-type-erasure",
            lineno,
            "`std::function` in sim hot path; use a concrete callable or "
            "the typed event variant",
        )


def rule_hot_path_virtual(src: SourceFile, report: Report):
    for lineno, _ in token_matches(r"(?<![\w:])virtual\b", src.code_lines):
        report.add(
            src,
            "hot-path-virtual",
            lineno,
            "virtual dispatch in sim hot path; the kernel is monomorphized "
            "by design (typed event variant, CRTP if needed)",
        )


_MUTEX_TOKENS = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?"
    r"(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?|MutexLock|CondVar)\b"
    r"|(?<![\w:])rtether\s*::\s*Mutex\b"
    r"|(?<![\w:])Mutex\s+\w+\s*;"
)


def rule_lock_free_path(src: SourceFile, report: Report):
    for lineno, line in enumerate(src.code_lines, start=1):
        for m in _MUTEX_TOKENS.finditer(line):
            report.add(
                src,
                "lock-free-path",
                lineno,
                f"mutex/condvar token `{m.group(0).strip()}` in a lock-free "
                "file; these paths must use atomics and Eventcount only",
            )


_THREAD_TOKENS = re.compile(
    r"(?<![\w:])std\s*::\s*(?:(?:j?thread)\b(?!\s*::)|async\s*[<(])"
)


def rule_thread_start(src: SourceFile, report: Report):
    for lineno, line in enumerate(src.code_lines, start=1):
        for m in _THREAD_TOKENS.finditer(line):
            report.add(
                src,
                "thread-start",
                lineno,
                f"thread-starting token `{m.group(0).strip()}` outside the "
                "thread-owning files; run parallel work on ThreadPool::run",
            )


_EXPECTED_RET = re.compile(
    r"^(\s*)((?:\[\[[^\]]*\]\]\s*)*)"
    r"((?:(?:virtual|static|constexpr|inline|friend|explicit)\s+)*)"
    r"(?:rtether\s*::\s*)?(?:core\s*::\s*)?"
    r"(" + "|".join(EXPECTED_TYPES) + r")\s*(<[^;=]*>)?\s*"
    r"(&|\*)?\s*"
    r"([A-Za-z_]\w*)\s*\("
)


def rule_nodiscard_expected(src: SourceFile, report: Report):
    if not src.rel.endswith((".hpp", ".h")):
        return
    for lineno, line in enumerate(src.code_lines, start=1):
        m = _EXPECTED_RET.match(line)
        if not m:
            continue
        attrs, ref, name = m.group(2), m.group(6), m.group(7)
        if ref:
            continue  # returns a reference/pointer: accessor, not a result
        if name in ("operator",):
            continue
        # Template parameter lists such as `Expected<T, E> make(` inside a
        # `using` or comparison are already excluded by ^-anchoring.
        if "[[nodiscard]]" in attrs:
            continue
        prev = src.code_lines[lineno - 2].strip() if lineno >= 2 else ""
        if "[[nodiscard]]" in prev:
            continue
        report.add(
            src,
            "nodiscard-expected",
            lineno,
            f"`{name}` returns an Expected-family result by value but is "
            "not [[nodiscard]]; silently dropping a typed rejection hides "
            "admission-control failures",
        )


RULES = {
    "hot-path-alloc": rule_hot_path_alloc,
    "hot-path-type-erasure": rule_hot_path_type_erasure,
    "hot-path-virtual": rule_hot_path_virtual,
    "lock-free-path": rule_lock_free_path,
    "nodiscard-expected": rule_nodiscard_expected,
    "thread-start": rule_thread_start,
}

# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def load(root: Path, rel: str):
    path = root / rel
    if not path.is_file():
        return None
    return SourceFile(path, rel)


def iter_tree(root: Path, subdirs):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                rel = path.relative_to(root).as_posix()
                if rel.startswith("tests/static/seeded/"):
                    continue  # intentionally-violating lint fixtures
                yield rel


def run_tree(root: Path, report: Report):
    for rel in HOT_PATH_FILES:
        src = load(root, rel)
        if src is None:
            print(f"lint_invariants: configured hot-path file missing: {rel}",
                  file=sys.stderr)
            return 2
        report.files_checked += 1
        rule_hot_path_alloc(src, report)
        rule_hot_path_type_erasure(src, report)
        rule_hot_path_virtual(src, report)

    for rel in LOCK_FREE_FILES:
        src = load(root, rel)
        if src is None:
            print(f"lint_invariants: configured lock-free file missing: {rel}",
                  file=sys.stderr)
            return 2
        report.files_checked += 1
        rule_lock_free_path(src, report)

    for rel in iter_tree(root, NODISCARD_SCAN_DIRS):
        if not rel.endswith((".hpp", ".h")):
            continue
        src = load(root, rel)
        report.files_checked += 1
        rule_nodiscard_expected(src, report)

    for rel in iter_tree(root, THREAD_SCAN_DIRS):
        if rel in THREAD_OWNER_FILES:
            continue
        src = load(root, rel)
        report.files_checked += 1
        rule_thread_start(src, report)
    return 0


def run_single(root: Path, file_arg: str, profile: str, report: Report):
    path = Path(file_arg)
    if not path.is_file():
        print(f"lint_invariants: no such file: {file_arg}", file=sys.stderr)
        return 2
    rel = (
        path.relative_to(root).as_posix()
        if path.is_absolute() and path.is_relative_to(root)
        else file_arg
    )
    src = SourceFile(path, rel)
    report.files_checked += 1
    for rule in PROFILES[profile]:
        RULES[rule](src, report)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write a machine-readable findings report")
    parser.add_argument("--file", default=None,
                        help="check a single file instead of the tree")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        help="rule family to apply with --file")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"lint_invariants: bad --root {root}", file=sys.stderr)
        return 2
    if (args.file is None) != (args.profile is None):
        print("lint_invariants: --file and --profile go together",
              file=sys.stderr)
        return 2

    report = Report()
    status = (
        run_single(root, args.file, args.profile, report)
        if args.file
        else run_tree(root, report)
    )
    if status:
        return status

    if args.json:
        payload = {
            "version": 1,
            "files_checked": report.files_checked,
            "waivers_used": report.waivers_used,
            "findings": report.findings,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")

    for f in report.findings:
        print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
        if f["snippet"]:
            print(f"    {f['snippet']}")
    summary = (
        f"lint_invariants: {len(report.findings)} finding(s), "
        f"{report.files_checked} file(s) checked, "
        f"{report.waivers_used} waiver(s) honoured"
    )
    print(summary)
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
