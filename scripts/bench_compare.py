#!/usr/bin/env python3
"""Regression gate for the committed benchmark artifacts.

Compares freshly produced google-benchmark JSON (bench-json/BENCH_*.json from
the CI bench-smoke job, or a local scripts/bench_json.sh run) against the
baselines committed at the repo root. Per benchmark, the gate is on the median
real_time of its raw runs (scripts/bench_json.sh records 5 repetitions of
each; a file with one run per name compares that run):

  slower by more than --warn (default 15%)  ->  WARN
  slower by more than --fail (default 40%)  ->  FAIL (nonzero exit)

Benchmarks compare honestly only on comparable hosts, so the gate is keyed on
the "hardware_concurrency" context the benches record (scripts/bench_json.sh
baselines come from a developer machine; CI runners differ): when the widths
disagree, FAILs are downgraded to report-only warnings instead of failing the
build on hardware we never measured.

Usage:
  scripts/bench_compare.py --baseline . --current bench-json \
      [--warn 0.15] [--fail 0.40] [--summary "$GITHUB_STEP_SUMMARY"]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

OK, WARN, FAIL = "ok", "warn", "FAIL"


def load_benchmarks(path: pathlib.Path) -> tuple[dict[str, float], str]:
    """Returns {benchmark name: median real_time in ns over its raw runs} and
    the context's hardware_concurrency ("" when the file predates the context
    field)."""
    with path.open() as f:
        doc = json.load(f)
    runs: dict[str, list[float]] = {}
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue  # take the median of the raw runs ourselves
        unit = TIME_UNIT_NS.get(entry.get("time_unit", "ns"))
        if unit is None or "real_time" not in entry:
            continue
        runs.setdefault(entry["name"], []).append(float(entry["real_time"]) * unit)
    times = {name: statistics.median(values) for name, values in runs.items()}
    context = doc.get("context", {})
    width = context.get("hardware_concurrency") or str(context.get("num_cpus", ""))
    return times, str(width)


def fmt_ns(ns: float) -> str:
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=".", help="dir holding committed BENCH_*.json")
    parser.add_argument("--current", default="bench-json", help="dir holding fresh BENCH_*.json")
    parser.add_argument("--warn", type=float, default=0.15, help="warn when slower by this ratio")
    parser.add_argument("--fail", type=float, default=0.40, help="fail when slower by this ratio")
    parser.add_argument("--summary", default="", help="markdown summary file to append to")
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline)
    current_dir = pathlib.Path(args.current)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_compare: no BENCH_*.json baselines under {baseline_dir}", file=sys.stderr)
        return 2

    rows = []  # (status, artifact, benchmark, baseline ns, current ns, delta)
    comparable = True
    notes = []
    for base_path in baselines:
        cur_path = current_dir / base_path.name
        if not cur_path.exists():
            rows.append((FAIL, base_path.name, "(artifact missing from current run)", 0.0, 0.0, 0.0))
            continue
        base, base_width = load_benchmarks(base_path)
        cur, cur_width = load_benchmarks(cur_path)
        if base_width and cur_width and base_width != cur_width:
            comparable = False
            notes.append(
                f"{base_path.name}: hardware_concurrency {base_width} (baseline) vs "
                f"{cur_width} (current) — not comparable, report-only"
            )
        for name, base_ns in sorted(base.items()):
            if name not in cur:
                rows.append((FAIL, base_path.name, f"{name} (missing)", base_ns, 0.0, 0.0))
                continue
            delta = cur[name] / base_ns - 1.0
            status = FAIL if delta > args.fail else WARN if delta > args.warn else OK
            rows.append((status, base_path.name, name, base_ns, cur[name], delta))
        for name in sorted(set(cur) - set(base)):
            notes.append(f"{cur_path.name}: new benchmark {name} (no baseline yet)")

    hard_fail = any(status == FAIL for status, *_ in rows) and comparable
    if not comparable:
        rows = [(WARN if status == FAIL else status, *rest) for status, *rest in rows]

    lines = ["# Bench regression check", ""]
    if notes:
        lines += [f"> {note}" for note in notes] + [""]
    lines += [
        "| status | artifact | benchmark | baseline | current | delta |",
        "|---|---|---|---:|---:|---:|",
    ]
    for status, artifact, name, base_ns, cur_ns, delta in rows:
        if status == OK and len(rows) > 40:
            continue  # keep huge tables to the interesting rows
        lines.append(
            f"| {status} | {artifact} | {name} | {fmt_ns(base_ns)} | "
            f"{fmt_ns(cur_ns)} | {delta:+.1%} |"
        )
    counts = {s: sum(1 for status, *_ in rows if status == s) for s in (OK, WARN, FAIL)}
    lines += ["", f"{counts[OK]} ok, {counts[WARN]} warn, {counts[FAIL]} fail "
                  f"(warn > {args.warn:.0%} slower, fail > {args.fail:.0%} slower)"]
    report = "\n".join(lines)
    print(report)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(report + "\n")

    return 1 if hard_fail else 0


if __name__ == "__main__":
    sys.exit(main())
