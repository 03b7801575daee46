#!/usr/bin/env python3
"""Perf regression gate: compare this commit's bench JSON artifacts against
the previous commit's.

Inputs are two directories (--old, --new), each holding the artifacts the CI
"Collect perf baselines" step produces:

  * bench_runtime_throughput.json — rows with steps_per_sec keyed by
    (section, mode, walkers, threads, batch); a regression is a drop in
    steps_per_sec beyond --min-steps-ratio.
  * bench_perf_micro.json — google-benchmark format; a regression is a rise
    in real_time beyond --max-time-ratio.

Two warn-only checks read the new throughput artifact alone: observability
overhead (metrics-ablation rows vs obs-off) and thread scaling (cpu-bound
free-run rows with more than one thread vs the 1-thread row).

Missing files or unmatched rows are skipped with a note (bench sets evolve).
In --mode=warn (default, used by CI) regressions print GitHub ::warning::
annotations and exit 0; --mode=fail prints ::error:: and exits 1. Perf on
shared CI runners is noisy — the default thresholds are deliberately loose,
and the gate exists to flag order-of-magnitude mistakes, not 5% drift.

--self-test runs the embedded fixtures and exits.
"""

import argparse
import json
import os
import sys

DEFAULT_MIN_STEPS_RATIO = 0.70  # new/old steps_per_sec below this = slower
DEFAULT_MAX_TIME_RATIO = 1.40   # new/old real_time above this = slower
DEFAULT_MAX_OBS_OVERHEAD = 0.03  # metrics-on throughput loss vs obs-off


def throughput_key(row):
    return (row.get("section"), row.get("mode"), row.get("walkers"),
            row.get("threads"), row.get("batch"))


def compare_throughput(old_rows, new_rows, min_ratio):
    """Returns (regressions, compared) for steps_per_sec drops."""
    old_by_key = {throughput_key(r): r for r in old_rows}
    regressions, compared = [], 0
    for row in new_rows:
        old = old_by_key.get(throughput_key(row))
        if old is None or not old.get("steps_per_sec"):
            continue
        compared += 1
        ratio = row["steps_per_sec"] / old["steps_per_sec"]
        if ratio < min_ratio:
            regressions.append(
                "throughput %s: %.0f -> %.0f steps/sec (x%.2f < x%.2f)"
                % (throughput_key(row), old["steps_per_sec"],
                   row["steps_per_sec"], ratio, min_ratio))
    return regressions, compared


def compare_micro(old_doc, new_doc, max_ratio):
    """Returns (regressions, compared) for google-benchmark real_time rises."""
    old_by_name = {b["name"]: b for b in old_doc.get("benchmarks", [])}
    regressions, compared = [], 0
    for bench in new_doc.get("benchmarks", []):
        old = old_by_name.get(bench["name"])
        if old is None or not old.get("real_time"):
            continue
        if old.get("time_unit") != bench.get("time_unit"):
            continue
        compared += 1
        ratio = bench["real_time"] / old["real_time"]
        if ratio > max_ratio:
            regressions.append(
                "micro %s: %.1f -> %.1f %s (x%.2f > x%.2f)"
                % (bench["name"], old["real_time"], bench["real_time"],
                   bench.get("time_unit", "?"), ratio, max_ratio))
    return regressions, compared


def check_metrics_overhead(rows, max_overhead):
    """Returns (warnings, compared) for the metrics-ablation section.

    Intra-artifact check (this commit only, no baseline needed): for each
    (walkers, threads, batch) config, every observed row (obs-metrics,
    obs-trace, obs-exporter) must stay within `max_overhead` of the
    obs-off row's steps_per_sec.
    The observability layer's contract is "near-zero overhead"; this keeps
    the claim measured on every commit.
    """
    ablation = [r for r in rows if r.get("section") == "metrics-ablation"]
    base_by_cfg = {}
    for row in ablation:
        if row.get("mode") == "obs-off" and row.get("steps_per_sec"):
            cfg = (row.get("walkers"), row.get("threads"), row.get("batch"))
            base_by_cfg[cfg] = row
    warnings, compared = [], 0
    for row in ablation:
        if row.get("mode") == "obs-off" or not row.get("steps_per_sec"):
            continue
        cfg = (row.get("walkers"), row.get("threads"), row.get("batch"))
        base = base_by_cfg.get(cfg)
        if base is None:
            continue
        compared += 1
        ratio = row["steps_per_sec"] / base["steps_per_sec"]
        if ratio < 1.0 - max_overhead:
            warnings.append(
                "observability overhead %s %s: %.0f -> %.0f steps/sec "
                "(x%.3f < x%.3f)"
                % (row.get("mode"), cfg, base["steps_per_sec"],
                   row["steps_per_sec"], ratio, 1.0 - max_overhead))
    return warnings, compared


def check_thread_scaling(rows):
    """Returns (warnings, compared) for the cpu-bound free-run rows.

    Intra-artifact check: for each (walkers, batch) config, every free-run
    row with more than one thread must reach at least the 1-thread row's
    steps_per_sec. A shared line on the lock-free hit path once made four
    threads 2.6x slower than one; this flags that collapse if it returns.
    """
    free_run = [r for r in rows if r.get("section") == "cpu-bound"
                and r.get("mode") == "free-run" and r.get("steps_per_sec")]
    base_by_cfg = {(r.get("walkers"), r.get("batch")): r
                   for r in free_run if r.get("threads") == 1}
    warnings, compared = [], 0
    for row in free_run:
        if (row.get("threads") or 0) <= 1:
            continue
        cfg = (row.get("walkers"), row.get("batch"))
        base = base_by_cfg.get(cfg)
        if base is None:
            continue
        compared += 1
        if row["steps_per_sec"] < base["steps_per_sec"]:
            warnings.append(
                "thread scaling collapse %s: %d threads %.0f < 1 thread %.0f "
                "steps/sec" % (cfg, row["threads"], row["steps_per_sec"],
                               base["steps_per_sec"]))
    return warnings, compared


def load_json(directory, name):
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        print("note: %s not found, skipping" % path)
        return None
    with open(path) as f:
        return json.load(f)


def run_gate(args):
    regressions, compared = [], 0

    old_tp = load_json(args.old, "bench_runtime_throughput.json")
    new_tp = load_json(args.new, "bench_runtime_throughput.json")
    if old_tp is not None and new_tp is not None:
        r, c = compare_throughput(old_tp, new_tp, args.min_steps_ratio)
        regressions += r
        compared += c

    old_micro = load_json(args.old, "bench_perf_micro.json")
    new_micro = load_json(args.new, "bench_perf_micro.json")
    if old_micro is not None and new_micro is not None:
        r, c = compare_micro(old_micro, new_micro, args.max_time_ratio)
        regressions += r
        compared += c

    # Observability overhead and thread scaling are checked within the new
    # artifact alone and stay warn-only in every mode: shared-runner noise
    # (and runners with fewer cores than threads) would make a hard gate
    # flaky, and the regression gate above already catches
    # order-of-magnitude mistakes.
    warnings = []
    if new_tp is not None:
        for w, c in (check_metrics_overhead(new_tp, args.max_obs_overhead),
                     check_thread_scaling(new_tp)):
            warnings += w
            compared += c

    print("perf gate: compared %d series, %d regression(s), %d "
          "intra-artifact warning(s)"
          % (compared, len(regressions), len(warnings)))
    marker = "::error::" if args.mode == "fail" else "::warning::"
    for regression in regressions:
        print(marker + "perf regression: " + regression)
    for warning in warnings:
        print("::warning::" + warning)
    if regressions and args.mode == "fail":
        return 1
    return 0


def self_test():
    old_rows = [
        {"section": "cpu-bound", "mode": "free-run", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 1000000.0},
        {"section": "cpu-bound", "mode": "free-run", "walkers": 64,
         "threads": 1, "batch": 1, "steps_per_sec": 200000.0},
    ]
    fast = [dict(r, steps_per_sec=r["steps_per_sec"] * 1.1) for r in old_rows]
    slow = [dict(r, steps_per_sec=r["steps_per_sec"] * 0.5) for r in old_rows]
    unmatched = [dict(r, mode="coalesced") for r in old_rows]

    r, c = compare_throughput(old_rows, fast, 0.7)
    assert c == 2 and not r, (r, c)
    r, c = compare_throughput(old_rows, slow, 0.7)
    assert c == 2 and len(r) == 2, (r, c)
    r, c = compare_throughput(old_rows, unmatched, 0.7)
    assert c == 0 and not r, (r, c)

    old_micro = {"benchmarks": [
        {"name": "BM_Query", "real_time": 100.0, "time_unit": "ns"},
        {"name": "BM_Step", "real_time": 50.0, "time_unit": "ns"},
    ]}
    slower = {"benchmarks": [
        {"name": "BM_Query", "real_time": 250.0, "time_unit": "ns"},
        {"name": "BM_Step", "real_time": 51.0, "time_unit": "ns"},
        {"name": "BM_New", "real_time": 1.0, "time_unit": "ns"},
    ]}
    r, c = compare_micro(old_micro, slower, 1.4)
    assert c == 2 and len(r) == 1 and "BM_Query" in r[0], (r, c)
    unit_change = {"benchmarks": [
        {"name": "BM_Query", "real_time": 250.0, "time_unit": "us"}]}
    r, c = compare_micro(old_micro, unit_change, 1.4)
    assert c == 0 and not r, (r, c)

    ablation = [
        {"section": "metrics-ablation", "mode": "obs-off", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 1000000.0},
        {"section": "metrics-ablation", "mode": "obs-metrics", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 985000.0},
        {"section": "metrics-ablation", "mode": "obs-trace", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 940000.0},
        # A non-ablation row must never enter the overhead comparison.
        {"section": "cpu-bound", "mode": "obs-metrics", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 1.0},
    ]
    w, c = check_metrics_overhead(ablation, 0.03)
    assert c == 2 and len(w) == 1 and "obs-trace" in w[0], (w, c)
    w, c = check_metrics_overhead(ablation, 0.10)
    assert c == 2 and not w, (w, c)
    w, c = check_metrics_overhead(ablation[1:], 0.03)  # no obs-off baseline
    assert c == 0 and not w, (w, c)

    def free_run(threads, steps_per_sec):
        return {"section": "cpu-bound", "mode": "free-run", "walkers": 64,
                "threads": threads, "batch": 1,
                "steps_per_sec": steps_per_sec}
    scaling = [
        free_run(1, 25e6), free_run(2, 45e6), free_run(4, 80e6),
        # Other sections and modes never enter the scaling comparison.
        {"section": "latency-bound", "mode": "free-run", "walkers": 64,
         "threads": 4, "batch": 1, "steps_per_sec": 1.0},
        {"section": "cpu-bound", "mode": "round-robin", "walkers": 64,
         "threads": 1, "batch": 1, "steps_per_sec": 90e6},
    ]
    w, c = check_thread_scaling(scaling)
    assert c == 2 and not w, (w, c)
    collapse = [free_run(1, 25e6), free_run(2, 26e6), free_run(4, 9.5e6),
                free_run(8, 9.8e6)]
    w, c = check_thread_scaling(collapse)
    assert c == 3 and len(w) == 2, (w, c)
    assert "4 threads" in w[0] and "8 threads" in w[1], w
    w, c = check_thread_scaling(collapse[1:])  # no 1-thread baseline
    assert c == 0 and not w, (w, c)

    print("perf gate self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--old", help="directory with the previous artifacts")
    parser.add_argument("--new", help="directory with this commit's artifacts")
    parser.add_argument("--mode", choices=["warn", "fail"], default="warn")
    parser.add_argument("--min-steps-ratio", type=float,
                        default=DEFAULT_MIN_STEPS_RATIO)
    parser.add_argument("--max-time-ratio", type=float,
                        default=DEFAULT_MAX_TIME_RATIO)
    parser.add_argument("--max-obs-overhead", type=float,
                        default=DEFAULT_MAX_OBS_OVERHEAD)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.old or not args.new:
        parser.error("--old and --new are required (or use --self-test)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
