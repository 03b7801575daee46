#!/usr/bin/env python3
"""Repo benchmark: builds the benchmark binary from this checkout's sources
(Release), runs one workload, checks its outputs, and prints every metric by
name with its unit. The last line of stdout is the result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload hot-cache --seed 1 --seconds 15 --trace 0

--trace 0 reports BENCHMARK.json's end_to_end metrics; --trace 1 is the
separate traced run that reports its per_layer metrics. --tiny shrinks every
workload (selfcheck.py uses it). The build goes to $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(out_dir):
    """Configures (Release) and builds the benchmark binary; returns its path."""
    cmake_dir = out_dir / "perfbench-cmake"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(1, "build failed: " + " ".join(step))
    return cmake_dir / "perfbench"


def commit_stamp():
    """The commit when the checkout is a git repository, else 'unknown';
    always a digest of the library sources, which identifies the code."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "service" / "crawl_service.h").is_file():
        fail(2, f"no library sources under {ROOT / 'src'}; run from a full "
                "checkout of the repository")
    if not spec_path.is_file():
        fail(2, f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(2, f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    scratch = out_dir / "perfbench-tmp"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dir", str(BENCH_DIR), "--tmp", str(scratch)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(proc.returncode or 1,
             f"benchmark binary exited with {proc.returncode}")
    doc = json.loads(lines[-1])

    stamp = doc["stamp"]
    if stamp["build_type"] != "Release":
        fail(3, f"refusing numbers from a {stamp['build_type']} build")
    commit, src_digest = commit_stamp()
    stamp.update(commit=commit, src_sha256=src_digest)
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    # Checks made by the binary, plus this wrapper's: every metric that
    # BENCHMARK.json names must be present, finite, and in its unit.
    checks = doc["checks"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        ok = (got is not None and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]))
        checks["metric." + m["name"]] = {
            "ok": ok, "detail": "" if ok else f"missing or malformed: {got}"}
        if ok:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    failed_checks = sorted(n for n, c in checks.items() if not c["ok"])
    correct = doc["correct"] and not failed_checks
    failed = doc["failed"] + (0 if correct or doc["failed"] else 1)

    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]['value']:>16.6g} "
              f"{metrics[name]['unit']}")
    for row in doc["notes"].get("ledger", []):
        print(f"  ledger {row['name']:<36} median {row['median_ns']:9.2f} ns "
              f"[{row['min_ns']:.2f}, {row['max_ns']:.2f}] x{row['reps']:.0f}")
    print(f"checks: {len(checks) - len(failed_checks)}/{len(checks)} passed")
    for name in failed_checks:
        print(f"  FAILED {name}: {checks[name]['detail']}")

    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
