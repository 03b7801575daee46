#!/usr/bin/env python3
"""Fast self-check of the repo benchmark.

Runs every workload of BENCHMARK.json at tiny sizes, once end to end and once
traced (which includes the layer-peel ledger), and fails if a run exits
non-zero, reports a failed check or operation, or leaves out a metric that
BENCHMARK.json names. It also confirms that the benchmark refuses to run,
without printing a result, where the library sources are missing.

  python3 perfbench/selfcheck.py
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def last_json_line(text):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_workloads(spec):
    failures = []
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--workload", workload["name"], "--seed", "1",
                   "--seconds", "0.2", "--trace", trace, "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            result = last_json_line(proc.stdout)
            label = f"{workload['name']} --trace {trace}"
            if result is None:
                failures.append(f"{label}: no result line (exit "
                                f"{proc.returncode})")
                continue
            missing = sorted({m["name"] for m in spec[key]} -
                             set(result["metrics"]))
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}")
            if not result["correct"] or result["failed"] != 0:
                problems.append("failed checks:\n" + proc.stdout)
            if missing:
                problems.append(f"missing metrics {missing}")
            status = "ok" if not problems else "FAIL"
            print(f"{label:<32} {status} ({result['attempted']} operations)")
            failures.extend(f"{label}: {p}" for p in problems)
    return failures


def check_refuses_without_sources():
    """A directory holding only BENCHMARK.json and this benchmark's files."""
    out = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    bare = out / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / BENCH_DIR.name / "run.py"),
             "--workload", "hot-cache", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json_line(proc.stdout) is not None:
        return ["bare directory: the benchmark did not refuse to run"]
    print(f"{'bare directory':<32} ok (refused, exit {proc.returncode})")
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_workloads(spec) + check_refuses_without_sources()
    for failure in failures:
        print("FAIL " + failure)
    print("selfcheck: " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
