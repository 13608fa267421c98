#!/usr/bin/env python3
"""End-to-end benchmark of the mccl simulator, on both clocks.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

The first form builds perfbench/ (CMake, Release) into .bench_build/perfbench
if needed, runs one seeded workload for about --seconds seconds of host time,
and prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics.

--smoke runs every workload at toy size, checks that each named metric is
printed with its unit, and checks that the correctness checks fire on a
deliberately corrupted result. perfbench/README.md describes the workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mccl_perfbench"
WORKLOADS = ("paper_scale", "dpa_datapath", "tenants_chaos")
INJECTIONS = ("status", "data", "determinism")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr, never to stdout."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    start = time.monotonic()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
              BUILD_TIMEOUT_S)
    log(f"build ready in {time.monotonic() - start:.1f} s")


def run_binary(workload, seed, seconds, trace, extra=()):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=None, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise BenchError(f"{workload} printed no result")
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])
    return info, result


def select(result, wanted):
    """Keeps exactly the metrics BENCHMARK.json names, checking units."""
    metrics = result["metrics"]
    out = {}
    for name, unit in wanted.items():
        if name not in metrics:
            raise BenchError(f"metric {name} missing from the run")
        if metrics[name]["unit"] != unit:
            raise BenchError(f"metric {name} has unit {metrics[name]['unit']},"
                             f" BENCHMARK.json says {unit}")
        out[name] = metrics[name]
    return out


def main_run(args):
    spec = load_spec()
    build()
    info, result = run_binary(args.workload, args.seed, args.seconds,
                              args.trace)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(result, wanted),
    }
    for err in info.get("errors", []):
        log(f"check failed: {err}")
    print(json.dumps(final))


def main_smoke():
    spec = load_spec()
    build()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            info, result = run_binary(workload, 1, 0.01, trace, ["--smoke"])
            try:
                select(result, spec[kind])
            except BenchError as e:
                problems.append(f"{workload} {kind}: {e}")
            if not result["correct"]:
                problems.append(f"{workload} {kind}: clean run reported "
                                f"incorrect: {info.get('errors')}")
        for inject in INJECTIONS:
            info, result = run_binary(workload, 1, 0.01, False,
                                      ["--smoke", "--inject", inject])
            if result["correct"]:
                problems.append(f"{workload}: corrupted result ({inject}) "
                                "went unnoticed")
            else:
                log(f"{workload} --inject {inject}: caught "
                    f"({info['errors'][0]})")
    for p in problems:
        log(f"SMOKE FAIL: {p}")
    log("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return main_smoke()
        if args.workload is None:
            ap.error("--workload is required")
        main_run(args)
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
