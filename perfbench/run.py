#!/usr/bin/env python3
"""Runs the repository benchmark.

Builds perfbench/flock_perfbench from the sources in this checkout, runs one
workload and prints every metric with its unit and sample count, then, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list.

Usage (from the repository root):
    python3 perfbench/run.py --workload serve_predict --seed 1 \
        --seconds 10 --trace 0
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "flock_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = out.stdout.splitlines()[0] if out.stdout else compiler
    sha = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_digest": source_digest(),
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %s (have %s)" % (args.workload, workloads))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(
        traces, "%s-seed%d.json" % (args.workload, args.seed))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", scratch, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("benchmark program exited with %d" % proc.returncode, 4)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("benchmark program printed no result", 4)

    metrics = result["metrics"]
    print("workload %s  seed %d  seconds %d  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for name in sorted(metrics):
        m = metrics[name]
        print("  %-34s %16.6g %-6s n=%-8d %s" %
              (name, m["value"], m["unit"], m["samples"], m["note"]))
    for problem in result["problems"]:
        print("  PROBLEM: " + problem)
    for m in wanted:
        name = m["name"]
        if name not in metrics:
            if not args.trace:
                fail("program did not report %s" % name, 5)
            # A layer the workload does not exercise reads 0.
            metrics[name] = {"value": 0, "unit": m["unit"]}
            print("  %-34s %16s %-6s (layer not exercised)" %
                  (name, "0", m["unit"]))
        elif metrics[name]["unit"] != m["unit"]:
            fail("%s is reported in %s, BENCHMARK.json says %s" %
                 (name, metrics[name]["unit"], m["unit"]), 5)
    detail = dict(result)
    detail["host"] = host_facts(args.seed)
    print("detail " + json.dumps(detail, sort_keys=True))
    final = {
        "correct": bool(result["correct"] and result["valid"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(final))
    # An invalid run (the load generator fell behind) or a wrong output is
    # reported above and not scored.
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
