#!/usr/bin/env python3
"""Repo benchmark runner: builds perfbench from source, runs one workload,
prints a run fingerprint and, as the last line, the result JSON.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # every workload at smoke size

Run it from the repository root.  The build lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); spans of a
traced run are written to <build>/out/trace-<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "service.hpp")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git so
    nothing outside the checkout is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out_dir]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {BINARY_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def binary_fingerprint(lines):
    for line in lines:
        if line.startswith("perfbench: fingerprint "):
            return json.loads(line[len("perfbench: fingerprint "):])
    return {}


def run_once(args):
    binary = build()
    load_before = os.getloadavg()
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    load_after = os.getloadavg()
    fingerprint = {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "commit": git_commit(),
        **binary_fingerprint(lines),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
    }
    if fingerprint.get("build_type") != "Release" or fingerprint.get("sanitized"):
        fingerprint["flag"] = "not a Release build: numbers are not comparable"
    try:
        result = parse_result(lines)
    except ValueError as error:
        for line in lines:
            print(line)
        log(f"no result from perfbench (exit {code}): {error}")
        return code or 1
    for line in lines[:-1]:
        print(line)
    print("fingerprint: " + json.dumps(fingerprint))
    print(json.dumps(result))
    return code


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def smoke():
    """Every workload, both modes, at smoke size: checks pass and every
    metric named in BENCHMARK.json is present with its unit.  `fleet` is
    not in BENCHMARK.json (see README.md) but is still smoke-tested."""
    binary = build()
    failures = []
    for trace in (False, True):
        expected = expected_metrics(trace)
        for workload in ("ingest", "churn", "fleet"):
            code, lines = run_binary(binary, workload, 1, 1, trace, smoke=True)
            label = f"{workload} --trace {int(trace)}"
            try:
                result = parse_result(lines)
            except ValueError as error:
                failures.append(f"{label}: {error}")
                continue
            if code != 0 or not result["correct"]:
                failures.append(f"{label}: correctness checks failed (exit {code})")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: metrics {got} != {expected}")
            log(f"{label}: ok={code == 0 and result['correct']}, {len(got)} metrics, "
                f"{result['attempted']} ops")
    for failure in failures:
        log(f"SMOKE FAILED: {failure}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        return run_once(args)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        log(f"error: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
