#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

The first form runs one workload.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it is the traced pass, which runs every
workload and reports every per-layer metric.  The last line of stdout is
the result, one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the host fingerprint.

--workload all runs every workload untraced on --seed and again on the
held-out seed, and prints every metric by name with its unit.

--self-test runs the tests of the benchmark's own arithmetic.

The benchmark builds the repository's libraries from ../src together with
its own sources (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR, default
.bench_build, under the repository root.  Exit status: 0 when every
correctness check passed, 1 when one failed, 2 when the benchmark could
not build or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["service_mix", "fluid_map", "packet_star", "fabric_fattree"]

# Never used while tuning the benchmark or a change: claims are rechecked
# on it (see perfbench/README.md).
HELD_OUT_SEED = 7919

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as err:
                fail(f"cannot run {step[0]}: {err}")
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    return out


def steal_ticks():
    """Steal ticks of all CPUs so far (/proc/stat), or None."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build_info(binary):
    out = subprocess.run([str(binary), "--build-info"], capture_output=True,
                         text=True, timeout=10)
    info = {}
    for line in out.stdout.splitlines():
        key, _, value = line.partition("=")
        info[key] = value
    return info


def run_child(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, stdout lines, fingerprint)."""
    steal_before = steal_ticks()
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    steal_after = steal_ticks()
    sys.stderr.write(proc.stderr)
    info = build_info(binary)
    fingerprint = {
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "git_rev": git_revision(),
        "source_digest": source_digest(),
        "steal_ticks": (steal_after - steal_before
                        if steal_before is not None and steal_after is not None
                        else None),
        "wall_s": round(time.monotonic() - start, 3),
    }
    return proc.returncode, proc.stdout.splitlines(), fingerprint


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def run_one(binary, args):
    code, lines, fingerprint = run_child(binary, args.workload, args.seed,
                                        args.seconds, args.trace)
    result = parse_result(lines)
    if code not in (0, 1) or result is None:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{args.workload} exited with {code} without a result")
    print("\n".join(lines[:-1]))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] and code == 0 else 1


def run_all(binary, args):
    """Every workload on --seed and on the held-out seed, untraced."""
    status = 0
    attempted = failed = 0
    for workload in WORKLOADS:
        for seed in (args.seed, HELD_OUT_SEED):
            code, lines, fingerprint = run_child(binary, workload, seed,
                                                args.seconds, 0)
            result = parse_result(lines)
            if result is None:
                print("\n".join(lines), file=sys.stderr)
                fail(f"{workload} exited with {code} without a result")
            attempted += result["attempted"]
            failed += result["failed"]
            if code != 0 or not result["correct"]:
                status = 1
            tag = "held-out" if seed == HELD_OUT_SEED else "seed"
            print(f"== {workload} {tag}={seed} steal_ticks="
                  f"{fingerprint['steal_ticks']} correct={result['correct']}")
            for line in lines:
                if line.startswith("metric "):
                    print("   " + line[len("metric "):])
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed}, separators=(",", ":")))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build()
        return subprocess.run([str(out / "perfbench_selftest")]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    binary = build() / "perfbench"
    if args.workload == "all":
        return run_all(binary, args)
    return run_one(binary, args)


if __name__ == "__main__":
    sys.exit(main())
