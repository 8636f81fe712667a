#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the campaign runner (campaign_bench/CMakeLists.txt, which compiles the
simulator from ../src) and runs one workload:

    python3 campaign_bench/run.py --workload fixed_fe_steady --seed 1 \
        --seconds 30 --trace 0

Run it from the repository root. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Everything else (build log, full records, span traces) goes
under .bench_build/ in the repository root.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fixed_fe_steady", "replica_fanout", "lossy_capture")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out_dir):
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cmake_dir = out_dir / "campaign"
    log_path = out_dir / "campaign-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    binary = cmake_dir / "campaign_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def git_sha():
    """The checked-out commit, or 'unknown' outside a git repository."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: a seconds-long smoke run")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        tag += f"-{args.scale}"
    (out_dir / "results").mkdir(exist_ok=True)
    (out_dir / "traces").mkdir(exist_ok=True)
    spans_path = out_dir / "traces" / f"{tag}.json"

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--spans-out", str(spans_path)]
    # DYNCDN_THREADS, DYNCDN_SIM_SHARDS, DYNCDN_CAPTURE_BUDGET and friends
    # would change the campaign behind the workload's back.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DYNCDN_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"campaign_bench exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"campaign_bench exited with code {done.returncode}")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")

    manifest = next((json.loads(l.split(" ", 1)[1]) for l in lines
                     if l.startswith("manifest ")), {})
    record = {"manifest": manifest, "result": result,
              "log": lines[:-1]}
    (out_dir / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
