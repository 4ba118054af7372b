#!/usr/bin/env python3
"""Build and run the uts end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the library from ../src) into $CARGO_TARGET_DIR,
default .bench_build; later runs rebuild incrementally. Build output goes to
stderr; stdout carries the benchmark's report and, as its last line, one JSON
object {correct, attempted, failed, metrics}.

--smoke runs every workload of BENCHMARK.json briefly on tiny shapes, traced
and untraced, and checks that every named metric is printed with its unit
and that the correctness gate passes.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a uts checkout (no CMakeLists.txt or src/)")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = build_dir / "uts_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    work_dir = build_dir / "run"
    work_dir.mkdir(exist_ok=True)
    return binary, work_dir


def run(binary, work_dir, workload, seed, seconds, trace, smoke=False):
    """Run one benchmark process; returns (exit code, stdout lines)."""
    # A relative work dir keeps the server's Unix socket path short.
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    if smoke:
        command.append("--smoke")
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return process.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def smoke(binary, work_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run(binary, work_dir, name, 1, 2, trace, smoke=True)
            result = result_of(lines)
            where = f"{name} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result line")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correctness gate failed "
                                f"({result['failed']} of "
                                f"{result['attempted']} failed)")
            printed = result["metrics"]
            for metric in metrics:
                got = printed.get(metric["name"])
                if got is None:
                    problems.append(f"{where}: {metric['name']} missing")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit "
                                    f"{got.get('unit')!r}, want "
                                    f"{metric['unit']!r}")
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{where}: {metric['name']} not finite")
            extra = set(printed) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{where}: unexpected metrics {sorted(extra)}")
            print(f"smoke {where}: {len(printed)} metrics, correct="
                  f"{result['correct']}, attempted={result['attempted']}")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    binary, work_dir = build()
    if args.smoke:
        return smoke(binary, work_dir)
    code, lines = run(binary, work_dir, args.workload, args.seed, args.seconds,
                      args.trace)
    for line in lines:
        print(line)
    if code != 0:
        return code
    if result_of(lines) is None:
        fail("the benchmark printed no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
