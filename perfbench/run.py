#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (a cargo package of
its own that depends on the repository's crates by path) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload and
prints the benchmark's report. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; it is checked against `BENCHMARK.json` before it is printed.
Any failure to build, run or validate exits non-zero without a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if m.get("unit") != expected[name] or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} is malformed: {m}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    expected = expected_metrics(args.trace == 1)
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # The program's own flight recorder stays off.
    env.pop("PCOLL_TRACE", None)
    # One malloc arena: glibc opens more arenas when threads contend for
    # one, so with the default the peak resident memory followed the
    # host's load (16.1 MiB quiet, 24.5 MiB busy on train_skew).
    env["MALLOC_ARENA_MAX"] = "1"

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # The benchmark's own process group holds the TCP rank workers it
    # spawns, so a timeout stops all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"run exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON")
    validate(result, expected)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
