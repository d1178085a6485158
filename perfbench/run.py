#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sdf-text --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into $CARGO_TARGET_DIR, or perfbench/target
when that is unset, then runs one workload. The last line of standard
output is the result object; the line before it is the run's report
(sample counts, failure reasons, STATS cross-checks) and the first line is
the provenance of the measurement. The result's metric names and units are
checked against BENCHMARK.json before it is printed. Any failure exits
non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so results can
    be matched to code where no git metadata is available."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench/src", "vendor"):
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(directory, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def command_output(args):
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload} (expected one of {names})")
    declared = bench["per_layer" if args.trace == "1" else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")

    provenance = {
        "git_rev": command_output(["git", "rev-parse", "HEAD"])
        if os.path.exists(".git") else "unknown",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "host_cores": os.cpu_count(),
        "profile": "release",
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace, "--out", target],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"the run failed with exit code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the run printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the run's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    expected = [(m["name"], m["unit"]) for m in declared]
    if printed != expected:
        fail(f"metrics {printed} do not match BENCHMARK.json {expected}")

    print("provenance " + json.dumps(provenance))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
