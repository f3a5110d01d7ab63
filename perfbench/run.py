#!/usr/bin/env python3
"""Build and run the layered benchmark for one workload.

    python3 perfbench/run.py --workload bulk3d|lpi_sweep|ranks2_socket \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `perfbench` package
(release profile, offline) into $CARGO_TARGET_DIR (default `.bench_build`),
runs the workload in one child process, and prints that process's report.
The last line of standard output is the JSON result: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
result is checked against BENCHMARK.json before it is printed.

Exits non-zero, without printing a result, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bulk3d", "lpi_sweep", "ranks2_socket")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Source files whose content identifies the code under test when the
# checkout is not a git repository.
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", ".cargo", "crates", "shims", "src", "perfbench")
SKIP_DIRS = {".bench_build", ".bench_out", "target", "__pycache__"}


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files(root):
    for top in SOURCE_ROOTS:
        base = root / top
        if base.is_file():
            yield base
            continue
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            for f in sorted(files):
                yield Path(d) / f


def source_hash(root):
    """sha256 over the paths and contents of the sources under test."""
    h = hashlib.sha256()
    for p in source_files(root):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def code_revision(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        git = out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git = "none"
    return f"git {git}, sources {source_hash(root)}"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_result(line, spec, traced):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"result metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result has no attempted operations")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the root of a checkout (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"build did not finish in {BUILD_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    exe = target / "release" / "perfbench"

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out", "--host-rustc", rustc_version(),
           "--host-rev", code_revision(root)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} failed (exit {run.returncode})")
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing")
    check_result(lines[-1], spec, args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
