#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the harness in ``perfbench/harness`` (a Cargo package of its own
that depends on the repository crates by path), runs one workload, and
relays the harness output. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Run it from the root of the repository:

    python3 perfbench/run.py --workload full_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run of the same seed. ``--negative-control`` corrupts
one expected output; the command must then exit non-zero. Build output
and run artifacts (span dumps, per-run JSON records) go under
``$CARGO_TARGET_DIR`` (default ``.bench_build``).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("full_mix", "es_tenants", "sync_mix")
# A first run may take 900 s in all: building plus one run.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
# Files whose content identifies the code under test.
SOURCE_GLOBS = ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "perfbench/harness/Cargo.toml", "perfbench/harness/Cargo.lock",
                "perfbench/harness/src/*.rs")


def source_digest(root):
    """SHA-256 over the path and content of every source file, sorted."""
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in root.glob(g) if p.is_file()})
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_id(root):
    """The git commit of the checkout, or "unknown" outside a repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    manifest = Path(__file__).resolve().parent / "harness" / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = target / "perfbench"
    command = [str(target / "release" / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", str(out_dir), "--commit", commit_id(root),
               "--source-digest", source_digest(root)]
    if args.negative_control:
        command.append("--negative-control")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0:
        # A failed run prints no result line; show what it did print.
        for line in lines:
            print(line, file=sys.stderr)
        print(f"perfbench: harness exited with code {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
    except (IndexError, ValueError, AssertionError):
        for line in lines:
            print(line, file=sys.stderr)
        print("perfbench: harness printed no valid result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
