#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload paxos-durable-kv --seed 1 --seconds 10 --trace 0

Run it from the repository root. Both cargo builds go to $CARGO_TARGET_DIR
(default `.bench_build`). The last line of stdout is the result
(`correct`, `attempted`, `failed`, `metrics`); the line before it is the
full row with provenance, sample counts and phases. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# What the benchmark measures: the repository's source and its own.
SOURCE_DIRS = ("crates", "shims", os.path.join("perfbench", "src"))
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", os.path.join("perfbench", "Cargo.toml"))


def source_digest(root):
    """SHA-256 over the measured source tree, so a row names its code
    even where there is no git checkout."""
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(os.path.join(root, p))]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            for f in filenames:
                if f.endswith((".rs", ".toml")):
                    paths.append(os.path.relpath(os.path.join(dirpath, f), root))
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(os.path.join(root, p), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def build(target):
    """Builds `gencon-server` (repository workspace) and `perfbench` (its
    own workspace). Returns the two binaries, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "gencon_server", "--bin", "gencon-server"]),
        (os.path.join(ROOT, "perfbench", "Cargo.toml"), []),
    )
    for manifest, extra in steps:
        if not os.path.isfile(manifest):
            print(f"perfbench: {manifest} is missing; run from a full checkout", file=sys.stderr)
            return None
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    release = os.path.join(target, "release")
    return os.path.join(release, "gencon-server"), os.path.join(release, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    bins = build(target)
    if bins is None:
        return 1
    server, perfbench = bins
    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    argv = [
        perfbench, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", server,
        "--work-dir", work,
        "--source-digest", source_digest(ROOT),
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    # The benchmark replaces this process: its exit code is the run's, and
    # nothing is left behind to outlive it.
    os.execv(perfbench, argv)


if __name__ == "__main__":
    sys.exit(main())
