#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <grid-cold|cells-deep|serve-warm> \
        --seed <n> --seconds <s> --trace <0|1> [--quick] [--inject-mismatch]

Builds the `perfbench` package twice with cargo, into $CARGO_TARGET_DIR
(default `.bench_build`): a plain binary for the end-to-end run
(`--trace 0`) and one with the simulator's `cycle-profile` counters
compiled in for the per-layer run (`--trace 1`). Both are built on every
call, so the first call pays for both builds and later calls only for
cargo's freshness check. Then it runs the binary the `--trace` flag
selects with the same arguments; the last line of its stdout is the
result JSON. Exits non-zero without printing a result if a build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, traced):
    """Build one variant and copy it aside, since both share a target dir."""
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST]
    if traced:
        cmd += ["--features", "cycle-profile"]
    # Cargo's own output goes to stderr so stdout ends with the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    variant = os.path.join(target_dir, "perfbench-" + ("traced" if traced else "plain"))
    shutil.copy2(os.path.join(target_dir, "release", "perfbench"), variant)
    return variant


def git_rev():
    """The checkout's git revision, if it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def main():
    args = sys.argv[1:]
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.environ["CARGO_TARGET_DIR"]
    try:
        plain = build(target_dir, traced=False)
        traced = build(target_dir, traced=True)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = traced if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] else plain
    work_dir = os.path.join(target_dir, "perfbench-work")
    cmd = [binary] + args + ["--work-dir", work_dir, "--git-rev", git_rev()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
