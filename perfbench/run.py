#!/usr/bin/env python3
"""Builds the wavedens benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <bulk_load|fresh_serve|joint_pairs> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
Cargo's output goes to stderr; stdout carries the run record and, as its
last line, the JSON result. Set PERFBENCH_FEATURES=simd-intrinsics to
build the AVX2 kernel backend as well.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
# What the program under test is built from; hashed into the run record
# because a checkout of the sources need not be a git repository.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor")


def source_digest():
    digest = hashlib.sha256()
    for name in SOURCES:
        path = ROOT / name
        if path.is_file():
            files = [path]
        elif path.is_dir():
            files = sorted(
                p for p in path.rglob("*")
                if p.is_file() and "target" not in p.relative_to(ROOT).parts
            )
        else:
            files = []
        for file in files:
            digest.update(str(file.relative_to(ROOT)).encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


def command_output(args):
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_revision():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or pathlib.Path(top).resolve() != ROOT:
        return "unavailable"
    return command_output(["git", "rev-parse", "HEAD"]) or "unavailable"


def main():
    if not (ROOT / "crates" / "engine" / "Cargo.toml").is_file():
        print(f"perfbench: no wavedens sources under {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    features = env.get("PERFBENCH_FEATURES", "").strip()
    build = ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)]
    if features:
        build += ["--features", features]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    binary = target / "release" / "wavedens-perfbench"
    print(f"host: rustc=\"{command_output(['rustc', '--version']) or 'unknown'}\" "
          f"git_revision={git_revision()} source_digest={source_digest()} "
          f"cargo_features={features or 'default'}", flush=True)
    try:
        ran = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
