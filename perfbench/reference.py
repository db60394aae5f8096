#!/usr/bin/env python3
"""Regenerates the reference figures of perfbench/README.md.

Usage, from the repository root:

    python3 perfbench/reference.py OUTDIR [--seeds 10] [--seconds 30]

Runs, one after another, every workload on seeds 101, 102, ... (end to
end), one traced run per workload (seed 201), and the chunk-autotune
study on `bulk_load` (seeds 301, ...: ingest with WAVEDENS_INGEST_CHUNK
unset, and pinned to each candidate chunk). Each run's stdout is saved
under OUTDIR; the end-to-end and traced summaries are printed with
perfbench/compare.py, the study as one line per setting.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk_load", "fresh_serve", "joint_pairs")
CHUNKS = ("unset", "128", "256", "512", "1024", "2048")
STUDY_RUNS = 3
STUDY_SECONDS = 10


def run(out, workload, seed, seconds, trace, chunk=None):
    env = dict(os.environ)
    env.pop("WAVEDENS_INGEST_CHUNK", None)
    if chunk is not None:
        env["WAVEDENS_INGEST_CHUNK"] = chunk
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with open(out, "w") as handle:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.DEVNULL,
                       check=False)


def last_json(path):
    lines = [line for line in pathlib.Path(path).read_text().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    outdir = pathlib.Path(argv[0])
    seeds = int(argv[argv.index("--seeds") + 1]) if "--seeds" in argv else 10
    seconds = int(argv[argv.index("--seconds") + 1]) if "--seconds" in argv else 30
    e2e, traced, study = outdir / "end_to_end", outdir / "traced", outdir / "autotune"
    for directory in (e2e, traced, study):
        directory.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for seed in range(101, 101 + seeds):
            run(e2e / f"{workload}_{seed}.txt", workload, seed, seconds, 0)
    for workload in WORKLOADS:
        run(traced / f"{workload}_201.txt", workload, 201, seconds, 1)
    for i in range(STUDY_RUNS):
        for chunk in CHUNKS:
            run(study / f"bulk_load_{chunk}_{301 + i}.txt", "bulk_load", 301 + i,
                STUDY_SECONDS, 0, None if chunk == "unset" else chunk)
    compare = [sys.executable, str(ROOT / "perfbench" / "compare.py")]
    subprocess.run(compare + [str(e2e)], cwd=ROOT, check=False)
    subprocess.run(compare + [str(traced)], cwd=ROOT, check=False)
    print("bulk_load ingest_rows_per_s by WAVEDENS_INGEST_CHUNK (one value per process):")
    for chunk in CHUNKS:
        values = []
        for i in range(STUDY_RUNS):
            result = last_json(study / f"bulk_load_{chunk}_{301 + i}.txt")
            if result and result["metrics"].get("ingest_rows_per_s"):
                values.append(result["metrics"]["ingest_rows_per_s"]["value"])
        shown = " ".join(f"{v:.4g}" for v in values)
        middle = f"{statistics.median(values):.4g}" if values else "n/a"
        print(f"  {chunk:>6}: median {middle}  [{shown}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
