"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload target-train --seed 1 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` it times the workload with
nothing wrapped and reports the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced instances and reports the per-layer metrics.
The last line of standard output is the result object; the lines before it
record the run's environment, the fingerprint of its seeded results, the
host-speed calibration, failed checks and any traced function that no longer
exists. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def git_sha():
    """Commit of the checkout, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args):
    import numpy as np
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "openblas": openblas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "git_sha": git_sha(), "src_sha256": src_sha256()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="gaitbridge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure_layers, measure_plain
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(WORKLOADS)})")
    print("record " + json.dumps(run_record(args), sort_keys=True), flush=True)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="gaitbridge-", dir=build))
    try:
        make = WORKLOADS[args.workload]
        measure = measure_layers if args.trace else measure_plain
        result = measure(lambda: make(args.seed, workdir), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"fingerprint {args.workload} seed={args.seed} sha256={result.pop('digest')}")
    for line in result.pop("notes"):
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
