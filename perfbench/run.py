#!/usr/bin/env python3
"""The mecpe benchmark: one workload per run, measured in-process.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``).  The line before it
records the machine, the samples behind each median, the pair F1, the
predictions digest and, when traced, the tracing overhead and every span.
``--smoke`` runs a seconds-long version of the workload.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

# BLAS threads are pinned here, before numpy loads, and never in the package:
# on a 2-core machine, 1 vs 2 OpenBLAS threads moved paper-shape predict by
# ~30%, and a second thread competes with whatever else the machine runs.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_facts() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mecpe benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a seconds-long version of the workload")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mecpe", "__init__.py")):
        print(f"no mecpe package under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import json
    import shutil
    import tempfile

    import mecpe
    import workloads

    if not os.path.abspath(mecpe.__file__).startswith(SRC + os.sep):
        print(f"mecpe imported from {mecpe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        result, info = workloads.run_workload(
            workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": workload.name, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "machine": machine_facts(), **info}
    print(json.dumps({"info": info}, sort_keys=True))
    expected = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    missing = sorted(set(expected) - set(result["metrics"]))
    if missing:
        print(f"no measurement for {missing}: {info['errors']}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
