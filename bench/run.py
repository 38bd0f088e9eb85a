"""Run one workload of the griddet benchmark and print its metrics.

Run from the root of a griddet checkout:

    python3 bench/run.py --workload detect --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is the run's report: environment, sample counts, mAP, artefact hashes, the
checks that failed and, when traced, the tracing overhead. Both are also
written under ``.bench_work/results/``, with the spans of a traced run.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

# Fixed before numpy is first imported; OpenBLAS reads them when it loads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

WORKDIR = ".bench_work"
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "untraced",
    }


def golden_status(workload: str, seed: int, hashes: dict) -> dict | None:
    """Compare artefact hashes with the golden ones recorded for this
    workload and seed, if any."""
    try:
        with open(GOLDEN) as f:
            golden = json.load(f)
    except FileNotFoundError:
        return None
    ref = golden.get(workload, {}).get(str(seed))
    if ref is None:
        return None
    return {"match": ref == hashes,
            "differs": sorted(k for k in set(ref) | set(hashes)
                              if ref.get(k) != hashes.get(k))}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("detect", "ablation"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workload=None) -> int:
    """Run the benchmark; ``workload`` replaces the named workload's sizes
    (the tests run tiny ones)."""
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "griddet", "__init__.py")):
        print("error: src/griddet not found; run from the root of a griddet "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    w = workload or workloads.WORKLOADS[args.workload]
    results_dir = os.path.join(root, WORKDIR, "results")
    scratch = os.path.join(root, WORKDIR,
                           f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    try:
        out = workloads.run(w, args.seed, args.seconds, bool(args.trace),
                            scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "environment": environment(root, args),
        "workload": {"name": w.name, "why": w.why, "n_train": w.n_train,
                     "n_test": w.n_test, "n_iter_per_stage": w.n_iter_per_stage},
        "counts": out["counts"],
        "ops_failed_frac": out["failed"] / out["attempted"],
        "failures": out["failures"],
        "map_s5": out["map_s5"],
        "map_s5_margin": out["map_s5_margin"],
        "hashes": out["hashes"],
        "golden": golden_status(args.workload, args.seed, out["hashes"]),
        "clock": out["clock"],
    }
    if args.trace:
        report["trace"] = out.get("trace")
        out["recorder"].write_spans(os.path.join(results_dir, tag + "-spans.jsonl"))
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": out.get("metrics", {})}
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
