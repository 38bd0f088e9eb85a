"""Workloads of the griddet benchmark: set-up, one job, checks and metrics.

Every workload is closed-loop with a single client in one process: set up,
then run the workload's job again and again, each job starting when the
previous one has finished, until the measuring time is up; the set-up is
repeated during the run. Every job of a run uses the same seed, so each one
after the first is also a rerun whose artefacts and mAP must match the first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from collections import defaultdict

import numpy as np

from griddet import config as gconfig
from griddet import pipeline
from griddet.config import ExperimentConfig
from griddet.model import TrainConfig
from griddet.synth import SynthConfig

from speed import Sampler, Warp
from tracer import Recorder

S_TEST = 5
SETUP_REPEATS = 3  # set-ups in a run, all timed


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_train: int
    n_test: int
    n_iter_per_stage: int  # SGD iterations per stage of every model trained


WORKLOADS = {w.name: w for w in (
    Workload(
        "detect",
        "griddet detect at s_test=5 with a checkpoint trained in set-up: no "
        "SGD in the job, one finalize pass per image, per-box algebra, NMS "
        "and dump I/O",
        n_train=48, n_test=40, n_iter_per_stage=800),
    Workload(
        "ablation",
        "one seed of the three-method ablation at eval_steps 1..5: one "
        "precompute serves three trainings, 10 pool passes per image, "
        "15 evaluations",
        n_train=48, n_test=6, n_iter_per_stage=250),
)}

END_TO_END = (
    ("setup_s", "s"), ("job_s", "s"), ("train_scenes_per_s", "1/s"),
    ("sgd_iters_per_s", "1/s"), ("images_per_s", "1/s"),
    ("detect_image_ms_p50", "ms"), ("detect_image_ms_p75", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("features.pool.busy_s", "s"), ("features.pool.calls", "count"),
    ("features.pool.rows", "count"), ("features.pool.us_per_row", "us"),
    ("features.global.calls", "count"), ("features.global.busy_s", "s"),
    ("assign.busy_s", "s"), ("assign.tuples_fg", "count"),
    ("assign.tuples_bg", "count"),
    ("model.sgd.busy_s", "s"), ("model.forward.busy_s", "s"),
    ("model.backward.busy_s", "s"), ("model.step.busy_s", "s"),
    ("model.infer.busy_s", "s"), ("model.infer.rows", "count"),
    ("detect.self_s", "s"), ("boxes.apply_delta.calls", "count"),
    ("boxes.iou.calls", "count"), ("grid.generate_grid.calls", "count"),
    ("evaluate.busy_s", "s"), ("evaluate.dump_bytes", "bytes"),
    ("pipeline.self_s", "s"), ("synth.busy_s", "s"),
)


def experiment_config(w: Workload, seed: int) -> ExperimentConfig:
    train = TrainConfig(seed=seed, n_iter_per_stage=w.n_iter_per_stage)
    return ExperimentConfig(synth=SynthConfig(seed=seed), train=train,
                            n_train=w.n_train, n_test=w.n_test)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- set-up and jobs --------------------------------------------------------

def set_up(w: Workload, seed: int, out: str) -> dict:
    """Write the config and the dataset manifests; for detect, also train the
    checkpoint its jobs use. Returns the paths the job reads."""
    os.makedirs(out, exist_ok=True)
    paths = {"config": os.path.join(out, "config.yaml")}
    cfg = experiment_config(w, seed)
    gconfig.save_config(cfg, paths["config"])
    paths["train"], paths["test"] = pipeline.cmd_generate(
        cfg, w.n_train, w.n_test, out)
    if w.name == "detect":
        paths["checkpoint"] = os.path.join(out, "model.ckpt")
        pipeline.cmd_train(cfg, paths["train"], paths["checkpoint"])
    return paths


def run_job(w: Workload, seed: int, inputs: dict, out: str) -> dict:
    """One job of the workload. Returns its gcnn mAP at s_test=5, the
    ablation margin where there is one, and the artefacts it wrote."""
    os.makedirs(out, exist_ok=True)
    cfg = gconfig.load_config(inputs["config"])
    result = {"margin": None, "artefacts": {}}
    if w.name == "ablation":
        rows = pipeline.cmd_ablation(cfg, [seed], out, n_train=w.n_train,
                                     n_test=w.n_test)
        at5 = {r["method"]: r["map"] for r in rows if r["s_test"] == S_TEST}
        result["map"] = at5["gcnn"]
        result["margin"] = at5["gcnn"] - max(at5["1step"], at5["ifrcnn"])
        for name in ("ablation.json", "ablation_table.txt"):
            result["artefacts"][name] = os.path.join(out, name)
        return result
    det_path, traj_path = pipeline.cmd_detect(
        cfg, inputs["checkpoint"], inputs["test"], out, s_test=S_TEST)
    _, result["map"], _, _ = pipeline.cmd_eval(cfg, det_path, inputs["test"])
    result["artefacts"]["detections.jsonl"] = det_path
    result["artefacts"]["trajectories.jsonl"] = traj_path
    return result


# -- checks ------------------------------------------------------------------

def image_ok(shape, results: dict) -> bool:
    """Every detection box is finite and inside the image, every score in
    [0, 1], at every evaluated step."""
    h, w = shape
    for dets in results.values():
        for d in dets:
            b = d.final_box
            if not all(math.isfinite(v) for v in (b.cx, b.cy, b.w, b.h)):
                return False
            x1, y1, x2, y2 = b.corners()
            if b.w <= 0 or b.h <= 0 or x1 < -1e-9 or y1 < -1e-9 \
                    or x2 > w + 1e-9 or y2 > h + 1e-9:
                return False
            if not 0.0 <= d.score <= 1.0:
                return False
    return True


def global_calls_ok(totals: dict) -> bool:
    """Global features are computed exactly once per image and per scene."""
    return totals.get("probe.global_calls", 0) == \
        totals.get("probe.images", 0) + totals.get("probe.scenes", 0)


def is_count(key: str) -> bool:
    return not key.endswith("_s")


# -- the run -----------------------------------------------------------------

def run(w: Workload, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    """Set up, run jobs for ``seconds``, check them and compute the metrics."""
    rec = Recorder()
    with Sampler() as sampler:
        out = _run(w, seed, seconds, trace, workdir, rec)
    out["clock"] = sampler.report()
    if out.pop("completed"):
        warp = Warp(sampler.samples,
                    [(t0, t1) for _, t0, t1, _ in rec.stages["model.sgd"]])
        if trace:
            out["metrics"], out["trace"] = layer_metrics(rec, warp)
        else:
            out["metrics"] = end_to_end_metrics(rec, warp)
    return out


def _run(w: Workload, seed: int, seconds: float, trace: bool, workdir: str,
         rec: Recorder) -> dict:
    failures: list[str] = []
    bad_roots: set[tuple[str, int]] = set()

    def fail(kind, index, message):
        bad_roots.add((kind, index))
        failures.append(f"{kind} {index}: {message}")

    setup_hashes = []

    def setup(i):
        out = os.path.join(workdir, f"setup{i}")
        with rec.root("setup", i, traced=trace):
            paths = set_up(w, seed, out)
        setup_hashes.append({"setup/" + os.path.basename(p): sha256(p)
                             for p in paths.values()})
        if setup_hashes[i] != setup_hashes[0]:
            fail("setup", i, "artefacts differ from set-up 0")
        return paths

    # Set-up 0 writes the inputs every job reads.
    t_start = time.perf_counter()
    inputs = setup(0)
    n_setups = 1
    jobs = []
    completed = False
    while not completed:
        traced = trace and len(jobs) % 2 == 0
        job_dir = os.path.join(workdir, f"job{len(jobs)}")
        try:
            with rec.root("job", len(jobs), traced=traced) as root:
                result = run_job(w, seed, inputs, job_dir)
        except Exception:
            traceback.print_exc()
            fail("job", len(jobs), "raised")
            break
        result["root"] = root
        result["hashes"] = {"job/" + k: sha256(p)
                            for k, p in sorted(result["artefacts"].items())}
        shutil.rmtree(job_dir)
        jobs.append(result)
        # The set-up repeats are spread over the first half of the run, so
        # that they sample the machine at different times, as the jobs do, and
        # the last one ends well before the measuring time.
        elapsed = time.perf_counter() - t_start
        if n_setups < SETUP_REPEATS \
                and elapsed >= n_setups * seconds / (SETUP_REPEATS + 1):
            setup(n_setups)
            shutil.rmtree(os.path.join(workdir, f"setup{n_setups}"))
            n_setups += 1
        n_traced = sum(1 for j in jobs if j["root"]["traced"])
        enough = (n_traced >= 2 and len(jobs) > n_traced) if trace \
            else len(jobs) >= 2
        # Stop when one more job, at the slowest wall time seen, would end
        # past the measuring time, so that a slow machine does not lengthen
        # the run.
        slowest = max(j["root"]["seconds"] for j in jobs)
        completed = enough and n_setups == SETUP_REPEATS \
            and time.perf_counter() - t_start + slowest > seconds

    failed_images = sum(1 for _, _, _, shape, res in rec.images
                        if not image_ok(shape, res))
    if failed_images:
        failures.append(f"{failed_images} images with a non-finite or "
                        "out-of-image box or a score outside [0, 1]")
    for r in rec.roots:
        if not global_calls_ok(r["totals"]):
            fail(r["kind"], r["index"], "global features not computed "
                 "exactly once per image and scene")
    for j in jobs:
        index = j["root"]["index"]
        if not (math.isfinite(j["map"]) and 0.0 <= j["map"] <= 1.0):
            fail("job", index, f"mAP {j['map']!r} outside [0, 1]")
        elif (j["map"], j["hashes"]) != (jobs[0]["map"], jobs[0]["hashes"]):
            fail("job", index, f"rerun at seed {seed} did not reproduce the "
                 "mAP and artefacts of job 0")
    if trace:
        for kind, index, keys in count_repeat_failures(rec.roots):
            fail(kind, index, "counts differ from the first traced one "
                 f"of its kind: {', '.join(keys)}")

    counts = {
        "setups": len(setup_hashes),
        "jobs": len(jobs) + (1 if ("job", len(jobs)) in bad_roots else 0),
        "images": len(rec.images),
        "scenes": len(rec.stages["model.precompute.scene"]),
        "sgd_iterations": sum(n for *_, n in rec.stages["model.sgd"]),
    }
    first = jobs[0] if jobs else {"map": None, "margin": None, "hashes": {}}
    out = {
        "correct": not failures,
        "attempted": sum(counts[k] for k in ("setups", "jobs", "images", "scenes")),
        "failed": len(bad_roots) + failed_images,
        "failures": failures,
        "counts": counts,
        "map_s5": first["map"],
        "map_s5_margin": first["margin"],
        "hashes": dict(setup_hashes[0], **first["hashes"]),
        "recorder": rec,
        "completed": completed,
    }
    return out


def count_repeat_failures(roots) -> list[tuple[str, int, list[str]]]:
    """Exact counts must repeat between traced roots of one kind: returns
    (kind, index, differing keys) for each root where they do not."""
    out = []
    for kind in ("setup", "job"):
        traced = [r for r in roots if r["kind"] == kind and r["traced"]]
        for r in traced[1:]:
            a, b = r["totals"], traced[0]["totals"]
            diff = sorted(k for k in set(a) | set(b)
                          if is_count(k) and a.get(k) != b.get(k))
            if diff:
                out.append((kind, r["index"], diff))
    return out


def median_of_repeats(records) -> list[tuple[float, int]]:
    """The median repeat of each operation, as (seconds, units).

    ``records`` are (root, seconds, units) in call order. The n-th call inside
    every root of one kind is the same operation on the same inputs (every
    job reruns the same seed), so its repeats are compared with each other.
    """
    position: dict = defaultdict(int)
    repeats: dict = defaultdict(list)
    for root, dt, units in records:
        repeats[root[0], position[root]].append((dt, units))
        position[root] += 1
    return [(statistics.median(dt for dt, _ in v), v[0][1])
            for v in repeats.values()]


def end_to_end_metrics(rec: Recorder, warp: Warp) -> dict:
    """Times are normalised by ``warp`` (speed.py) and are the median of
    the run's repeats of each operation: the job, each precompute scene, each
    SGD call and each image. Set-up time is the median of its repeats."""
    def roots(kind):
        return [warp.seconds(r["start"], r["end"]) for r in rec.roots
                if r["kind"] == kind]

    def normalised(records):
        return [(root, warp.seconds(t0, t1), n) for root, t0, t1, n in records]

    pre = median_of_repeats(normalised(rec.stages["model.precompute.scene"]))
    sgd = median_of_repeats(normalised(rec.stages["model.sgd"]))
    images = median_of_repeats(normalised(
        (root, t0, t1, 1) for root, t0, t1, _, _ in rec.images))
    image_ms = [1000.0 * dt for dt, _ in images]
    values = {
        "setup_s": statistics.median(roots("setup")),
        "job_s": statistics.median(roots("job")),
        "train_scenes_per_s": sum(n for _, n in pre) / sum(dt for dt, _ in pre),
        "sgd_iters_per_s": sum(n for _, n in sgd) / sum(dt for dt, _ in sgd),
        "images_per_s": len(image_ms) / (sum(image_ms) / 1000.0),
        "detect_image_ms_p50": float(np.percentile(image_ms, 50)),
        "detect_image_ms_p75": float(np.percentile(image_ms, 75)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}


def layer_metrics(rec: Recorder, warp: Warp) -> tuple[dict, dict]:
    """Per-layer cost of one set-up plus one job: the median over traced
    set-ups plus the median over traced jobs. A root's layer times are its
    raw ones scaled by its normalised over its raw duration. Also, for the
    report, the tracing overhead from the jobs run alternately with and
    without tracing, and the share of detect_multi time spent in its pooling
    calls."""
    roots = rec.roots

    def normalised(r):
        return warp.seconds(r["start"], r["end"])

    def median_of(kind, key):
        vals = []
        for r in roots:
            if r["kind"] == kind and r["traced"]:
                v = r["totals"].get(key, 0.0)
                vals.append(v if is_count(key)
                            else v * normalised(r) / r["seconds"])
        return statistics.median(vals) if vals else 0.0

    def per_unit(key):
        return median_of("setup", key) + median_of("job", key)

    values = {}
    for key, _ in PER_LAYER:
        if key == "features.pool.us_per_row":
            rows = per_unit("features.pool.rows")
            values[key] = 1e6 * per_unit("features.pool.busy_s") / rows
        else:
            values[key] = per_unit(key)
    jobs = [r for r in roots if r["kind"] == "job"]
    traced = statistics.median(normalised(r) for r in jobs if r["traced"])
    plain = statistics.median(normalised(r) for r in jobs if not r["traced"])
    images = {s["id"]: s for s in rec.spans if s["layer"] == "detect"}
    pool = sum(s["end"] - s["start"] for s in rec.spans
               if s["layer"] == "features.pool" and s["parent"] in images)
    detect = sum(s["end"] - s["start"] for s in images.values())
    report = {"traced_job_s": traced, "untraced_job_s": plain,
              "overhead_frac": traced / plain - 1.0,
              "traced_jobs": sum(1 for r in jobs if r["traced"]),
              "untraced_jobs": sum(1 for r in jobs if not r["traced"]),
              "pool_share_of_detect": pool / detect if detect else None}
    metrics = {k: {"value": round(values[k]) if unit in ("count", "bytes")
                   else values[k], "unit": unit} for k, unit in PER_LAYER}
    return metrics, report
