"""Tests of the benchmark itself, at tiny sizes: output format, metric names
and units, the exact count identities, and the failure exit."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import run
import speed
import workloads
from griddet.config import ExperimentConfig
from griddet.grid import generate_grid

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n_train=2, n_test=2,
                               n_iter_per_stage=5)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run every workload untraced and traced, at tiny sizes, from a
    checkout-like directory. Returns {(workload, trace): (result, report,
    spans)}."""
    root = tmp_path_factory.mktemp("checkout")
    os.symlink(os.path.join(ROOT, "src"), root / "src")
    cwd = os.getcwd()
    os.chdir(root)
    out = {}
    try:
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                stdout = _capture(lambda: run.main(
                    ["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workload=tiny(name)))
                lines = stdout.strip().splitlines()
                spans = None
                if trace:
                    path = root / run.WORKDIR / "results" / \
                        f"{name}-seed3-trace1-spans.jsonl"
                    spans = [json.loads(line) for line in open(path)]
                out[name, trace] = (json.loads(lines[-1]),
                                    json.loads(lines[-2])["report"], spans)
    finally:
        os.chdir(cwd)
    return out


def _capture(fn) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert fn() == 0
    return buf.getvalue()


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(workloads.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(runs, name, trace):
    result, report, _ = runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(expected)
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    env = report["environment"]
    assert env["mode"] == ("traced" if trace else "untraced")
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == run.BLAS_THREADS
    assert report["hashes"]
    if trace:
        assert report["trace"]["untraced_jobs"] >= 1


def _children(spans, parent_id, layer):
    return [s for s in spans if s["parent"] == parent_id and s["layer"] == layer]


@pytest.mark.parametrize("name,passes", [("detect", 6), ("ablation", 10)])
def test_pool_rows_per_image_identity(runs, name, passes):
    """s_test=5 pools the test grid 5 times plus one finalize pass; the
    ablation's eval_steps 1..5 add a finalize pass after every step."""
    _, _, spans = runs[name, 1]
    cfg = ExperimentConfig()
    w, h = cfg.synth.image_size
    grid = len(generate_grid(cfg.grid_test, w, h))
    assert grid == 197
    images = [s for s in spans if s["layer"] == "detect"]
    assert images
    for image in images:
        assert sum(p["rows"] for p in _children(spans, image["id"],
                                                "features.pool")) \
            == passes * grid


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_global_features_once_per_image_and_scene(runs, name):
    _, _, spans = runs[name, 1]
    w = tiny(name)
    expected = {"detect": w.n_test, "ablation": w.n_train + 3 * w.n_test}[name]
    jobs = [s for s in spans if s["layer"] == "job"]
    assert jobs

    def under(span_id):
        for s in spans:
            if s["parent"] == span_id:
                yield s
                yield from under(s["id"])

    for job in jobs:
        below = list(under(job["id"]))
        if not any(s["layer"] == "detect" for s in below):
            continue  # an untraced job: only the root span is recorded
        globals_ = sum(1 for s in below if s["layer"] == "features.global")
        images = sum(1 for s in below if s["layer"] == "detect")
        scenes = sum(s["scenes"] for s in below
                     if s["layer"] == "model.precompute")
        assert globals_ == images + scenes == expected


def test_exits_nonzero_without_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "detect", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sampler_brackets_its_block_and_stops_its_timer():
    before = signal.getsignal(signal.SIGALRM)
    readings = []
    with speed.Sampler(interval=0.02) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            readings.append(time.perf_counter())
    samples = sampler.samples
    assert len(samples) > 3
    assert samples[0][1] <= readings[0] and readings[-1] <= samples[-1][0]
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    warp = speed.Warp(samples)
    assert [warp(t) for t in readings] == sorted(warp(t) for t in readings)


def test_warp_follows_the_yardsticks_and_skips_them():
    ref = {k: r for k, (_, r) in speed.YARDSTICKS.items()}
    samples = [(0.0, 1.0, dict(ref)),
               (10.0, 11.0, {"pooling": 2 * ref["pooling"], "sgd": ref["sgd"]})]
    warp = speed.Warp(samples)
    assert warp.seconds(0.0, 1.0) == 0.0
    # between the samples: reference over the mean of 1x and 2x reference
    assert warp.seconds(1.0, 10.0) == pytest.approx(9.0 * 2 / 3)
    assert warp.seconds(0.5, 10.5) == pytest.approx(6.0)
    # inside an SGD interval the SGD yardstick, here at reference speed
    warp = speed.Warp(samples, [(2.0, 4.0)])
    assert warp.seconds(1.0, 10.0) == pytest.approx(7.0 * 2 / 3 + 2.0)
