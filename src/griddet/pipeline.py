"""Experiment harness behind the CLI: generation, training, detection,
evaluation, and the stepwise-vs-single-step ablation."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .config import ExperimentConfig
from .detect import DetectionResult, detect_multi, model_fns
# fp_breakdown stays importable here for the benchmark's tracer.
from .evaluate import (DetRecord, evaluate_detections, format_report,
                       fp_breakdown, read_detection_dump, score_detections,
                       write_detection_dump)
from .model import (MODES, BatchSampler, load_checkpoint,
                    precompute_scene_tensors, save_checkpoint, train_models)
from .records import ConfigValueError
from .synth import (generate_dataset, load_ground_truth, load_manifest,
                    save_manifest)

TRAIN_MANIFEST = "train_manifest.json"
TEST_MANIFEST = "test_manifest.json"


def cmd_generate(config: ExperimentConfig, n_train: int, n_test: int,
                 out_dir: str) -> tuple[str, str]:
    """Write train/test dataset manifests. Idempotent for a fixed seed."""
    _check_scene_counts(n_train=n_train, n_test=n_test)
    train_scenes = generate_dataset(config.synth, n_train, start_id=0)
    test_scenes = generate_dataset(config.synth, n_test, start_id=n_train)
    os.makedirs(out_dir, exist_ok=True)
    train_path = os.path.join(out_dir, TRAIN_MANIFEST)
    test_path = os.path.join(out_dir, TEST_MANIFEST)
    save_manifest(train_path, config.synth, train_scenes)
    save_manifest(test_path, config.synth, test_scenes)
    return train_path, test_path


def _check_scene_counts(**counts):
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")


def _check_classes(source: str, labels, num_classes: int):
    """Raise, naming source and the item, if any (item, class) pair of
    labels has a class outside 1..num_classes."""
    for item, label in labels:
        if not 1 <= label <= num_classes:
            raise ValueError(f"{source}: {item} has class {label}, outside "
                             f"1..num_classes {num_classes}")


def train(config: ExperimentConfig, scenes, modes=None):
    """Pool the training set of `scenes` once, then train each strategy of
    `modes` (default: config.mode) on it with equal compute, all from one
    model.BatchSampler told the modes in order. Returns one (regressor,
    classifier, log) per mode, in order. A later mode whose classifier
    batches all equal the first mode's copies the first mode's classifier,
    and on two CPUs a later mode trains beside the next pending one (see
    train_models); every mode gets the bits of training alone."""
    modes = [config.mode] if modes is None else modes
    sampler = BatchSampler(precompute_scene_tensors(
        scenes, config.grid_train, config.train), config.train,
        config.synth.num_classes, modes)
    return [train_models(sampler, mode) for mode in modes]


def divergence_warning(who: str, log) -> str | None:
    """One warning line naming who and the stage and iteration at which
    training diverged, or None if every loss of the log is finite."""
    if log.diverged_at is None:
        return None
    stage, iteration = log.diverged_at
    return (f"warning: {who}: training diverged at stage {stage}, iteration "
            f"{iteration}: a loss is not finite")


def cmd_train(config: ExperimentConfig, manifest_path: str,
              checkpoint_path: str, log_path: str | None = None):
    """Train config.mode on a dataset manifest; write a checkpoint and a
    per-iteration loss log, strict JSON: a loss that is not finite is null,
    and diverged_at names the first such entry's stage and iteration."""
    _, scenes = load_manifest(manifest_path)
    num_classes = config.synth.num_classes
    if not scenes:
        raise ValueError(f"manifest {manifest_path}: no scenes to train on")
    _check_classes(f"manifest {manifest_path}",
                   ((f"scene_id {s.scene_id}", gt.class_label)
                    for s in scenes for gt in s.gts), num_classes)
    [(regressor, classifier, log)] = train(config, scenes)
    save_checkpoint(checkpoint_path, regressor, classifier,
                    config=config.train, mode=config.mode,
                    num_classes=num_classes, stage=config.train.s_train)
    if log_path:
        at = log.diverged_at
        with open(log_path, "w") as f:
            json.dump({
                "stage_boundaries": log.stage_boundaries,
                "entries": [{k: None if isinstance(v, float)
                             and not math.isfinite(v) else v
                             for k, v in e.items()} for e in log.entries],
                "diverged_at": at and {"stage": at[0], "iteration": at[1]},
            }, f, sort_keys=True, allow_nan=False)
            f.write("\n")
    return regressor, classifier, log


def detect_scenes(config: ExperimentConfig, scenes, regressor, classifier,
                  eval_steps: list[int],
                  ) -> dict[int, list[tuple[int, DetectionResult]]]:
    """Run detect_multi on every scene. Per eval step, returns the
    (scene_id, result) pairs of all scenes in scene order."""
    reg_fn, cls_fn = model_fns(regressor, classifier)
    per_step: dict[int, list] = {k: [] for k in eval_steps}
    for scene in scenes:
        results = detect_multi(
            scene.image, config.grid_test, reg_fn, cls_fn,
            eval_steps=eval_steps, score_threshold=config.score_threshold,
            nms_iou=config.nms_iou)
        for k in eval_steps:
            per_step[k].extend((scene.scene_id, r) for r in results[k])
    return per_step


def _record(image_id: int, r: DetectionResult) -> DetRecord:
    return DetRecord(image_id, r.class_label, r.score, r.final_box)


def cmd_detect(config: ExperimentConfig, checkpoint_path: str,
               manifest_path: str, out_dir: str,
               s_test: int | None = None) -> tuple[str, str]:
    """Run detection over every scene of a manifest; write the detection dump
    and the per-step trajectory export for surviving detections."""
    s_test = config.s_test if s_test is None else s_test
    regressor, classifier, meta = load_checkpoint(checkpoint_path)
    if meta["num_classes"] != config.synth.num_classes:
        raise ValueError(f"checkpoint {checkpoint_path}: trained for "
                         f"num_classes {meta['num_classes']}, but the config "
                         f"has num_classes {config.synth.num_classes}")
    _, scenes = load_manifest(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    det_path = os.path.join(out_dir, "detections.jsonl")
    traj_path = os.path.join(out_dir, "trajectories.jsonl")
    detections = detect_scenes(config, scenes, regressor, classifier,
                               [s_test])[s_test]
    write_detection_dump(det_path, [_record(i, r) for i, r in detections])
    with open(traj_path, "w") as f:
        for image_id, r in detections:
            for step, box in enumerate(r.trajectory.tolist()):
                f.write(json.dumps({
                    "image_id": image_id,
                    "grid_index": r.grid_index,
                    "step": step,
                    "box": box,
                    "class": r.class_label,
                    "score": r.score,
                }) + "\n")
    return det_path, traj_path


def cmd_eval(config: ExperimentConfig, detections_path: str,
             manifest_path: str, report_path: str | None = None):
    """Score a detection dump against a dataset manifest."""
    detections = read_detection_dump(detections_path)
    gts = load_ground_truth(manifest_path)
    _check_classes(f"manifest {manifest_path}",
                   ((f"scene_id {i}", gt.class_label)
                    for i, scene_gts in gts.items() for gt in scene_gts),
                   config.synth.num_classes)
    _check_classes(f"detection dump {detections_path}",
                   ((f"image_id {d.image_id}", d.class_label)
                    for d in detections), config.synth.num_classes)
    per_class_ap, map_value, breakdown = score_detections(
        detections, gts, config.synth.class_similarity_groups,
        config.iou_match)
    report = format_report(per_class_ap, map_value, breakdown)
    if report_path:
        with open(report_path, "w") as f:
            f.write(report)
    return per_class_ap, map_value, breakdown, report


def run_ablation(config: ExperimentConfig, seeds: list[int],
                 n_train: int | None = None, n_test: int | None = None,
                 progress=None) -> list[dict]:
    """Train every method on identical data with equal compute; evaluate each
    at s_test = 1..config.s_test. Returns one row per (method, s_test, seed).
    """
    if config.s_test < 1:
        raise ConfigValueError(f"ablation needs s_test >= 1, got "
                               f"{config.s_test}")
    if not seeds:
        raise ValueError("seeds must list at least one seed, got none")
    eval_steps = list(range(1, config.s_test + 1))
    n_train = config.n_train if n_train is None else n_train
    n_test = config.n_test if n_test is None else n_test
    _check_scene_counts(n_train=n_train, n_test=n_test)
    num_classes = config.synth.num_classes
    seed_cfgs = [config.with_seed(s) for s in seeds]  # checks every seed
    rows = []
    for seed, seed_cfg in zip(seeds, seed_cfgs):
        train_scenes = generate_dataset(seed_cfg.synth, n_train, start_id=0)
        test_scenes = generate_dataset(seed_cfg.synth, n_test,
                                       start_id=n_train)
        gts = {s.scene_id: s.gts for s in test_scenes}
        models = train(seed_cfg, train_scenes, MODES)
        for method, (regressor, classifier, log) in zip(MODES, models):
            warning = divergence_warning(f"seed {seed} method {method}", log)
            if progress and warning:
                progress(warning)
            per_step = detect_scenes(config, test_scenes, regressor,
                                     classifier, eval_steps)
            for k in eval_steps:
                _, map_value = evaluate_detections(
                    [_record(i, r) for i, r in per_step[k]], gts,
                    num_classes, config.iou_match)
                rows.append({
                    "method": method,
                    "s_test": k,
                    "seed": seed,
                    "map": map_value,
                    "total_iterations": log.total_iterations,
                })
            if progress:
                progress(f"seed {seed} method {method}: "
                         f"mAP@{config.s_test} = {rows[-1]['map']:.4f}")
    return rows


def ablation_means(rows: list[dict]) -> dict[tuple[str, int], float]:
    acc: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        acc.setdefault((r["method"], r["s_test"]), []).append(r["map"])
    return {k: float(np.mean(v)) for k, v in acc.items()}


def format_ablation_table(rows: list[dict]) -> str:
    means = ablation_means(rows)
    steps = sorted({r["s_test"] for r in rows})
    methods = sorted({r["method"] for r in rows})
    lines = ["mean mAP by method and iteration count", ""]
    header = "method   " + "".join(f"  s={k:<6}" for k in steps)
    lines.append(header)
    for m in methods:
        cells = "".join(f"  {means[(m, k)]:.4f}  " for k in steps)
        lines.append(f"{m:<9}{cells}")
    return "\n".join(lines) + "\n"


def cmd_ablation(config: ExperimentConfig, seeds: list[int], out_dir: str,
                 n_train: int | None = None, n_test: int | None = None,
                 progress=None) -> list[dict]:
    rows = run_ablation(config, seeds, n_train=n_train, n_test=n_test,
                        progress=progress)
    means = ablation_means(rows)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "ablation.json"), "w") as f:
        json.dump({
            "rows": rows,
            "means": [{"method": m, "s_test": k, "mean_map": v}
                      for (m, k), v in sorted(means.items())],
        }, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(out_dir, "ablation_table.txt"), "w") as f:
        f.write(format_ablation_table(rows))
    return rows
