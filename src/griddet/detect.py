"""Iterative detection loop with classifier gating, plus NMS.

Per image, global features are computed once; every loop iteration pools the
current boxes from them, classifies, and moves each box by the delta of its
currently most probable class. Background-classified boxes stay put for that
iteration (they can still be reclassified and moved later).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boxes import (Box, DeltaParams, apply_delta, boxes_to_array,
                    clip_to_image, delta, iou)
from .features import ExtractorConfig, FeatureExtractor, build_roi_features
from .grid import GridSpec, generate_grid
from .model import MLP, softmax_probs


# Largest log-scale change of a side in one step, as Fast/Faster R-CNN's
# bbox_xform_clip: a side grows at most 1000/16 times per step.
MAX_LOG_SCALE = math.log(1000.0 / 16.0)


class ModelMismatchError(ValueError):
    pass


@dataclass(slots=True)
class DetectionResult:
    final_box: Box
    class_label: int
    score: float
    # (s_test + 1, 4) float64 rows of (cx, cy, w, h), initial grid box first
    trajectory: np.ndarray
    grid_index: int


@dataclass
class DetectStats:
    feature_calls: int = 0
    iteration_seconds: list = field(default_factory=list)


def _nms_keep(boxes: list[Box], scores: list[float],
              iou_threshold: float) -> list[int]:
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def nms(detections: list[tuple[Box, float]],
        iou_threshold: float) -> list[tuple[Box, float]]:
    """Greedy suppression: keep a box iff its IoU with every already-kept box
    is <= iou_threshold. Ties in score break toward the earlier index."""
    boxes = [b for b, _ in detections]
    scores = [s for _, s in detections]
    return [detections[i] for i in _nms_keep(boxes, scores, iou_threshold)]


def model_fns(regressor: MLP, classifier: MLP):
    """Adapt trained models to the (feats, boxes, grid_indices) interface."""
    k = regressor.output_dim // 4

    def regress(feats, boxes, grid_indices):
        out, _ = regressor.forward(feats)
        return out.reshape(len(boxes), k, 4)

    def classify(feats, boxes, grid_indices):
        return softmax_probs(classifier, feats)

    return regress, classify


def oracle_fns(assignments, num_classes: int):
    """Ground-truth-driven regressor/classifier for end-to-end checks.

    The regressor emits the exact delta from the current box to the assigned
    ground truth on every class head; the classifier returns probability one
    for the assigned class (background for unassigned boxes).
    """
    by_index = {a.grid_index: a for a in assignments}

    def regress(feats, boxes, grid_indices):
        out = np.zeros((len(boxes), num_classes, 4))
        for row, (b, gi) in enumerate(zip(boxes, grid_indices)):
            a = by_index[gi]
            if a.target_gt is not None:
                out[row, :, :] = delta(b, a.target_gt.box).as_array()
        return out

    def classify(feats, boxes, grid_indices):
        probs = np.zeros((len(boxes), num_classes + 1))
        for row, gi in enumerate(grid_indices):
            a = by_index[gi]
            label = 0 if a.target_gt is None else a.target_gt.class_label
            probs[row, label] = 1.0
        return probs

    return regress, classify


def detect(scene_image: np.ndarray, grid_spec: GridSpec, regressor_fn,
           classifier_fn, *, s_test: int = 5, score_threshold: float = 0.05,
           nms_iou: float = 0.3, extractor: FeatureExtractor | None = None,
           clip: bool = True, stats: DetectStats | None = None,
           ) -> list[DetectionResult]:
    """Run the iterative detection loop on one image."""
    results = detect_multi(scene_image, grid_spec, regressor_fn, classifier_fn,
                           eval_steps=[s_test], score_threshold=score_threshold,
                           nms_iou=nms_iou, extractor=extractor, clip=clip,
                           stats=stats)
    return results[s_test]


def detect_multi(scene_image: np.ndarray, grid_spec: GridSpec, regressor_fn,
                 classifier_fn, *, eval_steps: list[int],
                 score_threshold: float = 0.05, nms_iou: float = 0.3,
                 extractor: FeatureExtractor | None = None, clip: bool = True,
                 stats: DetectStats | None = None,
                 ) -> dict[int, list[DetectionResult]]:
    """Single pass producing results for several iteration counts.

    The box states after k iterations are identical to a run with
    s_test = k, so one pass to max(eval_steps) yields every prefix.

    A box moves by the delta of its most probable class, with tw and th
    clamped at MAX_LOG_SCALE; a delta that is not finite, or that would give
    a box that is not finite or has an empty side, leaves the box where it is.
    """
    if any(s < 0 for s in eval_steps):
        raise ValueError("eval_steps must be >= 0")
    extractor = extractor or FeatureExtractor()
    cfg = extractor.config
    image = np.asarray(scene_image, dtype=np.float64)
    h, w = image.shape
    fm = extractor.compute_global_features(image)
    if stats is not None:
        stats.feature_calls += 1

    boxes = generate_grid(grid_spec, w, h)
    grid_indices = list(range(len(boxes)))
    history = [boxes]  # the boxes after each step, the grid first
    want = set(eval_steps)
    out: dict[int, list[DetectionResult]] = {}
    max_step = max(eval_steps)

    if 0 in want:
        out[0] = _finalize(fm, history, grid_indices, classifier_fn, cfg,
                           score_threshold, nms_iou)

    for s in range(1, max_step + 1):
        t0 = time.perf_counter()
        feats = build_roi_features(fm, boxes, cfg)
        probs = classifier_fn(feats, boxes, grid_indices)
        _check_dims(probs, boxes)
        labels = np.argmax(probs, axis=1)
        deltas = regressor_fn(feats, boxes, grid_indices)
        # Background boxes stay put; the rest move by their class's delta.
        moving = np.flatnonzero(labels)
        rows = np.asarray(deltas, dtype=np.float64)[moving, labels[moving] - 1]
        np.minimum(rows[:, 2:], MAX_LOG_SCALE, out=rows[:, 2:])
        boxes = list(boxes)
        for i, row in zip(moving.tolist(), rows.tolist()):
            try:
                nb = apply_delta(boxes[i], DeltaParams(*row))
                boxes[i] = clip_to_image(nb, w, h) if clip else nb
            except ValueError:  # a non-finite delta, or an empty or non-finite box
                pass
        history.append(boxes)
        if stats is not None:
            stats.iteration_seconds.append(time.perf_counter() - t0)
        if s in want:
            out[s] = _finalize(fm, history, grid_indices, classifier_fn, cfg,
                               score_threshold, nms_iou)
    return out


def _check_dims(probs, boxes):
    if probs.shape[0] != len(boxes):
        raise ModelMismatchError("classifier output rows != number of boxes")


def _finalize(fm, history, grid_indices, classifier_fn, cfg: ExtractorConfig,
              score_threshold: float, nms_iou: float,
              ) -> list[DetectionResult]:
    """Score the last boxes of history, drop background/low scores, and apply
    per-class NMS. Only survivors get their trajectory array."""
    boxes = history[-1]
    feats = build_roi_features(fm, boxes, cfg)
    probs = classifier_fn(feats, boxes, grid_indices)
    labels = np.argmax(probs, axis=1)
    candidates = []  # (box index, label, score)
    for i in range(len(boxes)):
        label = int(labels[i])
        score = float(probs[i, label])
        if label == 0 or score < score_threshold:
            continue
        candidates.append((i, label, score))
    survivors = []
    for label in sorted({c[1] for c in candidates}):
        group = [c for c in candidates if c[1] == label]
        kept = _nms_keep([boxes[c[0]] for c in group],
                         [c[2] for c in group], nms_iou)
        survivors.extend(group[j] for j in sorted(kept))
    survivors.sort(key=lambda c: (-c[2], grid_indices[c[0]]))
    return [DetectionResult(boxes[i], label, score,
                            boxes_to_array([step[i] for step in history]),
                            grid_indices[i])
            for i, label, score in survivors]
