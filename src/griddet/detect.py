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

# apply_delta, iou and generate_grid stay importable here for the benchmark's
# call counters.
from .boxes import (Box, apply_delta, apply_deltas, box_deltas, boxes_to_array,
                    clip_boxes, iou, iou_matrix)
from .features import FeatureExtractor, build_roi_features
from .grid import GridSpec, generate_grid, grid_array
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


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_threshold: float) -> np.ndarray:
    """Greedy suppression over the rows of boxes: visiting rows by descending
    score, ties toward the earlier row, keep a row iff its IoU with every
    already-kept row is <= iou_threshold. Returns the kept row indices in
    visiting order."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    ordered = np.asarray(boxes, dtype=np.float64)[order]
    overlaps = iou_matrix(ordered, ordered) > iou_threshold
    kept = np.ones(len(order), dtype=bool)
    for i in range(len(order)):
        if kept[i]:
            kept[i + 1:] &= ~overlaps[i, i + 1:]
    return order[kept]


def model_fns(regressor: MLP, classifier: MLP):
    """Adapt trained models to the (feats, boxes, grid_indices) interface.

    The regressor gives each row the same bits in a batch of any size, so
    regressing the gated rows equals regressing every box and keeping those
    rows. numpy sends a one-row product to BLAS's matrix-vector kernel,
    whose sums can differ from the matrix-matrix kernel's in the last bit,
    so a one-row batch is padded to two rows."""
    k = regressor.output_dim // 4

    def regress(feats, boxes, grid_indices):
        n = len(boxes)
        out, _ = regressor.forward(np.repeat(feats, 2, axis=0) if n == 1
                                   else feats)
        return out[:n].reshape(n, k, 4)

    def classify(feats, boxes, grid_indices):
        return softmax_probs(classifier, feats)

    return regress, classify


def oracle_fns(assignments, num_classes: int):
    """Ground-truth-driven regressor/classifier for end-to-end checks.

    The regressor emits the exact delta from the current box to the assigned
    ground truth on every class head; the classifier returns probability one
    for the assigned class (background for unassigned boxes).
    """
    target = {a.grid_index: a.target_gt for a in assignments}

    def regress(feats, boxes, grid_indices):
        out = np.zeros((len(boxes), num_classes, 4))
        rows = [row for row, gi in enumerate(grid_indices)
                if target[gi] is not None]
        gt_boxes = boxes_to_array([target[grid_indices[row]].box
                                   for row in rows])
        out[rows] = box_deltas(boxes[rows], gt_boxes)[:, None, :]
        return out

    def classify(feats, boxes, grid_indices):
        probs = np.zeros((len(boxes), num_classes + 1))
        for row, gi in enumerate(grid_indices):
            probs[row, 0 if target[gi] is None else target[gi].class_label] = 1
        return probs

    return regress, classify


def detect(scene_image: np.ndarray, grid_spec: GridSpec, regressor_fn,
           classifier_fn, *, s_test: int = 5, score_threshold: float = 0.05,
           nms_iou: float = 0.3, extractor: FeatureExtractor | None = None,
           stats: DetectStats | None = None) -> list[DetectionResult]:
    """Run the iterative detection loop on one image."""
    return detect_multi(scene_image, grid_spec, regressor_fn, classifier_fn,
                        eval_steps=[s_test], score_threshold=score_threshold,
                        nms_iou=nms_iou, extractor=extractor, stats=stats)[s_test]


def move_boxes(boxes: np.ndarray, deltas: np.ndarray, width: float,
               height: float) -> np.ndarray:
    """One step for rows of boxes: move each by its row of deltas, with tw
    and th clamped at MAX_LOG_SCALE, and clip it to the image. A row whose
    delta is not finite, or whose moved or clipped box is not finite or has
    an empty side, keeps its position."""
    deltas = np.array(deltas, dtype=np.float64).reshape(-1, 4)
    np.minimum(deltas[:, 2:], MAX_LOG_SCALE, out=deltas[:, 2:])
    # A non-finite delta moves a box to a non-finite or (exp(-inf)) empty one.
    with np.errstate(over="ignore", invalid="ignore"):
        moved = apply_deltas(boxes, deltas)
        clipped = clip_boxes(moved, width, height)
    ok = _valid(moved) & _valid(clipped)
    if ok.all():
        return clipped
    return np.where(ok[:, None], clipped, boxes)


def _valid(boxes: np.ndarray) -> np.ndarray:
    return np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > 0).all(axis=1)


def detect_multi(scene_image: np.ndarray, grid_spec: GridSpec, regressor_fn,
                 classifier_fn, *, eval_steps: list[int],
                 score_threshold: float = 0.05, nms_iou: float = 0.3,
                 extractor: FeatureExtractor | None = None,
                 stats: DetectStats | None = None,
                 ) -> dict[int, list[DetectionResult]]:
    """Single pass producing results for several iteration counts.

    The box states after k iterations are identical to a run with
    s_test = k, so one pass to max(eval_steps) yields every prefix.

    The boxes are one (N, 4) array of (cx, cy, w, h) rows. Each step pools
    and classifies every box, then calls the regressor with only the gated
    rows, those whose most probable class is not background (their features,
    boxes and grid indices, in grid order), and not at all when none is
    gated. It moves each gated box by its class's delta (see move_boxes);
    background boxes stay put."""
    if any(s < 0 for s in eval_steps):
        raise ValueError("eval_steps must be >= 0")
    extractor = extractor or FeatureExtractor()
    image = np.asarray(scene_image, dtype=np.float64)
    h, w = image.shape
    fm = extractor.compute_global_features(image)
    if stats is not None:
        stats.feature_calls += 1

    grid = grid_array(grid_spec, w, h)
    grid_indices = list(range(len(grid)))
    # The boxes after each step, the grid first.
    history = np.empty((max(eval_steps) + 1, len(grid), 4))
    history[0] = grid
    out: dict[int, list[DetectionResult]] = {}
    for s in range(len(history)):
        if s:
            t0 = time.perf_counter()
            boxes = history[s - 1]
            feats, probs = _pool_and_classify(fm, boxes, grid_indices,
                                              classifier_fn)
            labels = np.argmax(probs, axis=1)
            moving = np.flatnonzero(labels)
            history[s] = boxes
            if len(moving):
                gated = boxes[moving]
                # grid_indices[i] is i.
                deltas = _regress(regressor_fn, feats[moving], gated,
                                  moving.tolist(), probs.shape[1] - 1)
                history[s, moving] = move_boxes(
                    gated, deltas[np.arange(len(moving)), labels[moving] - 1],
                    w, h)
            if stats is not None:
                stats.iteration_seconds.append(time.perf_counter() - t0)
        if s in eval_steps:
            out[s] = _finalize(fm, history[:s + 1], grid_indices,
                               classifier_fn, score_threshold, nms_iou)
    return out


def _pool_and_classify(fm, boxes, grid_indices, classifier_fn):
    """Pool the boxes from fm and classify them: (feats, probs), probs
    checked to be (N, C) for N boxes."""
    n = len(boxes)
    feats = build_roi_features(fm, boxes)
    probs = np.asarray(classifier_fn(feats, boxes, grid_indices))
    if probs.ndim != 2 or len(probs) != n:
        raise ModelMismatchError(f"classifier output has shape "
                                 f"{probs.shape}, expected ({n}, C)")
    return feats, probs


def _regress(regressor_fn, feats, boxes, grid_indices, heads: int):
    """The regressor's deltas for M boxes, checked to be (M, K >= heads, 4)."""
    m = len(boxes)
    deltas = np.asarray(regressor_fn(feats, boxes, grid_indices),
                        dtype=np.float64)
    if not (deltas.ndim == 3 and len(deltas) == m and deltas.shape[2] == 4
            and deltas.shape[1] >= heads):
        raise ModelMismatchError(
            f"regressor output has shape {deltas.shape}, expected ({m}, K, 4) "
            f"with K >= {heads}")
    return deltas


def _finalize(fm, history, grid_indices, classifier_fn, score_threshold: float,
              nms_iou: float) -> list[DetectionResult]:
    """Score the last boxes of history, drop background/low scores, and apply
    per-class NMS. Results come by descending score, ties toward the lower
    grid index; only survivors get a Box and their trajectory."""
    boxes = history[-1]
    _, probs = _pool_and_classify(fm, boxes, grid_indices, classifier_fn)
    labels = np.argmax(probs, axis=1)
    scores = probs[np.arange(len(boxes)), labels]
    candidates = np.flatnonzero((labels > 0) & (scores >= score_threshold))
    kept = np.zeros(len(boxes), dtype=bool)
    for c in np.unique(labels[candidates]):
        group = candidates[labels[candidates] == c]
        kept[group[nms(boxes[group], scores[group], nms_iou)]] = True
    kept = np.flatnonzero(kept)
    kept = kept[np.argsort(-scores[kept], kind="stable")]
    return [DetectionResult(Box(*boxes[i].tolist()), int(labels[i]),
                            float(scores[i]), history[:, i].copy(),
                            grid_indices[i])
            for i in kept.tolist()]
