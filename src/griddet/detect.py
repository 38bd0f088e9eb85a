"""Iterative detection loop with classifier gating, plus NMS.

Per image, global features are computed once; every loop iteration pools
from them and classifies the boxes that moved since the last pass, and moves
each box by the delta of its currently most probable class. A box classified
as background stays put, and so keeps its features and its class.
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
    """Counters of detect_multi calls: global-feature calls; per step its
    seconds; per pass, a step's or an eval step's scoring, in the order they
    ran, its rows pooled. A pass classifies exactly the rows it pools, so
    rows_pooled counts the rows classified too."""
    feature_calls: int = 0
    iteration_seconds: list = field(default_factory=list)
    rows_pooled: list = field(default_factory=list)


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

    Both models give each row the same bits in a batch of any size, so
    regressing the gated rows, or classifying the rows that moved, equals
    running every box and keeping those rows. numpy sends a one-row product
    to BLAS's matrix-vector kernel, whose sums can differ from the
    matrix-matrix kernel's in the last bit, so a one-row batch is padded to
    two rows."""
    k = regressor.output_dim // 4

    def two_rows(feats):
        return np.repeat(feats, 2, axis=0) if len(feats) == 1 else feats

    def regress(feats, boxes, grid_indices):
        n = len(boxes)
        return regressor.forward(two_rows(feats))[0][:n].reshape(n, k, 4)

    def classify(feats, boxes, grid_indices):
        return softmax_probs(classifier, two_rows(feats))[:len(boxes)]

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

    The boxes are one (N, 4) array of (cx, cy, w, h) rows. The loop keeps
    the features and class probabilities of the current boxes from one
    pass to the next. A pass, each step's and each eval step's scoring,
    hands every box to build_roi_features with the kept features and the
    rows whose box changed in its bits (changed_rows), which it alone
    pools, and calls the classifier with only those rows (their features,
    boxes and grid indices, in grid order), and not at all when none
    changed. The first pass pools and classifies every box; the step after
    a scoring pass pools and classifies nothing. So the classifier must
    give a row the same output whatever rows share its call.

    A step then calls the regressor with only the gated rows, those whose
    most probable class is not background, and not at all when none is
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
    # The boxes after each step, the grid first.
    history = np.empty((max(eval_steps) + 1, len(grid), 4))
    history[0] = grid
    # The (boxes, feats, probs) of the last pass.
    state = None
    out: dict[int, list[DetectionResult]] = {}
    for s in range(len(history)):
        if s:
            t0 = time.perf_counter()
            boxes = history[s - 1]
            state = _pool_and_classify(fm, boxes, classifier_fn, state, stats)
            _, feats, probs = state
            labels = np.argmax(probs, axis=1)
            moving = np.flatnonzero(labels)
            history[s] = boxes
            if len(moving):
                gated = boxes[moving]
                # The grid index of row i is i.
                deltas = _regress(regressor_fn, feats[moving], gated,
                                  moving.tolist(), probs.shape[1] - 1)
                history[s, moving] = move_boxes(
                    gated, deltas[np.arange(len(moving)), labels[moving] - 1],
                    w, h)
            if stats is not None:
                stats.iteration_seconds.append(time.perf_counter() - t0)
        if s in eval_steps:
            state = _pool_and_classify(fm, history[s], classifier_fn, state,
                                       stats)
            out[s] = _finalize(history[:s + 1], state[2], score_threshold,
                               nms_iou)
    return out


def _pool_and_classify(fm, boxes, classifier_fn, state, stats):
    """The state (boxes, feats, probs) of boxes, given the state of the last
    pass, or None on the first: pool and classify the M rows whose box
    changed, every row on the first pass, and copy the rest. The
    classifier's output is checked to be (M, C), with the first pass's C
    after the first; probs is float64 and belongs to the state."""
    if state is None:
        changed, previous, probs = np.arange(len(boxes)), None, None
    else:
        changed = np.flatnonzero(changed_rows(boxes, state[0]))
        previous, probs = (state[1], changed), state[2]
    feats = build_roi_features(fm, boxes, previous)
    m = len(changed)
    if stats is not None:
        stats.rows_pooled.append(m)
    if m:
        rows = slice(None) if m == len(boxes) else changed
        new = np.array(classifier_fn(feats[rows], boxes[rows],
                                     changed.tolist()), dtype=np.float64)
        c = "C" if probs is None else probs.shape[1]
        if new.ndim != 2 or len(new) != m or (
                probs is not None and new.shape[1] != c):
            raise ModelMismatchError(f"classifier output has shape "
                                     f"{new.shape}, expected ({m}, {c})")
        if m == len(boxes):
            probs = new
        else:
            probs[changed] = new
    return boxes, feats, probs


def changed_rows(boxes: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Whether each row of boxes differs from the same row of previous in
    its bits: -0.0 and 0.0 differ, and so do two NaNs of different bits."""
    return (boxes.view(np.int64) != previous.view(np.int64)).any(axis=1)


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


def _finalize(history, probs, score_threshold: float,
              nms_iou: float) -> list[DetectionResult]:
    """Score the last boxes of history by their class probabilities, drop
    background/low scores, and apply per-class NMS. Results come by
    descending score, ties toward the lower grid index; only survivors get
    a Box and their trajectory."""
    boxes = history[-1]
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
                            float(scores[i]), history[:, i].copy(), i)
            for i in kept.tolist()]
