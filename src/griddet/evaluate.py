"""Detection metrics: average precision, mAP, and a false-positive taxonomy.

AP uses greedy score-ordered matching at an IoU threshold and the
precision-envelope area under the PR curve (the continuous VOC rule). False
positives are split into Loc / Sim / BG / Oth by their overlap with
same-class, similar-class, and other-class ground truth. Matching and the
split each read one iou_matrix per image: its detections (or its false
positives) by its ground truths. score_detections gives both from one
matching per class.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .assign import GroundTruth
# iou stays importable here for the benchmark's call counters.
from .boxes import Box, boxes_to_array, iou, iou_matrix
from .records import check_fields, from_json, to_plain

FP_CATEGORIES = ("Loc", "Sim", "BG", "Oth")


class InvalidSimilarityGroupsError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class DetRecord:
    """One scored detection, as exchanged through detection dumps."""

    image_id: int
    class_label: int
    score: float
    box: Box


@dataclass
class FPBreakdown:
    """The category of every false positive, in descending score order."""

    categories: list[str]

    def at_rank(self, k: int) -> dict[str, int]:
        """Per-category counts among the k highest-scoring false positives."""
        head = self.categories[:k]
        return {cat: head.count(cat) for cat in FP_CATEGORIES}

    def totals(self) -> dict[str, int]:
        return self.at_rank(len(self.categories))


def _score_order(scores: list[float]) -> list[int]:
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _by_image(indices, images) -> dict[int, list[int]]:
    """The indices of each image, in the order given."""
    groups: dict[int, list[int]] = {}
    for i in indices:
        groups.setdefault(images[i], []).append(i)
    return groups


def match_detections(detections: list[tuple[int, float, Box]],
                     gts: dict[int, list[Box]],
                     iou_match: float = 0.5) -> list[bool]:
    """Greedy matching in score order for one class.

    A detection is a TP if it overlaps an unmatched ground truth of the same
    image with IoU >= iou_match and > 0 (the first highest-IoU unmatched one
    is consumed); duplicates on matched ground truth are FPs. Equal scores
    break by index. Returns one TP flag per detection, in the input order.
    """
    order = _score_order([d[1] for d in detections])
    flags = [False] * len(detections)
    for img, rows in _by_image(order, [d[0] for d in detections]).items():
        if not gts.get(img):
            continue
        ious = iou_matrix(boxes_to_array([detections[i][2] for i in rows]),
                          boxes_to_array(gts[img]))
        for i, row in zip(rows, ious):
            j = int(np.argmax(row))
            if row[j] >= iou_match and row[j] > 0:
                ious[:, j] = 0.0  # a matched ground truth is used up
                flags[i] = True
    return flags


def average_precision(detections: list[tuple[int, float, Box]],
                      gts: dict[int, list[Box]],
                      iou_match: float = 0.5) -> float:
    """Area under the precision envelope of the PR curve for one class.

    With no ground truth the AP is 0 (whether or not detections exist).
    """
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0 or not detections:
        return 0.0
    return _precision_area(detections,
                           match_detections(detections, gts, iou_match), n_gt)


def _precision_area(detections, flags: list[bool], n_gt: int) -> float:
    """average_precision of detections with match_detections' flags, for
    n_gt > 0 ground truths; 0 without detections."""
    order = _score_order([d[1] for d in detections])
    tp = np.cumsum([flags[i] for i in order])
    recalls = np.concatenate(([0.0], tp / n_gt))
    precisions = np.concatenate(([0.0], tp / np.arange(1, len(tp) + 1)))
    # Monotone precision envelope from the right.
    env = np.maximum.accumulate(precisions[::-1])[::-1]
    # A sequential sum: np.sum adds pairwise, which changes the last bits.
    ap = 0.0
    for i in range(1, len(recalls)):
        ap += (recalls[i] - recalls[i - 1]) * env[i]
    return float(ap)


def _class_matches(detections: list[DetRecord],
                   gts: dict[int, list[GroundTruth]], num_classes: int,
                   iou_match: float):
    """Per class 1..num_classes: its detections as (image, score, box), its
    ground-truth boxes by image, and match_detections' flags for them."""
    per_cls_det = {c: [] for c in range(1, num_classes + 1)}
    for d in detections:
        if d.class_label in per_cls_det:
            per_cls_det[d.class_label].append((d.image_id, d.score, d.box))
    per_cls_gt = {c: {} for c in range(1, num_classes + 1)}
    for img, glist in gts.items():
        for g in glist:
            if g.class_label in per_cls_gt:
                per_cls_gt[g.class_label].setdefault(img, []).append(g.box)
    return {c: (dets, per_cls_gt[c],
                match_detections(dets, per_cls_gt[c], iou_match))
            for c, dets in per_cls_det.items()}


def _mean_ap(matches) -> tuple[dict[int, float], float]:
    """Per-class AP of every class with ground truth, and their mean."""
    per_class_ap = {}
    for c, (dets, cls_gts, flags) in matches.items():
        n_gt = sum(len(v) for v in cls_gts.values())
        if n_gt:
            per_class_ap[c] = _precision_area(dets, flags, n_gt)
    m = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    return per_class_ap, m


def evaluate_detections(detections: list[DetRecord],
                        gts: dict[int, list[GroundTruth]], num_classes: int,
                        iou_match: float = 0.5):
    """Per-class AP and mAP for a full detection dump.

    Returns (per_class_ap, map_value)."""
    return _mean_ap(_class_matches(detections, gts, num_classes, iou_match))


def fp_breakdown(detections: list[DetRecord],
                 gts: dict[int, list[GroundTruth]],
                 similarity_groups, iou_match: float = 0.5) -> FPBreakdown:
    """Categorize every false positive.

    Loc: overlap >= 0.1 with a same-class ground truth (poor localization or
    a duplicate on an already-matched one). Sim: overlap >= 0.1 with a
    different class of the same similarity group. Oth: overlap >= 0.1 with a
    class of another group. BG: under 0.1 with everything. Precedence is
    Loc > Sim > Oth. The categories come in descending score order.
    """
    return score_detections(detections, gts, similarity_groups, iou_match)[2]


def score_detections(detections: list[DetRecord],
                     gts: dict[int, list[GroundTruth]], similarity_groups,
                     iou_match: float = 0.5):
    """evaluate_detections and fp_breakdown of one dump, for the classes
    1..K that similarity_groups partitions, from one matching per class.

    Returns (per_class_ap, map_value, breakdown)."""
    classes = sorted(c for g in similarity_groups for c in g)
    if len(classes) != len(set(classes)) or \
            classes != list(range(1, len(classes) + 1)):
        raise InvalidSimilarityGroupsError(
            f"groups must partition 1..K, got {similarity_groups}")
    group_of = {c: gi for gi, g in enumerate(similarity_groups) for c in g}
    matches = _class_matches(detections, gts, len(classes), iou_match)

    fps = []  # (score, image, class, box), in (class, detection) order
    for c, (dets, _, flags) in matches.items():
        fps += [(score, img, c, box)
                for (img, score, box), is_tp in zip(dets, flags) if not is_tp]

    cats = ["BG"] * len(fps)
    for img, ks in _by_image(range(len(fps)), [fp[1] for fp in fps]).items():
        glist = gts.get(img, [])
        hits = iou_matrix(boxes_to_array([fps[k][3] for k in ks]),
                          boxes_to_array([g.box for g in glist])) >= 0.1
        gt_class = np.array([g.class_label for g in glist])
        gt_group = np.array([group_of[g.class_label] for g in glist])
        for k, hit in zip(ks, hits):
            c = fps[k][2]
            # Loc > Sim > Oth: each test sees only hits the one before missed.
            if hit[gt_class == c].any():
                cats[k] = "Loc"
            elif hit[gt_group == group_of[c]].any():
                cats[k] = "Sim"
            elif hit.any():
                cats[k] = "Oth"

    order = sorted(range(len(fps)), key=lambda k: -fps[k][0])
    return (*_mean_ap(matches), FPBreakdown([cats[k] for k in order]))


@dataclass(frozen=True)
class _DumpHeader:
    format_version: int

    def __post_init__(self):
        check_fields(self, {"format_version": (lambda v: v == 1, "1")})


@dataclass(frozen=True)
class _DumpLine:
    image_id: int
    class_label: int = field(metadata={"key": "class"})
    score: float
    box: tuple[float, float, float, float]

    def __post_init__(self):
        check_fields(self, {"score": (math.isfinite, "a finite number"),
                            "box": (None, "4 numbers (cx, cy, w, h)")})
        self.checked_box  # the Box check: finite, with positive sides

    @functools.cached_property
    def checked_box(self) -> Box:
        return Box(*self.box)


def write_detection_dump(path, detections: list[DetRecord]):
    """Line-delimited JSON records: image id, class, score, box (cx cy w h)."""
    with open(path, "w") as f:
        f.write(json.dumps(to_plain(_DumpHeader(1))) + "\n")
        for d in detections:
            line = _DumpLine(d.image_id, d.class_label, d.score,
                             (d.box.cx, d.box.cy, d.box.w, d.box.h))
            f.write(json.dumps(to_plain(line)) + "\n")


def read_detection_dump(path) -> list[DetRecord]:
    """Records of a dump written by write_detection_dump. A malformed header
    or record raises ValueError naming the file and the line."""
    with open(path, "rb") as f:
        from_json(_DumpHeader, f.readline(), f"detection dump {path} line 1")
        lines = [from_json(_DumpLine, line, f"detection dump {path} line {n}")
                 for n, line in enumerate(f, start=2) if line.strip()]
    return [DetRecord(r.image_id, r.class_label, r.score, r.checked_box)
            for r in lines]


def format_report(per_class_ap: dict[int, float], map_value: float,
                  breakdown: FPBreakdown) -> str:
    lines = ["detection metrics report", ""]
    for c in sorted(per_class_ap):
        lines.append(f"class {c:>3}  AP = {per_class_ap[c]:.4f}")
    lines.append(f"mAP = {map_value:.4f}")
    totals = breakdown.totals()
    lines.append("")
    lines.append("false positives by category (cumulative totals):")
    for cat in FP_CATEGORIES:
        lines.append(f"  {cat:<4} {totals[cat]}")
    return "\n".join(lines) + "\n"
