"""Detection metrics: average precision, mAP, and a false-positive taxonomy.

AP uses greedy score-ordered matching at an IoU threshold and the
precision-envelope area under the PR curve (the continuous VOC rule). False
positives are split into Loc / Sim / BG / Oth by their overlap with
same-class, similar-class, and other-class ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .assign import GroundTruth
from .boxes import Box, iou
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


def match_detections(detections: list[tuple[int, float, Box]],
                     gts: dict[int, list[Box]],
                     iou_match: float = 0.5) -> list[bool]:
    """Greedy matching in score order for one class.

    A detection is a TP if it overlaps an unmatched ground truth of the same
    image with IoU >= iou_match (highest-IoU unmatched one is consumed);
    duplicates on matched ground truth are FPs. Equal scores break by index.
    Returns one TP flag per detection, in the input order.
    """
    used = {img: [False] * len(boxes) for img, boxes in gts.items()}
    flags = [False] * len(detections)
    for i in _score_order([d[1] for d in detections]):
        img, _, box = detections[i]
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gts.get(img, [])):
            if used.get(img, [])[j]:
                continue
            v = iou(box, g)
            if v >= iou_match and v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            used[img][best_j] = True
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
    flags = match_detections(detections, gts, iou_match)
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


def _split_by_class(detections: list[DetRecord],
                    gts: dict[int, list[GroundTruth]], num_classes: int):
    per_cls_det = {c: [] for c in range(1, num_classes + 1)}
    for d in detections:
        per_cls_det.setdefault(d.class_label, []).append(
            (d.image_id, d.score, d.box))
    per_cls_gt = {c: {} for c in range(1, num_classes + 1)}
    for img, glist in gts.items():
        for g in glist:
            per_cls_gt.setdefault(g.class_label, {})
            per_cls_gt[g.class_label].setdefault(img, []).append(g.box)
    return per_cls_det, per_cls_gt


def evaluate_detections(detections: list[DetRecord],
                        gts: dict[int, list[GroundTruth]], num_classes: int,
                        iou_match: float = 0.5):
    """Per-class AP and mAP for a full detection dump.

    Returns (per_class_ap, map_value)."""
    per_cls_det, per_cls_gt = _split_by_class(detections, gts, num_classes)
    per_class_ap = {}
    for c in range(1, num_classes + 1):
        n_gt = sum(len(v) for v in per_cls_gt.get(c, {}).values())
        if n_gt == 0:
            continue
        per_class_ap[c] = average_precision(per_cls_det.get(c, []),
                                            per_cls_gt[c], iou_match)
    m = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    return per_class_ap, m


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
    classes = sorted(c for g in similarity_groups for c in g)
    if len(classes) != len(set(classes)) or \
            classes != list(range(1, len(classes) + 1)):
        raise InvalidSimilarityGroupsError(
            f"groups must partition 1..K, got {similarity_groups}")
    num_classes = len(classes)
    group_of = {c: gi for gi, g in enumerate(similarity_groups) for c in g}
    per_cls_det, per_cls_gt = _split_by_class(detections, gts, num_classes)

    fps: list[tuple[float, str]] = []
    for c in range(1, num_classes + 1):
        dets = per_cls_det.get(c, [])
        flags = match_detections(dets, per_cls_gt.get(c, {}), iou_match)
        for (img, score, box), is_tp in zip(dets, flags):
            if is_tp:
                continue
            max_same = 0.0
            max_sim = 0.0
            max_oth = 0.0
            for g in gts.get(img, []):
                v = iou(box, g.box)
                if g.class_label == c:
                    max_same = max(max_same, v)
                elif group_of[g.class_label] == group_of[c]:
                    max_sim = max(max_sim, v)
                else:
                    max_oth = max(max_oth, v)
            if max_same >= 0.1:
                cat = "Loc"
            elif max_sim >= 0.1:
                cat = "Sim"
            elif max_oth >= 0.1:
                cat = "Oth"
            else:
                cat = "BG"
            fps.append((score, cat))

    fps.sort(key=lambda t: -t[0])
    return FPBreakdown([cat for _, cat in fps])


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
        Box(*self.box)  # the Box check: finite, with positive sides


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
    return [DetRecord(r.image_id, r.class_label, r.score, Box(*r.box))
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
