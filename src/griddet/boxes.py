"""Bounding-box algebra: center/size boxes, IoU, and the box-delta parametrization.

Boxes are stored in center/size form (cx, cy, w, h). Corner form
(x1, y1, x2, y2) is used internally for intersection and clipping only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The side, in pixels, that clipping restores to a box it collapsed.
MIN_SIDE = 1.0


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box in center/size coordinates (pixels)."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box field {name} must be finite, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "Box":
        return cls((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)

    def corners(self) -> tuple[float, float, float, float]:
        """Return (x1, y1, x2, y2)."""
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)

    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True, slots=True)
class DeltaParams:
    """Parametrized change between two boxes.

    Translation is scale-invariant (shift divided by the source box side);
    the size change is a log-scale ratio.
    """

    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self):
        for name in ("tx", "ty", "tw", "th"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"delta field {name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tw, self.th], dtype=np.float64)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Boxes sharing only an edge or a point have intersection area 0 and
    therefore IoU 0.
    """
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area() + b.area() - inter
    # Rounding can push the ratio a hair past 1 for near-identical boxes.
    return min(inter / union, 1.0)


def delta(b: Box, t: Box) -> DeltaParams:
    """Parametrize the change mapping box ``b`` onto target ``t``."""
    return DeltaParams(*box_deltas(boxes_to_array([b]),
                                   boxes_to_array([t]))[0].tolist())


def apply_delta(b: Box, d: DeltaParams) -> Box:
    """Project a parametrized change back into box space (inverse of delta).
    Raises ValueError if the result is not finite or has an empty side."""
    return Box(*apply_deltas(boxes_to_array([b]), d.as_array())[0].tolist())


def clip_to_image(b: Box, width: float, height: float) -> Box:
    """Clamp one box to the image; see clip_boxes. Raises ValueError if the
    clamped box has an empty side."""
    return Box(*clip_boxes(boxes_to_array([b]), width, height)[0].tolist())


# Array forms. Rows are (cx, cy, w, h).

def boxes_to_array(boxes: list[Box]) -> np.ndarray:
    return np.array([[b.cx, b.cy, b.w, b.h] for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def box_deltas(boxes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Parametrize, row by row, the change mapping boxes onto targets as
    (tx, ty, tw, th) rows: the shift divided by the box side, then the log of
    the side ratio. The logs come from math.log value by value, since np.log
    differs from it in the last bit on some inputs; the rest is the scalar
    formula in its order. Raises ValueError naming the first row that is not
    finite."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 4)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shifts = (targets[:, :2] - boxes[:, :2]) / boxes[:, 2:]
        ratios = targets[:, 2:] / boxes[:, 2:]
    ratios[~(ratios > 0)] = math.nan  # math.log raises on these
    scales = list(map(math.log, ratios.ravel().tolist()))
    out = np.hstack([shifts, np.reshape(scales, (-1, 2))])
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if len(bad):
        raise ValueError(f"delta row {bad[0]} must be finite, got "
                         f"{out[bad[0]].tolist()}")
    return out


def apply_deltas(boxes: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Move each row of boxes by its row of deltas (tx, ty, tw, th), the
    inverse of delta; rows are not checked. The scales come from math.exp
    value by value, since np.exp differs from it in the last bit on some
    inputs; the rest is the scalar formula in its order, so results match
    it bit for bit."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    scales = [math.exp(t) for t in deltas[:, 2:].ravel().tolist()]
    return np.hstack([boxes[:, :2] + deltas[:, :2] * boxes[:, 2:],
                      boxes[:, 2:] * np.reshape(scales, (-1, 2))])


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Clamp each row of boxes to the image rectangle [0, width] x [0, height].

    If clamping shrinks a side to MIN_SIDE or below, that side is restored to
    min(MIN_SIDE, image side), centered at the clamped position and kept
    inside the image, so boxes drifting outside never degenerate. Rows that
    clamping leaves untouched pass through without corner round-trip noise.
    Idempotent. Rows are not checked: one whose corners already coincide can
    come out with an empty side.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    half = boxes[:, 2:] / 2.0
    lo, hi = boxes[:, :2] - half, boxes[:, :2] + half
    dim = np.array([width, height], dtype=np.float64)
    # np.maximum(a, b) is np.where(a >= b, a, b), and np.minimum likewise:
    # the choices of Python's max and min, signed zeros included.
    clo = np.minimum(np.maximum(lo, 0.0), dim)
    chi = np.minimum(np.maximum(hi, 0.0), dim)
    side = chi - clo
    # Clamping collapsed the side: restore a minimum side centered at the
    # clamped position, shifted to stay inside the image.
    collapsed = (side < hi - lo) & (side <= MIN_SIDE)
    small = np.minimum(MIN_SIDE, dim)
    center = np.minimum(np.maximum((clo + chi) / 2.0, small / 2.0),
                        dim - small / 2.0)
    clo = np.where(collapsed, center - small / 2.0, clo)
    chi = np.where(collapsed, center + small / 2.0, chi)
    untouched = ((clo == lo) & (chi == hi)).all(axis=1, keepdims=True)
    rebuilt = np.hstack([(clo + chi) / 2.0, chi - clo])
    return np.where(untouched, boxes, rebuilt)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) and (M, 4) center/size arrays."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ax1 = a[:, 0] - a[:, 2] / 2.0
    ay1 = a[:, 1] - a[:, 3] / 2.0
    ax2 = a[:, 0] + a[:, 2] / 2.0
    ay2 = a[:, 1] + a[:, 3] / 2.0
    bx1 = b[:, 0] - b[:, 2] / 2.0
    by1 = b[:, 1] - b[:, 3] / 2.0
    bx2 = b[:, 0] + b[:, 2] / 2.0
    by2 = b[:, 1] + b[:, 3] / 2.0
    iw = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(ax1[:, None], bx1[None, :])
    ih = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(ay1[:, None], by1[None, :])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = a[:, 2] * a[:, 3]
    area_b = b[:, 2] * b[:, 3]
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=inter > 0)
    return np.clip(out, 0.0, 1.0)
