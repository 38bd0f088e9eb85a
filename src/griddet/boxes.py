"""Bounding-box algebra: center/size boxes, IoU, and the box-delta parametrization.

Boxes are stored in center/size form (cx, cy, w, h). Corner form
(x1, y1, x2, y2) is used internally for intersection and clipping only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    return DeltaParams(
        tx=(t.cx - b.cx) / b.w,
        ty=(t.cy - b.cy) / b.h,
        tw=math.log(t.w / b.w),
        th=math.log(t.h / b.h),
    )


def apply_delta(b: Box, d: DeltaParams) -> Box:
    """Project a parametrized change back into box space (inverse of delta)."""
    return Box(
        cx=b.cx + d.tx * b.w,
        cy=b.cy + d.ty * b.h,
        w=b.w * math.exp(d.tw),
        h=b.h * math.exp(d.th),
    )


def _clip_axis(lo: float, hi: float, dim: float, min_side: float) -> tuple[float, float]:
    clo = min(max(lo, 0.0), dim)
    chi = min(max(hi, 0.0), dim)
    side = chi - clo
    orig_side = hi - lo
    if side < orig_side and side <= min_side:
        # Clamping collapsed the side: restore a minimum side centered at the
        # clamped position, shifted to stay inside the image.
        side = min(min_side, dim)
        center = (clo + chi) / 2.0
        center = min(max(center, side / 2.0), dim - side / 2.0)
        return center - side / 2.0, center + side / 2.0
    return clo, chi


def clip_to_image(b: Box, width: float, height: float, min_side: float = 1.0) -> Box:
    """Clamp a box to the image rectangle [0, width] x [0, height].

    If clamping shrinks a side to min_side or below, that side is restored to
    min_side, centered at the clamped position and kept inside the image, so
    boxes drifting outside never degenerate. Idempotent.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    x1, y1, x2, y2 = b.corners()
    cx1, cx2 = _clip_axis(x1, x2, width, min_side)
    cy1, cy2 = _clip_axis(y1, y2, height, min_side)
    if (cx1, cy1, cx2, cy2) == (x1, y1, x2, y2):
        return b  # untouched boxes pass through without corner round-trip noise
    return Box.from_corners(cx1, cy1, cx2, cy2)


# Array helpers for bulk geometry. Rows are (cx, cy, w, h).

def boxes_to_array(boxes: list[Box]) -> np.ndarray:
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([[b.cx, b.cy, b.w, b.h] for b in boxes], dtype=np.float64)


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
