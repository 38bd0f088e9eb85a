"""Generation of the initial multi-scale grid of overlapping boxes."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box
from .records import check_fields

# Guards against float noise in stride counts like (128-64)/6.4.
_EPS = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Multi-scale grid layout.

    At scale k the cell is (W/k, H/k); an overlap of alpha means the
    horizontal/vertical strides are cell * (1 - alpha).
    """

    scales: tuple[int, ...]
    overlaps: tuple[float, ...]

    def __post_init__(self):
        check_fields(self, {
            "scales": (lambda v: v and min(v) >= 1,
                       "a non-empty tuple of positive integers"),
            "overlaps": (lambda v: len(v) == len(self.scales)
                         and all(0 <= a < 1 for a in v),
                         "one number in [0, 1) per scale")})


# The most boxes a grid may place on the config's image size, about 65 times
# the default train grid's 1,523: its array is 3.2 MB, its pooled features
# 90 MB per image.
MAX_GRID_BOXES = 100_000


def _axis_count(dim: float, cell: float, stride: float) -> int:
    return int(math.floor((dim - cell) / stride + _EPS)) + 1


def _scales(spec: GridSpec, image_width: float, image_height: float):
    """Per scale of spec: (cell, stride, box count) along x, then along y."""
    for k, alpha in zip(spec.scales, spec.overlaps):
        axes = []
        for dim in (image_width, image_height):
            cell = dim / k
            stride = cell * (1.0 - alpha)
            axes.append((cell, stride, _axis_count(dim, cell, stride)))
        yield axes


def fits_bound(spec: GridSpec, image_width: float,
               image_height: float) -> bool:
    """Whether grid_array places at most MAX_GRID_BOXES boxes, counted
    without placing them. A scale k places at least k boxes per axis, so a
    larger one fails before its cell size can underflow."""
    return max(spec.scales) <= MAX_GRID_BOXES and sum(
        nx * ny for (_, _, nx), (_, _, ny)
        in _scales(spec, image_width, image_height)) <= MAX_GRID_BOXES


@functools.lru_cache(maxsize=8)
def grid_array(spec: GridSpec, image_width: float,
               image_height: float) -> np.ndarray:
    """Place the grid boxes for every scale, coarse to fine, row-major, as a
    read-only (N, 4) array of (cx, cy, w, h) rows, cached per image size.

    Boxes are placed with top-left corners at integer multiples of the stride
    and only where the box lies fully inside the image; boxes that would
    extend past the border are not generated.
    """
    if image_width <= 0 or image_height <= 0:
        raise ValueError("image dimensions must be positive")
    rows = []
    for (cell_w, stride_x, nx), (cell_h, stride_y, ny) in _scales(
            spec, image_width, image_height):
        scale = np.empty((ny, nx, 4))
        scale[:, :, 0] = np.arange(nx) * stride_x + cell_w / 2.0
        scale[:, :, 1] = (np.arange(ny) * stride_y + cell_h / 2.0)[:, None]
        scale[:, :, 2] = cell_w
        scale[:, :, 3] = cell_h
        rows.append(scale.reshape(-1, 4))
    out = np.concatenate(rows)
    out.flags.writeable = False
    return out


def generate_grid(spec: GridSpec, image_width: float, image_height: float) -> list[Box]:
    """The grid of grid_array as Box objects."""
    return [Box(*row) for row in grid_array(spec, image_width,
                                            image_height).tolist()]
