"""Global feature maps and ROI pooling.

The global features play the role of a convolutional backbone: they are
computed once per image, and every box only pools from them. All filters are
fixed; the learning capacity lives entirely in the downstream models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box


class BoxOutsideImageError(ValueError):
    """ROI has no intersection with the feature map."""


@dataclass(frozen=True)
class ExtractorConfig:
    include_gradients: bool = True
    extra_filters: tuple = ()  # optional fixed 2-d kernels, applied via correlation
    pool_h: int = 6
    pool_w: int = 6
    include_box_coords: bool = True

    @property
    def channels(self) -> int:
        return 1 + (2 if self.include_gradients else 0) + len(self.extra_filters)

    @property
    def feature_dim(self) -> int:
        d = self.channels * self.pool_h * self.pool_w
        if self.include_box_coords:
            d += 4
        return d


@dataclass
class FeatureMap:
    """Dense per-pixel features, channel-major (C, H, W). Immutable by convention."""

    data: np.ndarray

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def _correlate2d_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(image, ((ph, kh - 1 - ph), (pw, kw - 1 - pw)), mode="edge")
    out = np.zeros_like(image)
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * padded[i:i + image.shape[0], j:j + image.shape[1]]
    return out


@dataclass
class FeatureExtractor:
    """Computes global features; keeps an invocation counter for cost checks."""

    config: ExtractorConfig = field(default_factory=ExtractorConfig)
    call_count: int = 0

    def compute_global_features(self, image: np.ndarray) -> FeatureMap:
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2 or image.size == 0:
            raise ValueError("image must be a non-empty 2-d array")
        self.call_count += 1
        channels = [image]
        if self.config.include_gradients:
            gy, gx = np.gradient(image)
            channels.extend([gx, gy])
        for kernel in self.config.extra_filters:
            channels.append(_correlate2d_same(image, np.asarray(kernel, dtype=np.float64)))
        return FeatureMap(np.stack(channels, axis=0))


def compute_global_features(image: np.ndarray,
                            config: ExtractorConfig | None = None) -> FeatureMap:
    """One-off feature computation (no counter)."""
    return FeatureExtractor(config or ExtractorConfig()).compute_global_features(image)


def roi_pool(fm: FeatureMap, box: Box, pool_h: int = 6, pool_w: int = 6) -> np.ndarray:
    """Max-pool the feature cells under a box into a fixed-length vector.

    The box (corner form, clipped to the map) is divided into pool_h x pool_w
    bins; bin i along an axis of extent N spans cells
    [floor(i*N/p), ceil((i+1)*N/p)). Each bin outputs the per-channel max of
    the cells it covers; a sub-pixel box yields all zeros. Output length is
    channels * pool_h * pool_w regardless of box size.
    """
    if pool_h < 1 or pool_w < 1:
        raise ValueError("pool dims must be >= 1")
    x1, y1, x2, y2 = box.corners()
    if x2 <= 0 or y2 <= 0 or x1 >= fm.width or y1 >= fm.height:
        raise BoxOutsideImageError(f"box {box} does not intersect the "
                                   f"{fm.width}x{fm.height} feature map")
    ix1 = max(int(math.floor(x1)), 0)
    iy1 = max(int(math.floor(y1)), 0)
    ix2 = min(int(math.ceil(x2)), fm.width)
    iy2 = min(int(math.ceil(y2)), fm.height)
    c = fm.channels
    out = np.zeros((c, pool_h, pool_w), dtype=np.float64)
    nh = iy2 - iy1
    nw = ix2 - ix1
    if nh > 0 and nw > 0:
        region = fm.data[:, iy1:iy2, ix1:ix2]
        for i in range(pool_h):
            r0 = (i * nh) // pool_h
            r1 = -((-(i + 1) * nh) // pool_h)  # ceil
            for j in range(pool_w):
                c0 = (j * nw) // pool_w
                c1 = -((-(j + 1) * nw) // pool_w)
                out[:, i, j] = region[:, r0:r1, c0:c1].max(axis=(1, 2))
    return out.ravel()


def build_roi_features(fm: FeatureMap, boxes: list[Box],
                       config: ExtractorConfig) -> np.ndarray:
    """Pool features for a batch of boxes, optionally appending normalized
    box coordinates (cx/W, cy/H, w/W, h/H)."""
    n = len(boxes)
    feats = np.zeros((n, config.feature_dim), dtype=np.float64)
    d = config.channels * config.pool_h * config.pool_w
    w, h = float(fm.width), float(fm.height)
    for i, b in enumerate(boxes):
        feats[i, :d] = roi_pool(fm, b, config.pool_h, config.pool_w)
        if config.include_box_coords:
            feats[i, d:] = (b.cx / w, b.cy / h, b.w / w, b.h / h)
    return feats
