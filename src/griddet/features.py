"""Global feature maps and ROI max-pooling.

The global features play the role of a convolutional backbone: they are
computed once per image, and every box only pools from them. All filters are
fixed; the learning capacity lives entirely in the downstream models.

Pooling reads a base-3 range-max table that is built with the features, once
per image (a 2-d sparse table; Bender & Farach-Colton, "The LCA Problem
Revisited", 2000). Slab (a, b) holds, for each cell, the per-channel max over
the 3**a x 3**b window whose top-left corner is that cell; slab (0, 0) is the
map itself. Levels go up to the longest bin that the pool shape can give on
the map. A bin of length L along an axis, with 3**a <= L < 3**(a+1), is
covered by k = ceil(L / 3**a) <= 3 windows of side 3**a, starting at r0,
r0 + 3**a and r0 + 2 * 3**a, each clamped to end at the bin's end. Max is
idempotent, so overlapping windows, and extra windows clamped onto the last,
give the bin's max exactly. All boxes of a call are pooled together in chunks,
one vectorised gather per lookup; per chunk and axis, the lookup count is the
largest k among the chunk's bins, so a bin costs at most 3 x 3 lookups. For a
128x128 map with 3 channels and 6x6 bins the table has 3 x 3 slabs, 3.2 MiB;
a 256x256 map needs 4 x 4 slabs, 22.3 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Pooled values per chunk of boxes; bounds each of the four pooling
# temporaries to 128 KiB.
_CHUNK = 1 << 14

# Window sides 3**k, for every k whose power fits in an int64.
_SIDES = 3 ** np.arange(40, dtype=np.int64)


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


def _level(n):
    """floor(log3(n)) of positive integers (scalar or array), exactly."""
    return np.searchsorted(_SIDES, n, side="right") - 1


def _levels(n: int, pool: int) -> int:
    """Table levels along an axis of n cells pooled into `pool` bins: enough
    for the longest bin, min(n, ceil(n / pool) + 1) cells."""
    return int(_level(min(n, -(-n // pool) + 1))) + 1


def _max3(src: np.ndarray, step: int, axis: int, out: np.ndarray):
    """out = max of the three slices of src along axis starting at k * step."""
    n = out.shape[axis]
    lead = (slice(None),) * axis
    part = lambda k: src[lead + (slice(k * step, k * step + n),)]
    np.maximum(part(0), part(1), out=out)
    np.maximum(out, part(2), out=out)


class RangeMaxTable:
    """Base-3 range-max table of a (C, H, W) map, every slab in one flat buffer.

    Slab (a, b) has shape (C, rows[a], cols[b]), with rows[a] = H - 3**a + 1
    and cols[b] = W - 3**b + 1 window starts, and begins at offsets[a, b].
    Slab (0, 0) is the map itself, exposed as `map`.
    """

    def __init__(self, channels, pool_h: int, pool_w: int):
        """Stack channels (a (C, H, W) array or C arrays of (H, W)) into slab
        (0, 0) and build the levels bins of pool_h x pool_w can need."""
        c, (h, w) = len(channels), channels[0].shape
        self.channels = c
        self.levels = (_levels(h, pool_h), _levels(w, pool_w))
        self.rows = h + 1 - _SIDES[:self.levels[0]]
        self.cols = w + 1 - _SIDES[:self.levels[1]]
        sizes = c * np.outer(self.rows, self.cols)
        self.offsets = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
        self.flat = np.empty(int(sizes.sum()), dtype=np.float64)

        def slab(a, b):
            start = self.offsets[a, b]
            return self.flat[start:start + sizes[a, b]].reshape(
                c, self.rows[a], self.cols[b])

        self.map = np.stack(channels, out=slab(0, 0))
        for a in range(self.levels[0]):
            if a:
                _max3(slab(a - 1, 0), _SIDES[a - 1], 1, slab(a, 0))
            for b in range(1, self.levels[1]):
                _max3(slab(a, b - 1), _SIDES[b - 1], 2, slab(a, b))

    def covers(self, pool_h: int, pool_w: int) -> bool:
        _, h, w = self.map.shape
        return (_levels(h, pool_h) <= self.levels[0]
                and _levels(w, pool_w) <= self.levels[1])

    def pool(self, y0, y1, x0, x1, pool_h: int, pool_w: int, out: np.ndarray):
        """Write into out (n, C * pool_h * pool_w) the per-channel max of every
        bin of the n cell ranges [y0, y1) x [x0, x1), each non-empty."""
        chan = np.arange(self.channels)[:, None, None]
        chunk = max(1, _CHUNK // out.shape[1])
        for lo in range(0, len(y0), chunk):
            hi = min(lo + chunk, len(y0))
            ay, ys = _windows(y0[lo:hi], y1[lo:hi], pool_h)
            ax, xs = _windows(x0[lo:hi], x1[lo:hi], pool_w)
            # Flat index of lookup (ky, kx) of every bin, laid out as (box,
            # channel, bin row, bin column) like the rows of out, in which the
            # max of the chunk's len(ys) x len(xs) lookups accumulates.
            stride = self.cols[ax][:, None, None, :]             # (m, 1, 1, pw)
            slab = self.offsets[ay[:, :, None], ax[:, None, :]]  # (m, ph, pw)
            plane = self.rows[ay][:, None, :, None] * stride     # (m, 1, ph, pw)
            first = slab[:, None] + chan * plane                 # (m, C, ph, pw)
            index = np.empty_like(first)
            values = np.empty(first.shape).reshape(hi - lo, -1)
            rows = out[lo:hi]
            for ky, y in enumerate(ys):
                row = y[:, None, :, None] * stride + first
                for kx, x in enumerate(xs):
                    np.add(row, x[:, None, None, :], out=index)
                    self.flat.take(index.reshape(values.shape), out=values)
                    if ky or kx:
                        np.maximum(rows, values, out=rows)
                    else:
                        rows[...] = values


def _windows(start, end, pool: int):
    """Per bin of each cell range: the table level (m, pool) and the window
    starts (k, m, pool), k the most windows any of the bins needs.

    Bin i of a range of n cells spans [floor(i*n/p), ceil((i+1)*n/p)). A bin
    needing fewer than k windows repeats its last one.
    """
    n = (end - start)[:, None]
    i = np.arange(pool)
    r0 = start[:, None] + (i * n) // pool
    r1 = start[:, None] - ((-(i + 1) * n) // pool)
    level = _level(r1 - r0)
    side = _SIDES[level]
    k = int((-((r0 - r1) // side)).max())
    return level, np.minimum(r0 + side * np.arange(k)[:, None, None], r1 - side)


@dataclass
class FeatureMap:
    """Dense per-pixel features, channel-major (C, H, W), and the range-max
    table pooling reads. Immutable by convention; a map built by hand gets its
    table on first pooling."""

    data: np.ndarray
    table: RangeMaxTable | None = field(default=None, repr=False, compare=False)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def range_max(self, pool_h: int, pool_w: int) -> RangeMaxTable:
        """The table, (re)built if it lacks the levels this pool shape needs."""
        if self.table is None or not self.table.covers(pool_h, pool_w):
            self.table = RangeMaxTable(self.data, pool_h, pool_w)
        return self.table


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
        """The feature map of an image, with its range-max table built for
        the configured pool shape."""
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
        table = RangeMaxTable(channels, self.config.pool_h, self.config.pool_w)
        return FeatureMap(table.map, table)


def build_roi_features(fm: FeatureMap, boxes: np.ndarray,
                       config: ExtractorConfig) -> np.ndarray:
    """Max-pool the cells under each row (cx, cy, w, h) of boxes into
    channels * pool_h * pool_w values, then optionally append the normalized
    box coordinates (cx/W, cy/H, w/W, h/H).

    Each box (corner form, clipped to the map) is divided into pool_h x
    pool_w bins; bin i along an axis of extent N spans cells
    [floor(i*N/p), ceil((i+1)*N/p)), and outputs the per-channel max of its
    cells. A box whose corners round to no cell pools zeros; a box that does
    not meet the map raises BoxOutsideImageError."""
    pool_h, pool_w = config.pool_h, config.pool_w
    if pool_h < 1 or pool_w < 1:
        raise ValueError("pool dims must be >= 1")
    if config.channels != fm.channels:
        raise ValueError(f"{config.channels} configured channels do not fit "
                         f"a feature map of {fm.channels}")
    d = config.channels * pool_h * pool_w
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    feats = np.zeros((len(boxes), config.feature_dim), dtype=np.float64)
    if config.include_box_coords:
        feats[:, d:] = boxes / (fm.width, fm.height, fm.width, fm.height)
    if not len(boxes):
        return feats
    cx, cy, w, h = boxes.T
    x1, y1 = cx - w / 2.0, cy - h / 2.0
    x2, y2 = cx + w / 2.0, cy + h / 2.0
    outside = (x2 <= 0) | (y2 <= 0) | (x1 >= fm.width) | (y1 >= fm.height)
    if outside.any():
        row = int(np.argmax(outside))
        raise BoxOutsideImageError(
            f"box row {row} {boxes[row].tolist()} does not intersect the "
            f"{fm.width}x{fm.height} feature map")
    # Clip in floats, where a huge box cannot overflow the integer cast.
    ix1 = np.maximum(np.floor(x1), 0).astype(np.intp)
    iy1 = np.maximum(np.floor(y1), 0).astype(np.intp)
    ix2 = np.minimum(np.ceil(x2), fm.width).astype(np.intp)
    iy2 = np.minimum(np.ceil(y2), fm.height).astype(np.intp)
    # A box whose corners round together covers no cell: pool one cell, then
    # zero its row.
    empty = (ix2 <= ix1) | (iy2 <= iy1)
    fm.range_max(pool_h, pool_w).pool(iy1, np.maximum(iy2, iy1 + 1),
                                      ix1, np.maximum(ix2, ix1 + 1),
                                      pool_h, pool_w, feats[:, :d])
    feats[empty, :d] = 0.0
    return feats
