"""Global feature maps and ROI max-pooling.

The global features play the role of a convolutional backbone: they are
computed once per image, and every box only pools from them. All filters are
fixed; the learning capacity lives entirely in the downstream models.

Pooling reads a base-3 range-max table that is built with the features, once
per image (a 2-d sparse table; Bender & Farach-Colton, "The LCA Problem
Revisited", 2000). The table is channel-last: slab (a, b) holds, for each
cell, the max of every channel over the 3**a x 3**b window whose top-left
corner is that cell, the C channels of a cell side by side; slab (0, 0) is
the map itself. Every slab has the map's full H x W x C stride, so a shift by
s rows or s columns is a shift of one contiguous run: each level is the max
of three shifted runs of the level below, read up to its last valid window
start. A start within 3**b of a row's end mixes in the next row; no bin reads
it. Levels go up to the longest bin that the pool shape can give on the map.
A bin of length L along an axis, with 3**a <= L < 3**(a+1), is covered by
k = ceil(L / 3**a) <= 3 windows of side 3**a, starting at r0, r0 + 3**a and
r0 + 2 * 3**a, each clamped to end at the bin's end. Max is idempotent, so
overlapping windows, and extra windows clamped onto the last, give the bin's
max exactly. The window offsets of every range length on an axis are computed
once per axis size and pool count (_window_table); a range finds its bins'
levels and windows there by its length. A window's cell in the table is a row
term (its slab row a and start row y) plus a column term (its slab column b
and start column x), each cached per range length (_index_terms). All boxes
of a call are pooled together in chunks, one vectorised gather per lookup
that fetches every channel of each bin's cell; each row takes only the
windows its own bins need (at most 3 x 3), the rows sorted by that count so
that each lookup gathers a suffix of them. For a 128x128 map with 3 channels
and 6x6 bins the table has 3 x 3 slabs, 3.375 MiB; a 256x256 map needs 4 x 4
slabs, 24 MiB.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# The feature layout: intensity and x and y gradients, each max-pooled into
# POOL x POOL bins, then the four normalized box coordinates.
POOL = 6
FEATURE_DIM = 3 * POOL * POOL + 4

# Pooled values per chunk of boxes; bounds each pooling temporary to 256 KiB.
# A chunk has a fixed cost (the sort, the window gathers and the index
# set-up) about as large as the lookups of a small chunk, so one chunk holds a
# whole pass over the 197-box test grid.
_CHUNK = 1 << 15

# Window sides 3**k, for every k whose power fits in an int64.
_SIDES = 3 ** np.arange(40, dtype=np.int64)


class BoxOutsideImageError(ValueError):
    """ROI has no intersection with the feature map."""


def _level(n):
    """floor(log3(n)) of positive integers (scalar or array), exactly."""
    return np.searchsorted(_SIDES, n, side="right") - 1


def _levels(n: int, pool: int) -> int:
    """Table levels along an axis of n cells pooled into `pool` bins: enough
    for the longest bin, min(n, ceil(n / pool) + 1) cells."""
    return int(_level(min(n, -(-n // pool) + 1))) + 1


def _max3(run: np.ndarray, src: int, dst: int, step: int, n: int):
    """run[dst:dst + n] = max of the three runs of n values of run starting
    at src, src + step and src + 2 * step."""
    out = run[dst:dst + n]
    np.maximum(run[src:src + n], run[src + step:src + step + n], out=out)
    np.maximum(out, run[src + 2 * step:src + 2 * step + n], out=out)


class FeatureMap:
    """Dense per-pixel features with the base-3 range-max table that pooling
    into pool_h x pool_w bins reads, every slab in one buffer `flat` of shape
    (levels_y * levels_x * H * W, C). Immutable by convention.

    Slab (a, b) is block a * levels_x + b of H * W cells of flat, the
    channel-last view (H, W, C); only its starts y <= H - 3**a and
    x <= W - 3**b are valid windows. Slab (0, 0) is the map itself, exposed
    channel-major as the (C, H, W) view `data`.
    """

    def __init__(self, channels, pool_h: int = POOL, pool_w: int = POOL):
        """Stack channels (a (C, H, W) array or C arrays of (H, W)) into slab
        (0, 0) and build the levels bins of pool_h x pool_w can need. Maps of
        FeatureExtractor pool into POOL x POOL bins, hand-built ones may not."""
        if pool_h < 1 or pool_w < 1:
            raise ValueError("pool dims must be >= 1")
        c, (h, w) = len(channels), channels[0].shape
        self.channels, self.height, self.width = c, h, w
        self.pool_h, self.pool_w = pool_h, pool_w
        self.levels = ly, lx = _levels(h, pool_h), _levels(w, pool_w)
        self.flat = np.empty((ly * lx * h * w, c), dtype=np.float64)
        self.data = np.stack(channels, axis=2,
                             out=self.flat[:h * w].reshape(h, w, c)
                             ).transpose(2, 0, 1)
        # Slab (a, b) starts at value (a * lx + b) * h * w * c of run and is
        # built up to its last valid start, cell (h - 3**a) * w + w - 3**b.
        run, slab = self.flat.reshape(-1), h * w * c
        for a in range(ly):
            for b in range(lx):
                n = ((h - _SIDES[a]) * w + w - _SIDES[b] + 1) * c
                dst = (a * lx + b) * slab
                if b:
                    _max3(run, dst - slab, dst, _SIDES[b - 1] * c, n)
                elif a:
                    _max3(run, dst - lx * slab, dst, _SIDES[a - 1] * w * c, n)

    def pool(self, y0, y1, x0, x1, out: np.ndarray):
        """Write into out (n, C * pool_h * pool_w) the per-channel max of every
        bin of the n cell ranges [y0, y1) x [x0, x1), each non-empty."""
        c, h, w, ph, pw = (self.channels, self.height, self.width,
                           self.pool_h, self.pool_w)
        yterm, yneed = _index_terms(h, ph, w, self.levels[1] * h * w)
        xterm, xneed = _index_terms(w, pw, 1, h * w)
        chunk = max(1, _CHUNK // out.shape[1])
        for lo in range(0, len(y0), chunk):
            hi = min(lo + chunk, len(y0))
            ny, nx = y1[lo:hi] - y0[lo:hi], x1[lo:hi] - x0[lo:hi]
            # Rows in ascending order of their window count k, so that the
            # rows taking lookup (ky, kx), those with k > max(ky, kx), are
            # the suffix from_k[max(ky, kx)]: on each axis a row repeats its
            # last window up to k, which max absorbs.
            need_y, need_x = yneed[ny], xneed[nx]
            k = np.maximum(need_y, need_x)
            order = np.argsort(k, kind="stable")
            from_k = np.searchsorted(k[order], np.arange(3), side="right")
            ys = yterm[ny[order]] + (y0[lo:hi][order] * w)[:, None, None]
            xs = xterm[nx[order]] + x0[lo:hi][order, None, None]
            # Cell index of lookup (ky, kx) of every bin, laid out as (box,
            # bin row, bin column): its row term plus its column term; its C
            # channels are one row of flat. The max of a row's lookups
            # accumulates in acc, then goes to out channel-major, in the
            # rows' own order, in one scatter.
            index = np.empty((hi - lo, ph, pw), dtype=ys.dtype)
            acc = np.empty(index.shape + (c,))                   # (m, ph, pw, C)
            values = np.empty_like(acc)
            for ky in range(need_y.max()):
                for kx in range(need_x.max()):
                    s = from_k[max(ky, kx)]
                    np.add(ys[s:, ky, :, None], xs[s:, kx, None, :],
                           out=index[s:])
                    # Picks are in range by construction; "clip" skips the
                    # buffered copy numpy makes for out= under "raise".
                    if ky or kx:
                        self.flat.take(index[s:], axis=0, out=values[s:],
                                       mode="clip")
                        np.maximum(acc[s:], values[s:], out=acc[s:])
                    else:
                        self.flat.take(index, axis=0, out=acc, mode="clip")
            # Splitting the columns of out is always a view, never a copy.
            out[lo:hi].reshape(hi - lo, c, ph, pw)[order] = \
                acc.transpose(0, 3, 1, 2)


@functools.lru_cache(maxsize=8)
def _window_table(n_max: int, pool: int):
    """Per range length n in 0..n_max pooled into `pool` bins: the table
    level of each bin (n, pool), the starts of its three windows relative to
    the range's start (n, 3, pool) and the most windows any of its bins
    needs (n,); read-only, cached per axis size.

    Bin i of a range of n cells spans [floor(i*n/p), ceil((i+1)*n/p)), of
    length L at level a = floor(log3 L); its windows start at r0, r0 + 3**a
    and r0 + 2 * 3**a, each clamped to end at the bin's end, so a bin needing
    fewer than 3 windows repeats its last one. Row 0 is filler: a pooled
    range is never empty.
    """
    n = np.arange(n_max + 1)[:, None]
    i = np.arange(pool)
    r0 = (i * n) // pool
    r1 = -((-(i + 1) * n) // pool)
    level = _level(np.maximum(r1 - r0, 1))
    side = _SIDES[level]
    starts = np.minimum(r0[:, None] + side[:, None] * np.arange(3)[:, None],
                        (r1 - side)[:, None])
    need = (-((r0 - r1) // side)).max(axis=1)
    for table in (level, starts, need):
        table.flags.writeable = False
    return level, starts, need


@functools.lru_cache(maxsize=8)
def _index_terms(n_max: int, pool: int, cell: int, slab: int):
    """Per range length n in 0..n_max of an axis pooled into `pool` bins: the
    part of each window's table cell index that this axis gives, relative to
    the range's start, (n, 3, pool), and the window counts of _window_table;
    read-only, cached per map shape.

    A window at level a starting r cells into the range adds a * slab + r *
    cell: slab is the cells between the table's consecutive slabs along this
    axis, cell those between consecutive cells along it."""
    level, starts, need = _window_table(n_max, pool)
    terms = level[:, None, :] * slab + starts * cell
    terms.flags.writeable = False
    return terms, need


@dataclass
class FeatureExtractor:
    """Computes global features; keeps an invocation counter for cost checks."""

    call_count: int = 0

    def compute_global_features(self, image: np.ndarray) -> FeatureMap:
        """The feature map of an image: its intensity and x and y gradients
        (central differences, one-sided at the borders), pooled into POOL x
        POOL bins."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2 or image.size == 0:
            raise ValueError("image must be a non-empty 2-d array")
        self.call_count += 1
        gy, gx = np.gradient(image)
        return FeatureMap((image, gx, gy))


def build_roi_features(fm: FeatureMap, boxes: np.ndarray) -> np.ndarray:
    """Max-pool the cells under each row (cx, cy, w, h) of boxes into
    channels * pool_h * pool_w values, then append the normalized box
    coordinates (cx/W, cy/H, w/W, h/H): FEATURE_DIM values for a map of
    FeatureExtractor.

    Each box (corner form, clipped to the map) is divided into pool_h x
    pool_w bins; bin i along an axis of extent N spans cells
    [floor(i*N/p), ceil((i+1)*N/p)), and outputs the per-channel max of its
    cells. A box whose corners round to no cell pools zeros; a box that does
    not meet the map raises BoxOutsideImageError."""
    d = fm.channels * fm.pool_h * fm.pool_w
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    feats = np.zeros((len(boxes), d + 4), dtype=np.float64)
    feats[:, d:] = boxes / (fm.width, fm.height, fm.width, fm.height)
    if not len(boxes):
        return feats
    # Corners as (x, y) columns: lo the top-left, hi the bottom-right.
    half = boxes[:, 2:] / 2.0
    lo, hi = boxes[:, :2] - half, boxes[:, :2] + half
    size = (fm.width, fm.height)
    outside = ((hi <= 0) | (lo >= size)).any(axis=1)
    if outside.any():
        row = int(np.argmax(outside))
        raise BoxOutsideImageError(
            f"box row {row} {boxes[row].tolist()} does not intersect the "
            f"{fm.width}x{fm.height} feature map")
    # Clip in floats, where a huge box cannot overflow the integer cast.
    lo = np.maximum(np.floor(lo), 0).astype(np.intp)
    hi = np.minimum(np.ceil(hi), size).astype(np.intp)
    # A box whose corners round together spans no cell: pool one cell, then
    # zero its row.
    empty = (hi <= lo).any(axis=1)
    hi = np.maximum(hi, lo + 1)
    fm.pool(lo[:, 1], hi[:, 1], lo[:, 0], hi[:, 0], feats[:, :d])
    feats[empty, :d] = 0.0
    return feats
