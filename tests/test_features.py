import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from griddet import features
from griddet.boxes import Box, boxes_to_array
from griddet.config import ExperimentConfig
from griddet.detect import detect, move_boxes
from griddet.features import (FEATURE_DIM, BoxOutsideImageError,
                              FeatureExtractor, FeatureMap,
                              build_roi_features)
from griddet.grid import GridSpec, grid_array


def reference_features(image):
    """Scalar reference for the default extractor: intensity + central
    differences (one-sided at the borders)."""
    h, w = image.shape
    gx = np.zeros_like(image)
    gy = np.zeros_like(image)
    for y in range(h):
        for x in range(w):
            if 0 < x < w - 1:
                gx[y, x] = (image[y, x + 1] - image[y, x - 1]) / 2
            elif x == 0:
                gx[y, x] = image[y, 1] - image[y, 0] if w > 1 else 0
            else:
                gx[y, x] = image[y, -1] - image[y, -2]
            if 0 < y < h - 1:
                gy[y, x] = (image[y + 1, x] - image[y - 1, x]) / 2
            elif y == 0:
                gy[y, x] = image[1, x] - image[0, x] if h > 1 else 0
            else:
                gy[y, x] = image[-1, x] - image[-2, x]
    return np.stack([image, gx, gy])


def pool_one(data, box, pool_h=6, pool_w=6):
    """The pooled values of one box on a map of data, without box
    coordinates."""
    fm = FeatureMap(data, pool_h, pool_w)
    return build_roi_features(fm, boxes_to_array([box]))[0, :-4]


def test_constant_image_has_zero_gradients():
    fm = FeatureExtractor().compute_global_features(np.zeros((8, 8)))
    assert fm.channels == 3
    assert np.all(fm.data[1] == 0)
    assert np.all(fm.data[2] == 0)


def test_ramp_image_unit_horizontal_gradient():
    image = np.tile(np.arange(16, dtype=float), (3, 1))
    fm = FeatureExtractor().compute_global_features(image)
    assert np.allclose(fm.data[1][:, 1:-1], 1.0)
    assert np.allclose(fm.data[2], 0.0)


def test_matches_scalar_reference_on_fixed_image():
    rng = np.random.default_rng(42)
    image = rng.uniform(0, 1, size=(8, 8))
    fm = FeatureExtractor().compute_global_features(image)
    assert np.allclose(fm.data, reference_features(image), atol=1e-12)


def test_call_counter_increments():
    ext = FeatureExtractor()
    image = np.zeros((4, 4))
    assert ext.call_count == 0
    ext.compute_global_features(image)
    ext.compute_global_features(image)
    assert ext.call_count == 2


def test_roi_pool_single_cell():
    data = np.arange(16, dtype=float).reshape(1, 4, 4)
    v = pool_one(data, Box.from_corners(1, 2, 2, 3), pool_h=1, pool_w=1)
    assert v.shape == (1,)
    assert v[0] == data[0, 2, 1]


def test_roi_pool_uniform_image():
    v = pool_one(np.full((2, 10, 10), 3.5), Box.from_corners(1, 1, 8, 9),
                 pool_h=3, pool_w=3)
    assert np.all(v == 3.5)


def test_roi_pool_2x2_hand_enumeration():
    data = np.arange(1, 17, dtype=float).reshape(1, 4, 4)
    v = pool_one(data, Box.from_corners(0, 0, 4, 4), pool_h=2, pool_w=2)
    assert v.tolist() == [6, 8, 14, 16]


def test_roi_pool_outside_raises():
    with pytest.raises(BoxOutsideImageError):
        pool_one(np.zeros((1, 4, 4)), Box(10, 10, 2, 2))


def test_roi_pool_length_constant():
    rng = np.random.default_rng(1)
    data = rng.uniform(size=(3, 20, 20))
    sizes = set()
    for _ in range(10):
        b = Box(*rng.uniform(2, 18, 2), *rng.uniform(0.5, 15, 2))
        sizes.add(pool_one(data, b).shape)
    assert sizes == {(3 * 6 * 6,)}


def test_roi_pool_monotone_under_nesting():
    rng = np.random.default_rng(9)
    for _ in range(20):
        data = rng.uniform(size=(2, 12, 12))
        full = pool_one(data, Box.from_corners(0, 0, 12, 12), 2, 2)
        half = pool_one(data, Box.from_corners(0, 0, 6, 6), 1, 1)
        # The half-image box nests inside the full image: its single-bin max
        # cannot exceed the max over all full-image bins, per channel.
        full_c = full.reshape(2, 4).max(axis=1)
        assert np.all(half <= full_c + 1e-15)


def test_build_roi_features_appends_coords():
    fm = FeatureMap(np.zeros((3, 10, 10)))
    feats = build_roi_features(fm, np.array([[5.0, 5.0, 4.0, 2.0]]))
    assert feats.shape == (1, FEATURE_DIM)
    assert feats[0, -4:].tolist() == [0.5, 0.5, 0.4, 0.2]


def test_subpixel_box_pools_zeros():
    v = pool_one(np.ones((1, 10, 10)), Box(5.5, 5.5, 0.1, 0.1), 2, 2)
    # A sub-pixel box still covers one cell after floor/ceil discretization.
    assert v.shape == (4,)


def test_degenerate_box_pools_zeros():
    # The corners of a 1e-20 wide box round to the same float: no cell.
    v = pool_one(np.ones((2, 10, 10)), Box(5.0, 5.0, 1e-20, 1e-20), 2, 2)
    assert v.tolist() == [0.0] * 8


def test_roi_pool_outside_error_names_box_and_map():
    fm = FeatureMap(np.zeros((1, 4, 6)))
    boxes = np.array([[1.0, 1.0, 2.0, 2.0], [10.0, 1.0, 2.0, 2.0]])
    with pytest.raises(BoxOutsideImageError, match="6x4 feature map") as info:
        build_roi_features(fm, boxes)
    assert "box row 1 [10.0, 1.0, 2.0, 2.0]" in str(info.value)


def reference_roi_features(data, boxes, pool_h, pool_w):
    """Brute force from roi_pool's docstring: clip the box's corner form to
    the cells, split it into bins [floor(i*N/p), ceil((i+1)*N/p)) per axis,
    take each bin's per-channel max, then append cx/W, cy/H, w/W, h/H."""
    c, h, w = data.shape
    rows = []
    for box in boxes:
        x1, y1, x2, y2 = box.corners()
        ix1, iy1 = max(math.floor(x1), 0), max(math.floor(y1), 0)
        ix2, iy2 = min(math.ceil(x2), w), min(math.ceil(y2), h)
        nh, nw = iy2 - iy1, ix2 - ix1
        pooled = np.zeros((c, pool_h, pool_w))
        for ch in range(c):
            for i in range(pool_h):
                for j in range(pool_w):
                    if nh <= 0 or nw <= 0:
                        continue
                    cells = [data[ch, y, x]
                             for y in range(iy1 + (i * nh) // pool_h,
                                            iy1 - (-(i + 1) * nh // pool_h))
                             for x in range(ix1 + (j * nw) // pool_w,
                                            ix1 - (-(j + 1) * nw // pool_w))]
                    pooled[ch, i, j] = max(cells)
        rows.append(np.concatenate(
            [pooled.ravel(), [box.cx / w, box.cy / h, box.w / w, box.h / h]]))
    return np.array(rows).reshape(len(boxes), c * pool_h * pool_w + 4)


# Bin lengths on both sides of the base-3 level edges; they need 1, 2 or 3
# windows per axis (ceil(L / 3**floor(log3 L))).
EDGE_LENGTHS = (1, 2, 3, 8, 9, 26, 27)


@st.composite
def aligned_span(draw, n: int, pool: int):
    """(start, end) of a cell-aligned span of `pool` bins, each of one length
    from EDGE_LENGTHS that fits in n cells (the whole axis if none fits)."""
    fits = [length for length in EDGE_LENGTHS if pool * length <= n]
    if not fits:
        return 0, n
    size = pool * draw(st.sampled_from(fits))
    start = draw(st.integers(0, n - size))
    return start, start + size


@st.composite
def aligned_box(draw, h: int, w: int, pool_h: int, pool_w: int):
    (y1, y2), (x1, x2) = draw(aligned_span(h, pool_h)), draw(aligned_span(w, pool_w))
    return Box.from_corners(x1, y1, x2, y2)


@st.composite
def pooling_cases(draw):
    # Sides of 27 and 55 cells fit bins of 26 and 27 cells in 1 or 2 bins.
    side = st.integers(1, 40) | st.sampled_from((27, 55))
    c, h, w = draw(st.integers(1, 3)), draw(side), draw(side)
    data = draw(arrays(np.float64, (c, h, w),
                       elements=st.floats(-1e6, 1e6, allow_nan=False)))
    # No negative zeros: which of -0.0 and 0.0 a max returns is unspecified.
    data = data + 0.0
    pool_h, pool_w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    # Centres inside the map, so every box meets it; sides from sub-pixel to
    # three times the map, so boxes hang off the map or cover all of it.
    box = st.builds(Box, st.floats(0, w, exclude_min=True, exclude_max=True),
                    st.floats(0, h, exclude_min=True, exclude_max=True),
                    st.floats(1e-3, 3 * w), st.floats(1e-3, 3 * h))
    boxes = draw(st.lists(box | aligned_box(h, w, pool_h, pool_w),
                          max_size=12))
    return data, pool_h, pool_w, boxes


@settings(deadline=None, max_examples=200)
@given(pooling_cases())
def test_build_roi_features_matches_brute_force_bytes(case):
    data, pool_h, pool_w, boxes = case
    feats = build_roi_features(FeatureMap(data, pool_h, pool_w),
                               boxes_to_array(boxes))
    expected = reference_roi_features(data, boxes, pool_h, pool_w)
    assert feats.shape == expected.shape
    assert feats.tobytes() == expected.tobytes()


def test_extractor_maps_pool_like_the_reference():
    rng = np.random.default_rng(5)
    image = rng.uniform(size=(37, 53))
    fm = FeatureExtractor().compute_global_features(image)
    boxes = [Box(*rng.uniform(1, 36, 2), *rng.uniform(0.2, 80, 2))
             for _ in range(50)]
    expected = reference_roi_features(fm.data, boxes, 6, 6)
    assert expected.shape == (50, FEATURE_DIM)
    assert build_roi_features(fm, boxes_to_array(boxes)).tobytes() == \
        expected.tobytes()


def test_hand_built_map_pools_without_extractor():
    data = np.arange(60, dtype=float).reshape(1, 6, 10)
    fm = FeatureMap(data, 2, 3)
    assert fm.data.tobytes() == data.tobytes()
    boxes = [Box(5, 3, 10, 6), Box(2.5, 1.5, 3, 2)]
    assert build_roi_features(fm, boxes_to_array(boxes)).tobytes() == \
        reference_roi_features(data, boxes, 2, 3).tobytes()


def test_empty_box_list_gives_empty_rows():
    fm = FeatureExtractor().compute_global_features(np.zeros((8, 8)))
    feats = build_roi_features(fm, np.zeros((0, 4)))
    assert feats.shape == (0, FEATURE_DIM)


def test_previous_rows_are_copied_and_only_changed_rows_pooled(monkeypatch):
    rng = np.random.default_rng(8)
    fm = FeatureExtractor().compute_global_features(
        rng.uniform(size=(40, 32)))
    boxes = grid_array(GridSpec((2, 4), (0.7, 0.5)), 32, 40)
    fresh = build_roi_features(fm, boxes)
    # Stand-in previous features show which rows were copied.
    marked = np.full_like(fresh, 7.0)
    moved = boxes.copy()
    rows = [1, 4, len(boxes) - 1]
    moved[rows] = move_boxes(boxes[rows], rng.normal(0, 0.3, (3, 4)), 32, 40)
    pooled = []
    pool = FeatureMap.pool

    def spy(self, y0, y1, x0, x1, out):
        pooled.append(len(y0))
        pool(self, y0, y1, x0, x1, out)
    monkeypatch.setattr(FeatureMap, "pool", spy)
    got = build_roi_features(fm, moved, (marked, rows))
    assert pooled == [3]
    want = marked.copy()
    want[:, -4:] = fresh[:, -4:]
    want[rows] = build_roi_features(fm, moved[rows])
    assert got.tobytes() == want.tobytes()
    # With the true previous features, the bits of pooling every row.
    assert build_roi_features(fm, moved, (fresh, rows)).tobytes() == \
        build_roi_features(fm, moved).tobytes()
    assert pooled[-2:] == [3, len(boxes)]
    # No row listed pools nothing; every row listed pools them all in one
    # call, whatever the earlier features.
    all_moved = build_roi_features(fm, moved)
    want = fresh.copy()
    want[:, -4:] = all_moved[:, -4:]
    assert build_roi_features(fm, moved, (fresh, [])).tobytes() == \
        want.tobytes()
    assert pooled[-1] == len(boxes)
    assert build_roi_features(
        fm, moved, (marked, np.arange(len(boxes)))).tobytes() == \
        all_moved.tobytes()
    assert pooled[-2:] == [len(boxes), len(boxes)]


def test_unchanged_rows_are_still_checked_against_the_map():
    fm = FeatureExtractor().compute_global_features(np.ones((10, 10)))
    boxes = np.array([[5.0, 5.0, 4.0, 4.0], [30.0, 5.0, 4.0, 4.0]])
    with pytest.raises(BoxOutsideImageError, match="box row 1"):
        build_roi_features(fm, boxes, (np.zeros((2, FEATURE_DIM)), []))


def test_table_built_once_per_global_features_call(monkeypatch):
    builds = []

    class CountingMap(features.FeatureMap):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(features, "FeatureMap", CountingMap)
    rng = np.random.default_rng(2)
    ext = FeatureExtractor()
    fm = ext.compute_global_features(rng.uniform(size=(32, 32)))
    for _ in range(3):
        build_roi_features(fm, np.array([[16.0, 16, 20, 12], [4, 4, 2, 2]]))
        build_roi_features(fm, np.array([[10.0, 10, 8, 8]]))
    assert len(builds) == 1
    # One detection pass of five steps pools from one table.
    detect(rng.uniform(size=(32, 32)), GridSpec((2,), (0.5,)),
           lambda feats, boxes, gi: np.full((len(boxes), 1, 4), 0.1),
           lambda feats, boxes, gi: np.tile([0.0, 1.0], (len(boxes), 1)),
           s_test=5, extractor=ext)
    assert len(builds) == 2


def floor_log3(n: int) -> int:
    return len(np.base_repr(n, 3)) - 1


def test_level_is_exact_floor_log3():
    ns = sorted(({3 ** k + d for k in range(40) for d in (-1, 0, 1)}
                 | set(range(1, 100))) - {0})
    expected = [floor_log3(n) for n in ns]
    assert features._level(np.array(ns)).tolist() == expected
    assert [int(features._level(n)) for n in ns] == expected


@pytest.mark.parametrize("length", EDGE_LENGTHS + (4, 6, 10, 18, 28))
@pytest.mark.parametrize("pool", (1, 2, 3))
def test_edge_bin_lengths_take_their_window_count(length, pool):
    n = pool * length
    level, _, need = features._window_table(n, pool)
    side = 3 ** floor_log3(length)
    assert level[n].tolist() == [floor_log3(length)] * pool
    assert need[n] == -(-length // side)
    rng = np.random.default_rng(length * 10 + pool)
    data = rng.uniform(-1, 1, size=(2, n + 9, n + 7))
    boxes = [Box.from_corners(5, 5, 5 + n, 5 + n),
             Box.from_corners(2, 7, 2 + n, 7 + n)]
    feats = build_roi_features(FeatureMap(data, pool, pool),
                               boxes_to_array(boxes))
    assert feats.tobytes() == \
        reference_roi_features(data, boxes, pool, pool).tobytes()


def reference_windows(start, end, pool: int):
    """Per bin of each cell range: the table level (m, pool) and the window
    starts (k, m, pool), k the most windows any of the bins needs.

    Bin i of a range of n cells spans [floor(i*n/p), ceil((i+1)*n/p)). A bin
    needing fewer than k windows repeats its last one.
    """
    n = (end - start)[:, None]
    i = np.arange(pool)
    r0 = start[:, None] + (i * n) // pool
    r1 = start[:, None] - ((-(i + 1) * n) // pool)
    level = features._level(r1 - r0)
    side = features._SIDES[level]
    k = int((-((r0 - r1) // side)).max())
    return level, np.minimum(r0 + side * np.arange(k)[:, None, None], r1 - side)


@pytest.mark.parametrize("pool", range(1, 8))
def test_window_table_matches_the_per_range_windows(pool):
    lengths = sorted(set(range(1, 129)) | {pool * n for n in EDGE_LENGTHS})
    level, starts, need = features._window_table(lengths[-1], pool)
    for n in lengths:
        for s in (0, 5):
            ref_level, ref_starts = reference_windows(np.array([s]),
                                                      np.array([s + n]), pool)
            assert level[n].tolist() == ref_level[0].tolist()
            assert need[n] == len(ref_starts)
            assert (s + starts[n, :need[n]]).tolist() == \
                ref_starts[:, 0].tolist()


class _CountingTable(np.ndarray):
    """A range-max table that records the rows of every lookup's gather."""

    gathered: list

    def take(self, index, *args, **kwargs):
        self.gathered.append(len(index))
        return np.asarray(self).take(index, *args, **kwargs)


def test_rows_take_their_own_window_counts():
    per_chunk = features._CHUNK // (3 * 6 * 6)  # 3 channels of 6x6 bins
    rng = np.random.default_rng(3)
    data = rng.uniform(size=(3, 64, 64))
    # Bins of 3 cells need 1 window per axis, of 2 cells 2 and of 8 cells 3;
    # (3, 8) bins need 1 window down and 3 across. Interleaved over one and a
    # half chunks, so both chunks mix every count.
    lengths = [(3, 3), (2, 2), (8, 8), (3, 8)]
    picks = [lengths[j % 4] for j in range(per_chunk + per_chunk // 2)]
    boxes = []
    for ly, lx in picks:
        y = int(rng.integers(0, 64 - 6 * ly + 1))
        x = int(rng.integers(0, 64 - 6 * lx + 1))
        boxes.append(Box.from_corners(x, y, x + 6 * lx, y + 6 * ly))
    fm = FeatureMap(data)
    fm.flat = fm.flat.view(_CountingTable)
    fm.flat.gathered = []
    feats = build_roi_features(fm, boxes_to_array(boxes))
    assert feats.tobytes() == \
        reference_roi_features(data, boxes, 6, 6).tobytes()
    # Lookup (ky, kx) gathers the rows whose count k exceeds max(ky, kx).
    need = {(3, 3): 1, (2, 2): 2, (8, 8): 3, (3, 8): 3}
    expected = []
    for lo in range(0, len(picks), per_chunk):
        k = [need[p] for p in picks[lo:lo + per_chunk]]
        expected += [sum(v > max(ky, kx) for v in k)
                     for ky in range(3) for kx in range(3)]
    assert fm.flat.gathered == expected


def test_default_map_builds_three_by_three_slabs():
    fm = FeatureExtractor().compute_global_features(np.zeros((128, 128)))
    assert fm.levels == (3, 3)
    assert fm.flat.shape == (9 * 128 * 128, 3)
    assert fm.flat.nbytes == 9 * 128 * 128 * 3 * 8  # 3.375 MiB


def slab_starts(fm, a, b):
    """The valid window starts of slab (a, b), (H - 3**a + 1, W - 3**b + 1,
    C): the part of the full-stride block that pooling may read."""
    h, w = fm.height, fm.width
    block = fm.flat.reshape(*fm.levels, h, w, fm.channels)[a, b]
    return block[:h - 3 ** a + 1, :w - 3 ** b + 1]


def brute_window_max(data, a, b):
    """Per window start (y, x), the per-channel max over the 3**a x 3**b
    window there, by direct loops: (H - 3**a + 1, W - 3**b + 1, C)."""
    c, h, w = data.shape
    sy, sx = 3 ** a, 3 ** b
    out = np.empty((h - sy + 1, w - sx + 1, c))
    for y in range(h - sy + 1):
        for x in range(w - sx + 1):
            out[y, x] = data[:, y:y + sy, x:x + sx].max(axis=(1, 2))
    return out


def assert_slabs_are_window_maxima(fm, data):
    for a in range(fm.levels[0]):
        for b in range(fm.levels[1]):
            assert slab_starts(fm, a, b).tobytes() == \
                brute_window_max(data, a, b).tobytes(), (a, b)


@pytest.mark.parametrize("shape,pool,levels", [
    ((20, 30), (1, 1), (3, 4)), ((20, 30), (6, 6), (2, 2)),
    ((4, 6), (1, 1), (2, 2)), ((4, 6), (2, 3), (2, 2)),
    ((1, 1), (1, 1), (1, 1)), ((27, 2), (1, 1), (4, 1))])
def test_slab_starts_are_the_window_maxima(shape, pool, levels):
    rng = np.random.default_rng(sum(shape))
    data = rng.uniform(-1, 1, size=(2,) + shape)
    fm = FeatureMap(data, *pool)
    assert fm.levels == levels
    assert_slabs_are_window_maxima(fm, data)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 40),
       st.integers(1, 7), st.integers(1, 7), st.data())
def test_slab_starts_are_the_window_maxima_on_any_map(c, h, w, pool_h,
                                                      pool_w, data):
    values = data.draw(arrays(np.float64, (c, h, w),
                              elements=st.floats(-1e6, 1e6, allow_nan=False)))
    values = values + 0.0  # no negative zeros, as in pooling_cases
    assert_slabs_are_window_maxima(FeatureMap(values, pool_h, pool_w), values)


class _DecodingTable(np.ndarray):
    """A range-max table that records every index its lookups gather."""

    gathered: list

    def take(self, index, *args, **kwargs):
        self.gathered.append(np.array(index))
        return np.asarray(self).take(index, *args, **kwargs)


@pytest.mark.parametrize("shape", ((128, 128), (37, 53), (4, 6)))
def test_lookups_read_only_valid_window_starts(shape):
    h, w = shape
    rng = np.random.default_rng(h + w)
    data = rng.uniform(-1, 1, size=(3, h, w))
    grid = grid_array(ExperimentConfig().grid_test, w, h)
    # Boxes after regression steps, and boxes flush with the right and
    # bottom edges, whose last bins take the last valid starts.
    moved = move_boxes(grid, rng.normal(0, 0.5, size=grid.shape), w, h)
    edge = np.array([[w - bw / 2, h - bh / 2, bw, bh]
                     for bw in (1, 2, w / 2, w) for bh in (1, 3, h / 3, h)])
    boxes = np.concatenate([grid, moved, edge])
    fm = FeatureMap(data)
    fm.flat = fm.flat.view(_DecodingTable)
    fm.flat.gathered = []
    feats = build_roi_features(fm, boxes)
    assert feats.tobytes() == reference_roi_features(
        data, [Box(*row) for row in boxes.tolist()], 6, 6).tobytes()
    index = np.concatenate([i.ravel() for i in fm.flat.gathered])
    ly, lx = fm.levels
    a, b = index // (lx * h * w), index // (h * w) % lx
    y, x = index // w % h, index % w
    assert np.all(a < ly)
    assert np.all(y <= h - 3 ** a) and np.all(x <= w - 3 ** b)
    # Pooling reads the top levels and the last valid starts.
    assert a.max() == ly - 1 and b.max() == lx - 1
    assert np.any(y == h - 3 ** a) and np.any(x == w - 3 ** b)


def _max3(src: np.ndarray, step: int, axis: int, out: np.ndarray):
    """out = max of the three slices of src along axis starting at k * step:
    the level builder of the packed table."""
    n = out.shape[axis]
    lead = (slice(None),) * axis
    part = lambda k: src[lead + (slice(k * step, k * step + n),)]
    np.maximum(part(0), part(1), out=out)
    np.maximum(out, part(2), out=out)


def reference_pool(fm, y0, y1, x0, x1, out):
    """FeatureMap.pool on the channel-major packed table that the
    channel-last full-stride one replaced: slab (a, b) of shape (C, rows[a],
    cols[b]), with rows[a] = H - 3**a + 1 and cols[b] = W - 3**b + 1 window
    starts, at value offset offsets[a, b] of one flat buffer, built by _max3
    on strided slices; one gather of single values per (box, channel, bin)
    and lookup, in chunks of 1 << 14 values."""
    c = fm.channels
    rows = fm.height + 1 - 3 ** np.arange(fm.levels[0])
    cols = fm.width + 1 - 3 ** np.arange(fm.levels[1])
    sizes = c * np.outer(rows, cols)
    offsets = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    flat = np.empty(int(sizes.sum()))

    def slab(a, b):
        start = offsets[a, b]
        return flat[start:start + sizes[a, b]].reshape(c, rows[a], cols[b])

    slab(0, 0)[...] = fm.data
    for a in range(fm.levels[0]):
        if a:
            _max3(slab(a - 1, 0), 3 ** (a - 1), 1, slab(a, 0))
        for b in range(1, fm.levels[1]):
            _max3(slab(a, b - 1), 3 ** (b - 1), 2, slab(a, b))
    chan = np.arange(c)[:, None, None]
    chunk = max(1, (1 << 14) // out.shape[1])
    for lo in range(0, len(y0), chunk):
        hi = min(lo + chunk, len(y0))
        ay, ys = reference_windows(y0[lo:hi], y1[lo:hi], fm.pool_h)
        ax, xs = reference_windows(x0[lo:hi], x1[lo:hi], fm.pool_w)
        stride = cols[ax][:, None, None, :]
        first_slab = offsets[ay[:, :, None], ax[:, None, :]]
        plane = rows[ay][:, None, :, None] * stride
        first = first_slab[:, None] + chan * plane
        index = np.empty_like(first)
        values = np.empty(first.shape).reshape(hi - lo, -1)
        pooled = out[lo:hi]
        for ky, y in enumerate(ys):
            row = y[:, None, :, None] * stride + first
            for kx, x in enumerate(xs):
                np.add(row, x[:, None, None, :], out=index)
                flat.take(index.reshape(values.shape), out=values)
                if ky or kx:
                    np.maximum(pooled, values, out=pooled)
                else:
                    pooled[...] = values


def reference_roi_pool(fm, boxes):
    """build_roi_features with reference_pool in place of FeatureMap.pool."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FeatureMap, "pool", reference_pool)
        return build_roi_features(fm, boxes)


@pytest.mark.parametrize("channels", (1, 2, 3))
def test_pool_matches_the_channel_major_reference(channels):
    rng = np.random.default_rng(channels)
    data = rng.uniform(-1, 1, size=(channels, 128, 128))
    grid = grid_array(ExperimentConfig().grid_test, 128, 128)
    # Boxes after a few regression steps: shifted, rescaled and clipped.
    moved = grid
    for _ in range(3):
        moved = move_boxes(moved, rng.normal(0, 0.3, size=moved.shape),
                           128, 128)
    assert not np.array_equal(moved, grid)
    fm = FeatureMap(data)
    for boxes in (grid, moved):
        assert build_roi_features(fm, boxes).tobytes() == \
            reference_roi_pool(fm, boxes).tobytes()


def test_a_test_grid_pass_is_one_chunk(monkeypatch):
    writes = []

    class RecordingOut(np.ndarray):
        """A pooling output that records the rows of every indexed write."""

        def __setitem__(self, key, value):
            if isinstance(key, np.ndarray):
                writes.append(len(key))
            super().__setitem__(key, value)

    pool = FeatureMap.pool

    def spy(self, y0, y1, x0, x1, out):
        pool(self, y0, y1, x0, x1, out.view(RecordingOut))

    monkeypatch.setattr(FeatureMap, "pool", spy)
    grid = grid_array(ExperimentConfig().grid_test, 128, 128)
    assert len(grid) == 197
    fm = FeatureExtractor().compute_global_features(np.zeros((128, 128)))
    build_roi_features(fm, grid)
    assert writes == [197]  # one chunk, scattered back in one write


def test_data_is_a_channel_major_view_of_the_channel_last_table():
    rng = np.random.default_rng(4)
    channels = rng.uniform(size=(3, 20, 30))
    fm = FeatureMap(channels)
    assert fm.data.shape == (3, 20, 30)
    assert fm.flat.shape[1] == 3
    assert np.shares_memory(fm.data, fm.flat)
    assert fm.data.tobytes() == channels.tobytes()
    assert fm.flat[:20 * 30].tobytes() == \
        channels.transpose(1, 2, 0).tobytes()
