import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from griddet import features
from griddet.boxes import Box, boxes_to_array
from griddet.detect import detect
from griddet.features import (BoxOutsideImageError, ExtractorConfig,
                              FeatureExtractor, FeatureMap,
                              build_roi_features)
from griddet.grid import GridSpec


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


def pool_one(fm, box, pool_h=6, pool_w=6):
    """The pooled values of one box, without box coordinates."""
    cfg = dataclasses.replace(config_for(fm.channels, pool_h, pool_w),
                              include_box_coords=False)
    return build_roi_features(fm, boxes_to_array([box]), cfg)[0]


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


def test_extra_filter_channels():
    cfg = ExtractorConfig(extra_filters=(((0.25, 0.25), (0.25, 0.25)),))
    fm = FeatureExtractor(cfg).compute_global_features(np.ones((6, 6)))
    assert fm.channels == 4
    assert np.allclose(fm.data[3], 1.0)


def test_call_counter_increments():
    ext = FeatureExtractor()
    image = np.zeros((4, 4))
    assert ext.call_count == 0
    ext.compute_global_features(image)
    ext.compute_global_features(image)
    assert ext.call_count == 2


def test_roi_pool_single_cell():
    data = np.arange(16, dtype=float).reshape(1, 4, 4)
    fm = FeatureMap(data)
    v = pool_one(fm, Box.from_corners(1, 2, 2, 3), pool_h=1, pool_w=1)
    assert v.shape == (1,)
    assert v[0] == data[0, 2, 1]


def test_roi_pool_uniform_image():
    fm = FeatureMap(np.full((2, 10, 10), 3.5))
    v = pool_one(fm, Box.from_corners(1, 1, 8, 9), pool_h=3, pool_w=3)
    assert np.all(v == 3.5)


def test_roi_pool_2x2_hand_enumeration():
    data = np.arange(1, 17, dtype=float).reshape(1, 4, 4)
    fm = FeatureMap(data)
    v = pool_one(fm, Box.from_corners(0, 0, 4, 4), pool_h=2, pool_w=2)
    assert v.tolist() == [6, 8, 14, 16]


def test_roi_pool_outside_raises():
    fm = FeatureMap(np.zeros((1, 4, 4)))
    with pytest.raises(BoxOutsideImageError):
        pool_one(fm, Box(10, 10, 2, 2))


def test_roi_pool_length_constant():
    rng = np.random.default_rng(1)
    fm = FeatureMap(rng.uniform(size=(3, 20, 20)))
    sizes = set()
    for _ in range(10):
        b = Box(*rng.uniform(2, 18, 2), *rng.uniform(0.5, 15, 2))
        sizes.add(pool_one(fm, b).shape)
    assert sizes == {(3 * 6 * 6,)}


def test_roi_pool_monotone_under_nesting():
    rng = np.random.default_rng(9)
    for _ in range(20):
        fm = FeatureMap(rng.uniform(size=(2, 12, 12)))
        full = pool_one(fm, Box.from_corners(0, 0, 12, 12), 2, 2)
        half = pool_one(fm, Box.from_corners(0, 0, 6, 6), 1, 1)
        # The half-image box nests inside the full image: its single-bin max
        # cannot exceed the max over all full-image bins, per channel.
        full_c = full.reshape(2, 4).max(axis=1)
        assert np.all(half <= full_c + 1e-15)


def test_build_roi_features_appends_coords():
    fm = FeatureMap(np.zeros((3, 10, 10)))
    cfg = ExtractorConfig()
    feats = build_roi_features(fm, np.array([[5.0, 5.0, 4.0, 2.0]]), cfg)
    assert feats.shape == (1, cfg.feature_dim)
    assert feats[0, -4:].tolist() == [0.5, 0.5, 0.4, 0.2]


def test_subpixel_box_pools_zeros():
    fm = FeatureMap(np.ones((1, 10, 10)))
    v = pool_one(fm, Box(5.5, 5.5, 0.1, 0.1), 2, 2)
    # A sub-pixel box still covers one cell after floor/ceil discretization.
    assert v.shape == (4,)


def test_degenerate_box_pools_zeros():
    fm = FeatureMap(np.ones((2, 10, 10)))
    # The corners of a 1e-20 wide box round to the same float: no cell.
    v = pool_one(fm, Box(5.0, 5.0, 1e-20, 1e-20), 2, 2)
    assert v.tolist() == [0.0] * 8


def test_roi_pool_outside_error_names_box_and_map():
    fm = FeatureMap(np.zeros((1, 4, 6)))
    boxes = np.array([[1.0, 1.0, 2.0, 2.0], [10.0, 1.0, 2.0, 2.0]])
    with pytest.raises(BoxOutsideImageError, match="6x4 feature map") as info:
        build_roi_features(fm, boxes, ExtractorConfig(
            include_gradients=False, include_box_coords=False))
    assert "box row 1 [10.0, 1.0, 2.0, 2.0]" in str(info.value)


def config_for(channels: int, pool_h: int, pool_w: int) -> ExtractorConfig:
    """An extractor config whose feature maps have the given channel count."""
    return ExtractorConfig(include_gradients=channels == 3,
                           extra_filters=(((1.0,),),) if channels == 2 else (),
                           pool_h=pool_h, pool_w=pool_w)


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
    cfg = config_for(data.shape[0], pool_h, pool_w)
    feats = build_roi_features(FeatureMap(data), boxes_to_array(boxes), cfg)
    expected = reference_roi_features(data, boxes, pool_h, pool_w)
    assert feats.shape == expected.shape
    assert feats.tobytes() == expected.tobytes()


def test_extractor_maps_pool_like_the_reference():
    rng = np.random.default_rng(5)
    image = rng.uniform(size=(37, 53))
    cfg = ExtractorConfig(extra_filters=(((-1.0, 0.5), (0.25, 1.0)),),
                          pool_h=3, pool_w=5)
    fm = FeatureExtractor(cfg).compute_global_features(image)
    boxes = [Box(*rng.uniform(1, 36, 2), *rng.uniform(0.2, 80, 2))
             for _ in range(50)]
    expected = reference_roi_features(fm.data, boxes, 3, 5)
    assert build_roi_features(fm, boxes_to_array(boxes), cfg).tobytes() == \
        expected.tobytes()


def test_hand_built_map_pools_without_extractor():
    data = np.arange(60, dtype=float).reshape(1, 6, 10)
    fm = FeatureMap(data)
    assert fm.table is None
    boxes = [Box(5, 3, 10, 6), Box(2.5, 1.5, 3, 2)]
    cfg = config_for(1, 2, 3)
    assert build_roi_features(fm, boxes_to_array(boxes), cfg).tobytes() == \
        reference_roi_features(data, boxes, 2, 3).tobytes()


def test_empty_box_list_gives_empty_rows():
    cfg = ExtractorConfig()
    fm = FeatureExtractor(cfg).compute_global_features(np.zeros((8, 8)))
    feats = build_roi_features(fm, np.zeros((0, 4)), cfg)
    assert feats.shape == (0, cfg.feature_dim)


def test_table_built_once_per_global_features_call(monkeypatch):
    builds = []

    class CountingTable(features.RangeMaxTable):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(features, "RangeMaxTable", CountingTable)
    rng = np.random.default_rng(2)
    ext = FeatureExtractor()
    fm = ext.compute_global_features(rng.uniform(size=(32, 32)))
    for _ in range(3):
        build_roi_features(fm, np.array([[16.0, 16, 20, 12], [4, 4, 2, 2]]),
                           ext.config)
        pool_one(fm, Box(10, 10, 8, 8))
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
    level, starts = features._windows(np.array([5]), np.array([5 + n]), pool)
    side = 3 ** floor_log3(length)
    assert level.tolist() == [[floor_log3(length)] * pool]
    assert len(starts) == -(-length // side)
    rng = np.random.default_rng(length * 10 + pool)
    data = rng.uniform(-1, 1, size=(2, n + 9, n + 7))
    boxes = [Box.from_corners(5, 5, 5 + n, 5 + n),
             Box.from_corners(2, 7, 2 + n, 7 + n)]
    cfg = config_for(2, pool, pool)
    feats = build_roi_features(FeatureMap(data), boxes_to_array(boxes), cfg)
    assert feats.tobytes() == \
        reference_roi_features(data, boxes, pool, pool).tobytes()


def test_chunks_take_their_own_lookup_counts(monkeypatch):
    cfg = ExtractorConfig()  # 3 channels of 6x6 bins
    per_chunk = features._CHUNK // (cfg.channels * cfg.pool_h * cfg.pool_w)
    rng = np.random.default_rng(3)
    data = rng.uniform(size=(3, 64, 64))
    # Three chunks of boxes with bins of 3 cells (1 window per axis), of 3
    # and 8 cells alternating (3 windows), and of 2 cells (2 windows), the
    # last chunk a partial one.
    lengths = ([3] * per_chunk + [(3, 8)[j % 2] for j in range(per_chunk)]
               + [2] * (per_chunk // 2))
    boxes = []
    for length in lengths:
        x, y = rng.integers(0, 64 - 6 * length + 1, size=2).tolist()
        boxes.append(Box.from_corners(x, y, x + 6 * length, y + 6 * length))
    counts = []

    def spy(start, end, pool):
        level, starts = windows(start, end, pool)
        counts.append(len(starts))
        return level, starts

    windows = features._windows
    monkeypatch.setattr(features, "_windows", spy)
    feats = build_roi_features(FeatureMap(data), boxes_to_array(boxes), cfg)
    assert counts == [1, 1, 3, 3, 2, 2]  # (rows, columns) per chunk
    assert feats.tobytes() == \
        reference_roi_features(data, boxes, 6, 6).tobytes()


def test_default_map_builds_three_by_three_slabs():
    fm = FeatureExtractor().compute_global_features(np.zeros((128, 128)))
    table = fm.table
    assert table.levels == (3, 3)
    assert table.rows.tolist() == table.cols.tolist() == [128, 126, 120]
    assert table.offsets.shape == (3, 3)
    assert table.flat.nbytes == 3 * (128 + 126 + 120) ** 2 * 8  # 3.2 MiB
