import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griddet.boxes import (Box, DeltaParams, apply_delta, box_deltas,
                           boxes_to_array, clip_to_image, delta, iou,
                           iou_matrix)


def corner_box(x1, y1, x2, y2):
    return Box.from_corners(x1, y1, x2, y2)


finite_coord = st.floats(-500, 500, allow_nan=False)
side = st.floats(0.01, 300, allow_nan=False)


@st.composite
def boxes(draw):
    return Box(draw(finite_coord), draw(finite_coord), draw(side), draw(side))


def test_box_rejects_degenerate():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 10)
    with pytest.raises(ValueError):
        Box(0, 0, 10, -1)
    with pytest.raises(ValueError):
        Box(float("nan"), 0, 1, 1)
    with pytest.raises(ValueError):
        Box(0, float("inf"), 1, 1)


def test_delta_rejects_nonfinite():
    with pytest.raises(ValueError):
        DeltaParams(0, 0, float("nan"), 0)


def scalar_delta(b, t):
    """The scalar delta formula; raises ValueError where it is not finite."""
    row = ((t[0] - b[0]) / b[2], (t[1] - b[1]) / b[3],
           math.log(t[2] / b[2]), math.log(t[3] / b[3]))
    if not all(math.isfinite(v) for v in row):
        raise ValueError(row)
    return row


# Positive normal sides over the whole exponent range, so that side ratios
# and shifts can overflow, or round to zero before the log.
wide_coord = st.floats(-1e300, 1e300, allow_nan=False)
wide_side = st.floats(1e-300, 1e300, allow_nan=False)
wide_rows = st.lists(st.tuples(*[wide_coord] * 2, *[wide_side] * 2),
                     min_size=1, max_size=6)


@given(wide_rows, wide_rows)
@settings(max_examples=300)
def test_box_deltas_match_scalar_formula_bit_for_bit(bs, ts):
    n = min(len(bs), len(ts))
    bs, ts = bs[:n], ts[:n]
    try:
        expected = [scalar_delta(b, t) for b, t in zip(bs, ts)]
    except ValueError:
        with pytest.raises(ValueError, match="delta row"):
            box_deltas(bs, ts)
        return
    got = box_deltas(bs, ts)
    assert got.dtype == np.float64 and got.shape == (n, 4)
    assert got.tobytes() == np.array(expected).tobytes()


def test_box_deltas_match_scalar_formula_on_many_rows():
    # np.log differs from math.log in the last bit on about one input in
    # 7,000, too rarely for the examples above to meet; these rows meet some.
    rng = np.random.default_rng(0)

    def rows(n):
        return np.hstack([rng.uniform(-100, 100, (n, 2)),
                          np.exp(rng.uniform(-5, 5, (n, 2)))])
    bs, ts = rows(50_000), rows(50_000)
    expected = [scalar_delta(b, t) for b, t in zip(bs.tolist(), ts.tolist())]
    assert box_deltas(bs, ts).tobytes() == np.array(expected).tobytes()


def test_box_deltas_names_the_first_nonfinite_row():
    with pytest.raises(ValueError, match=r"delta row 1 .*inf"):
        box_deltas([[0, 0, 1, 1], [0, 0, 1e-300, 1]],
                   [[1, 1, 2, 2], [0, 0, 1e300, 1]])
    assert box_deltas(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 4)


def test_corner_round_trip():
    b = Box(10, 20, 4, 6)
    assert Box.from_corners(*b.corners()) == b


def test_iou_identity():
    b = Box(5, 5, 3, 7)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    a = corner_box(0, 0, 2, 2)
    b = corner_box(10, 0, 12, 2)
    assert iou(a, b) == 0.0


def test_iou_partial_overlap():
    a = corner_box(0, 0, 2, 2)
    b = corner_box(1, 0, 3, 2)
    assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_edge_touching_is_zero():
    a = corner_box(0, 0, 2, 2)
    b = corner_box(2, 0, 4, 2)
    assert iou(a, b) == 0.0


@given(boxes(), boxes())
def test_iou_symmetric_and_in_range(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@st.composite
def tame_boxes(draw):
    # Keep coord/side ratios moderate so the 1e-12 tolerance is meaningful.
    return Box(draw(st.floats(-100, 100)), draw(st.floats(-100, 100)),
               draw(st.floats(0.5, 80)), draw(st.floats(0.5, 80)))


@given(tame_boxes(), tame_boxes(), st.floats(0.1, 50))
def test_iou_scale_invariant(a, b, s):
    sa = Box(a.cx * s, a.cy * s, a.w * s, a.h * s)
    sb = Box(b.cx * s, b.cy * s, b.w * s, b.h * s)
    assert iou(sa, sb) == pytest.approx(iou(a, b), abs=1e-12)


def test_delta_direct_values():
    d = delta(Box(10, 10, 20, 20), Box(12, 14, 40, 10))
    assert d.tx == pytest.approx(0.1)
    assert d.ty == pytest.approx(0.2)
    assert d.tw == pytest.approx(math.log(2))
    assert d.th == pytest.approx(math.log(0.5))


def test_delta_identity():
    b = Box(3, 4, 5, 6)
    assert delta(b, b) == DeltaParams(0, 0, 0, 0)


def test_delta_pure_translation():
    d = delta(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
    assert d == DeltaParams(0.5, 0, 0, 0)


def test_apply_delta_identity():
    b = Box(3, 4, 5, 6)
    assert apply_delta(b, DeltaParams(0, 0, 0, 0)) == b


def test_apply_delta_inverse_example():
    b = Box(10, 10, 20, 20)
    d = DeltaParams(0.1, 0.2, math.log(2), math.log(0.5))
    t = apply_delta(b, d)
    assert (t.cx, t.cy, t.w, t.h) == pytest.approx((12, 14, 40, 10))


def test_round_trip_many_random_pairs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        b = Box(*rng.uniform(-100, 100, 2), *rng.uniform(0.1, 80, 2))
        t = Box(*rng.uniform(-100, 100, 2), *rng.uniform(0.1, 80, 2))
        r = apply_delta(b, delta(b, t))
        worst = max(worst, abs(r.cx - t.cx), abs(r.cy - t.cy),
                    abs(r.w - t.w), abs(r.h - t.h))
    assert worst < 1e-9


@given(boxes(), boxes(), finite_coord, finite_coord)
def test_delta_translation_covariant(b, t, dx, dy):
    d0 = delta(b, t)
    d1 = delta(Box(b.cx + dx, b.cy + dy, b.w, b.h),
               Box(t.cx + dx, t.cy + dy, t.w, t.h))
    assert d1.tx == pytest.approx(d0.tx, abs=1e-6)
    assert d1.ty == pytest.approx(d0.ty, abs=1e-6)
    assert d1.tw == d0.tw
    assert d1.th == d0.th


def test_clip_noop_inside():
    b = Box(5, 5, 4, 4)
    assert clip_to_image(b, 10, 10) == b


def test_clip_one_edge():
    b = corner_box(-2, 0, 2, 2)
    assert clip_to_image(b, 10, 10) == corner_box(0, 0, 2, 2)


def test_clip_fully_outside_gets_min_side_at_corner():
    b = corner_box(-5, -5, -4, -4)
    c = clip_to_image(b, 10, 10)
    assert (c.w, c.h) == (1.0, 1.0)
    x1, y1, x2, y2 = c.corners()
    assert (x1, y1) == (0.0, 0.0)


@given(boxes(), st.floats(5, 200), st.floats(5, 200))
@settings(max_examples=200)
def test_clip_idempotent(b, w, h):
    c1 = clip_to_image(b, w, h)
    c2 = clip_to_image(c1, w, h)
    assert c2.cx == pytest.approx(c1.cx, abs=1e-12)
    assert c2.cy == pytest.approx(c1.cy, abs=1e-12)
    assert c2.w == pytest.approx(c1.w, abs=1e-12)
    assert c2.h == pytest.approx(c1.h, abs=1e-12)


def test_iou_matrix_agrees_with_scalar():
    rng = np.random.default_rng(0)
    a = [Box(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2)) for _ in range(8)]
    b = [Box(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2)) for _ in range(5)]
    m = iou_matrix(boxes_to_array(a), boxes_to_array(b))
    for i, bi in enumerate(a):
        for j, bj in enumerate(b):
            assert m[i, j] == pytest.approx(iou(bi, bj), abs=1e-12)
