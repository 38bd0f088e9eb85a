import numpy as np
import pytest

from griddet.boxes import boxes_to_array
from griddet.config import ExperimentConfig
from griddet.grid import (MAX_GRID_BOXES, GridSpec, _axis_count, fits_bound,
                          generate_grid, grid_array)


def brute_force_count(dim, cell, stride):
    """Enumerate placements directly from the stride rule."""
    n = 0
    i = 0
    while i * stride + cell <= dim + 1e-9:
        n += 1
        i += 1
    return n


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((), ())
    with pytest.raises(ValueError):
        GridSpec((2, 5), (0.5,))
    with pytest.raises(ValueError):
        GridSpec((2,), (1.0,))
    with pytest.raises(ValueError):
        GridSpec((0,), (0.5,))


@pytest.mark.parametrize("scale", [2.0, True])
def test_spec_rejects_scales_that_are_not_integers(scale):
    # 2.0 equals an integer and True counts as 1 in arithmetic; neither is
    # an integer scale.
    with pytest.raises(ValueError, match="scales must be a non-empty tuple "
                       "of positive integers"):
        GridSpec((scale,), (0.5,))


def test_600_square_test_overlaps_count():
    boxes = generate_grid(GridSpec((2, 5, 10), (0.7, 0.5, 0.0)), 600, 600)
    assert len(boxes) == 197  # 16 + 81 + 100
    # Matches the per-scale brute-force placement enumerator.
    total = 0
    for k, a in zip((2, 5, 10), (0.7, 0.5, 0.0)):
        cell = 600 / k
        n = brute_force_count(600, cell, cell * (1 - a))
        total += n * n
    assert total == 197
    assert 160 <= len(boxes) <= 210


def test_single_cell_grid():
    boxes = generate_grid(GridSpec((1,), (0.0,)), 100, 100)
    assert len(boxes) == 1
    b = boxes[0]
    assert (b.cx, b.cy, b.w, b.h) == (50, 50, 100, 100)


def test_half_overlap_grid():
    boxes = generate_grid(GridSpec((2,), (0.5,)), 100, 100)
    assert len(boxes) == 9  # floor((100-50)/25)+1 = 3 per axis


def test_all_boxes_inside_image():
    for w, h in [(600, 600), (128, 128), (173, 97)]:
        boxes = generate_grid(GridSpec((2, 5, 10), (0.9, 0.8, 0.7)), w, h)
        for b in boxes:
            x1, y1, x2, y2 = b.corners()
            assert x1 >= -1e-9 and y1 >= -1e-9
            assert x2 <= w + 1e-9 and y2 <= h + 1e-9


def test_deterministic_and_ordered():
    spec = GridSpec((2, 5), (0.5, 0.25))
    a = generate_grid(spec, 211, 157)
    b = generate_grid(spec, 211, 157)
    assert a == b
    # Coarse scale comes first: first box has the largest cell.
    assert a[0].w == pytest.approx(211 / 2)
    assert a[-1].w == pytest.approx(211 / 5)


def test_counts_match_closed_form():
    for w, h in [(128, 128), (640, 480), (333, 250)]:
        for k, a in [(2, 0.9), (5, 0.8), (10, 0.7), (3, 0.0)]:
            boxes = generate_grid(GridSpec((k,), (a,)), w, h)
            cw, ch = w / k, h / k
            nx = brute_force_count(w, cw, cw * (1 - a))
            ny = brute_force_count(h, ch, ch * (1 - a))
            assert len(boxes) == nx * ny


def test_invalid_image_dims():
    with pytest.raises(ValueError):
        generate_grid(GridSpec((2,), (0.0,)), 0, 10)


def test_row_major_order_within_scale():
    boxes = generate_grid(GridSpec((2,), (0.0,)), 100, 100)
    assert [b.cy for b in boxes] == [25, 25, 75, 75]
    assert [b.cx for b in boxes] == [25, 75, 25, 75]


def reference_grid(spec, image_width, image_height):
    """The placement loop, one box at a time, that grid_array replaced."""
    rows = []
    for k, alpha in zip(spec.scales, spec.overlaps):
        cell_w, cell_h = image_width / k, image_height / k
        stride_x, stride_y = cell_w * (1.0 - alpha), cell_h * (1.0 - alpha)
        for j in range(_axis_count(image_height, cell_h, stride_y)):
            y1 = j * stride_y
            for i in range(_axis_count(image_width, cell_w, stride_x)):
                x1 = i * stride_x
                rows.append([x1 + cell_w / 2.0, y1 + cell_h / 2.0, cell_w,
                             cell_h])
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("spec", [GridSpec((2, 5, 10), (0.9, 0.8, 0.7)),
                                  GridSpec((2, 5, 10), (0.7, 0.5, 0.0)),
                                  GridSpec((3, 7), (0.33, 0.61))])
@pytest.mark.parametrize("size", [(64, 64), (600, 600), (211, 157),
                                  (100.5, 77.25)])
def test_grid_array_is_cached_read_only_and_matches_the_box_loop(spec, size):
    grid = grid_array(spec, *size)
    assert grid is grid_array(spec, *size)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0
    assert grid.dtype == np.float64 and grid.shape == (len(grid), 4)
    assert grid.tobytes() == boxes_to_array(generate_grid(spec, *size)).tobytes()
    assert grid.tobytes() == reference_grid(spec, *size).tobytes()


@pytest.mark.parametrize("spec", [
    GridSpec((316,), (0.0,)), GridSpec((317,), (0.0,)),
    GridSpec((2, 5, 10), (0.9, 0.8, 0.7)), GridSpec((1, 100), (0.0, 0.5))])
@pytest.mark.parametrize("size", [(128, 128), (100, 37)])
def test_fits_bound_counts_the_boxes_grid_array_places(spec, size):
    assert fits_bound(spec, *size) == (len(grid_array(spec, *size))
                                       <= MAX_GRID_BOXES)


def test_grid_bound_sits_far_above_the_default_grids():
    cfg = ExperimentConfig()
    for spec in (cfg.grid_train, cfg.grid_test):
        assert len(grid_array(spec, *cfg.synth.image_size)) * 50 \
            < MAX_GRID_BOXES
    # 316 x 316 boxes fit and 317 x 317 do not.
    assert fits_bound(GridSpec((316,), (0.0,)), 128, 128)
    assert not fits_bound(GridSpec((317,), (0.0,)), 128, 128)
    assert not fits_bound(GridSpec((10 ** 400,), (0.5,)), 128, 128)
