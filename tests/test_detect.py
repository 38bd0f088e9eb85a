import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griddet.assign import assign_grid
from griddet.boxes import Box, iou
from griddet.detect import (MAX_LOG_SCALE, DetectStats, detect, detect_multi,
                            model_fns, nms, oracle_fns)
from griddet.features import FeatureExtractor
from griddet.grid import GridSpec, generate_grid
from griddet.model import TrainConfig, train_stepwise
from griddet.synth import SynthConfig, generate_dataset

GRID = GridSpec((2, 4), (0.7, 0.5))


def as_row(b: Box) -> list[float]:
    return [b.cx, b.cy, b.w, b.h]


def zero_regressor(num_classes):
    def regress(feats, boxes, grid_indices):
        return np.zeros((len(boxes), num_classes, 4))
    return regress


def constant_classifier(num_classes, label):
    def classify(feats, boxes, grid_indices):
        probs = np.zeros((len(boxes), num_classes + 1))
        probs[:, label] = 1.0
        return probs
    return classify


def test_zero_regressor_trajectories_constant():
    image = np.zeros((40, 40))
    results = detect(image, GRID, zero_regressor(2), constant_classifier(2, 1),
                     s_test=3, nms_iou=1.0)
    grid = generate_grid(GRID, 40, 40)
    assert results
    for r in results:
        assert r.trajectory.shape == (4, 4)
        assert r.trajectory.dtype == np.float64
        assert (r.trajectory == r.trajectory[0]).all()
        assert r.trajectory[0].tolist() == as_row(grid[r.grid_index])
        assert r.final_box == grid[r.grid_index]


def test_all_background_classifier_yields_no_detections():
    image = np.zeros((40, 40))
    results = detect(image, GRID, zero_regressor(2), constant_classifier(2, 0),
                     s_test=2)
    assert results == []


def test_s_test_zero_returns_unmoved_grid_boxes():
    image = np.zeros((40, 40))
    results = detect(image, GRID, zero_regressor(2), constant_classifier(2, 2),
                     s_test=0, nms_iou=1.0)
    grid = generate_grid(GRID, 40, 40)
    assert len(results) == len(grid)
    for r in results:
        assert r.trajectory.tolist() == [as_row(grid[r.grid_index])]
        assert r.final_box == grid[r.grid_index]
        assert r.class_label == 2


def test_oracle_lands_on_ground_truth_in_one_step():
    cfg = SynthConfig(seed=5, objects_per_scene=(2, 2))
    scene = generate_dataset(cfg, 1)[0]
    h, w = scene.image.shape
    grid = generate_grid(GridSpec((2, 5, 10), (0.9, 0.8, 0.7)), w, h)
    assignments = assign_grid(grid, scene.gts)
    reg_fn, cls_fn = oracle_fns(assignments, cfg.num_classes)
    results = detect(scene.image, GridSpec((2, 5, 10), (0.9, 0.8, 0.7)),
                     reg_fn, cls_fn, s_test=1, nms_iou=1.0)
    n_fg = sum(1 for a in assignments if not a.is_background)
    assert n_fg > 0
    assert len(results) == n_fg
    for r in results:
        a = assignments[r.grid_index]
        assert r.class_label == a.target_gt.class_label
        assert iou(r.final_box, a.target_gt.box) == pytest.approx(1.0, abs=1e-9)
        assert r.score == 1.0


def test_features_computed_once_regardless_of_steps():
    image = np.zeros((40, 40))
    for s_test in (0, 1, 5):
        stats = DetectStats()
        ext = FeatureExtractor()
        detect(image, GRID, zero_regressor(2), constant_classifier(2, 1),
               s_test=s_test, extractor=ext, stats=stats)
        assert stats.feature_calls == 1
        assert ext.call_count == 1
        assert len(stats.iteration_seconds) == s_test


def test_detect_multi_matches_individual_runs():
    cfg = SynthConfig(seed=3, image_size=(48, 48))
    scenes = generate_dataset(cfg, 2)
    train_cfg = TrainConfig(seed=3, n_iter_per_stage=10)
    regressor, classifier, _ = train_stepwise(
        scenes, GridSpec((2, 4), (0.8, 0.6)), train_cfg,
        num_classes=cfg.num_classes)
    reg_fn, cls_fn = model_fns(regressor, classifier)
    multi = detect_multi(scenes[0].image, GRID, reg_fn, cls_fn,
                         eval_steps=[1, 2, 3])
    for s in (1, 2, 3):
        single = detect(scenes[0].image, GRID, reg_fn, cls_fn, s_test=s)
        assert len(single) == len(multi[s])
        for a, b in zip(single, multi[s]):
            assert a.grid_index == b.grid_index
            assert a.final_box == b.final_box
            assert a.score == b.score
            assert a.trajectory.shape == b.trajectory.shape == (s + 1, 4)
            assert a.trajectory.tobytes() == b.trajectory.tobytes()


def test_trajectory_length_and_clipping():
    cfg = SynthConfig(seed=11, image_size=(48, 48))
    scene = generate_dataset(cfg, 1)[0]
    train_cfg = TrainConfig(seed=11, n_iter_per_stage=10)
    regressor, classifier, _ = train_stepwise(
        [scene], GridSpec((2, 4), (0.8, 0.6)), train_cfg,
        num_classes=cfg.num_classes)
    reg_fn, cls_fn = model_fns(regressor, classifier)
    results = detect(scene.image, GRID, reg_fn, cls_fn, s_test=4, nms_iou=1.0,
                     score_threshold=0.0)
    h, w = scene.image.shape
    for r in results:
        assert r.trajectory.shape == (5, 4)
        assert r.trajectory[-1].tolist() == as_row(r.final_box)
        x1, y1, x2, y2 = r.final_box.corners()
        assert -1e-9 <= x1 and x2 <= w + 1e-9
        assert -1e-9 <= y1 and y2 <= h + 1e-9


def test_nms_single_box():
    dets = [(Box(5, 5, 2, 2), 0.7)]
    assert nms(dets, 0.3) == dets


def test_nms_identical_boxes_keep_higher_score():
    b = Box(5, 5, 4, 4)
    kept = nms([(b, 0.8), (b, 0.9)], 0.5)
    assert kept == [(b, 0.9)]


def test_nms_disjoint_all_kept():
    dets = [(Box(2, 2, 2, 2), 0.9), (Box(10, 2, 2, 2), 0.8),
            (Box(2, 10, 2, 2), 0.7)]
    assert nms(dets, 0.3) == dets


def test_nms_tie_breaks_to_earlier_index():
    b = Box(5, 5, 4, 4)
    kept = nms([(b, 0.5), (b, 0.5)], 0.3)
    assert kept == [(b, 0.5)]
    assert kept[0] is not None


def test_nms_idempotent_and_subset():
    rng = np.random.default_rng(2)
    dets = [(Box(*rng.uniform(5, 25, 2), *rng.uniform(2, 12, 2)),
             float(rng.uniform())) for _ in range(30)]
    once = nms(dets, 0.4)
    assert all(d in dets for d in once)
    assert len(once) <= len(dets)
    assert nms(once, 0.4) == once


def test_eval_steps_must_be_nonnegative():
    with pytest.raises(ValueError):
        detect_multi(np.zeros((20, 20)), GRID, zero_regressor(1),
                     constant_classifier(1, 1), eval_steps=[-1])


EXTREME = (800.0, -800.0, np.inf, -np.inf, np.nan)


def cycling_regressor(num_classes, values):
    """Fills the (box, class) delta rows from values, cycling; each call
    starts the cycle four places further on."""
    values = np.asarray(values, dtype=np.float64)
    calls = itertools.count()

    def regress(feats, boxes, grid_indices):
        n = len(boxes) * num_classes * 4
        idx = (4 * next(calls) + np.arange(n)) % len(values)
        return values[idx].reshape(len(boxes), num_classes, 4)
    return regress


def assert_finite_in_image(results, w, h):
    for r in results:
        rows = np.vstack([r.trajectory, [as_row(r.final_box)]])
        assert np.isfinite(rows).all()
        assert (rows[:, 2:] > 0).all()
        x1, y1 = rows[:, 0] - rows[:, 2] / 2, rows[:, 1] - rows[:, 3] / 2
        x2, y2 = rows[:, 0] + rows[:, 2] / 2, rows[:, 1] + rows[:, 3] / 2
        assert (x1 >= -1e-9).all() and (x2 <= w + 1e-9).all()
        assert (y1 >= -1e-9).all() and (y2 <= h + 1e-9).all()


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(EXTREME) | st.floats(-10, 10), min_size=1,
                max_size=16))
def test_any_regressor_output_gives_finite_in_image_boxes(values):
    image = np.random.default_rng(len(values)).uniform(size=(40, 32))
    results = detect(image, GRID, cycling_regressor(2, values),
                     constant_classifier(2, 1), s_test=3, nms_iou=1.0)
    assert len(results) == len(generate_grid(GRID, 32, 40))
    assert_finite_in_image(results, 32, 40)


@pytest.mark.parametrize("value", EXTREME)
def test_extreme_deltas_do_not_crash(value):
    results = detect(np.zeros((40, 40)), GRID,
                     cycling_regressor(2, [value]),
                     constant_classifier(2, 1), s_test=2, nms_iou=1.0)
    assert_finite_in_image(results, 40, 40)
    grid = generate_grid(GRID, 40, 40)
    for r in results:
        if value == 800.0:
            # Shifted far past the corner and clipped to a minimum-side box.
            assert r.final_box == Box(39.5, 39.5, 1.0, 1.0)
        else:
            # An empty or non-finite box, or a non-finite delta: no move.
            assert r.final_box == grid[r.grid_index]


def test_log_scale_is_clamped_before_exponentiating():
    def steps(tw):
        def regress(feats, boxes, grid_indices):
            out = np.zeros((len(boxes), 1, 4))
            out[:, :, 2:] = tw
            return out
        return detect(np.zeros((400, 400)), GridSpec((10,), (0.5,)), regress,
                      constant_classifier(1, 1), s_test=1, nms_iou=1.0,
                      clip=False)
    clamped, limit = steps(10.0), steps(MAX_LOG_SCALE)
    assert [r.trajectory.tobytes() for r in clamped] == \
        [r.trajectory.tobytes() for r in limit]
    below = steps(MAX_LOG_SCALE - 0.5)
    assert below[0].final_box.w < limit[0].final_box.w
