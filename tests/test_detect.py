import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griddet.assign import assign_grid
from griddet.boxes import (Box, DeltaParams, apply_deltas, boxes_to_array,
                           clip_boxes, iou)
from griddet.detect import (MAX_LOG_SCALE, DetectionResult, DetectStats,
                            detect, detect_multi, model_fns, move_boxes, nms,
                            oracle_fns)
from griddet.features import FeatureExtractor, build_roi_features
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
    assert nms(np.array([[5.0, 5, 2, 2]]), [0.7], 0.3).tolist() == [0]


def test_nms_identical_boxes_keep_higher_score():
    boxes = np.array([[5.0, 5, 4, 4], [5, 5, 4, 4]])
    assert nms(boxes, [0.8, 0.9], 0.5).tolist() == [1]


def test_nms_disjoint_all_kept():
    boxes = np.array([[2.0, 2, 2, 2], [10, 2, 2, 2], [2, 10, 2, 2]])
    assert nms(boxes, [0.9, 0.8, 0.7], 0.3).tolist() == [0, 1, 2]


def test_nms_tie_breaks_to_earlier_index():
    boxes = np.array([[5.0, 5, 4, 4], [5, 5, 4, 4]])
    assert nms(boxes, [0.5, 0.5], 0.3).tolist() == [0]


def test_nms_idempotent_and_subset():
    rng = np.random.default_rng(2)
    boxes = np.hstack([rng.uniform(5, 25, (30, 2)), rng.uniform(2, 12, (30, 2))])
    scores = rng.uniform(size=30)
    once = nms(boxes, scores, 0.4)
    assert len(set(once.tolist())) == len(once) <= len(boxes)
    assert (np.diff(scores[once]) <= 0).all()
    assert nms(boxes[once], scores[once], 0.4).tolist() == \
        list(range(len(once)))
    assert once.tolist() == reference_nms_keep(
        [Box(*b) for b in boxes.tolist()], scores.tolist(), 0.4)


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
    # On a 400x400 image both boxes stay inside at the largest growth, so
    # clipping leaves them as moved.
    boxes = np.array([[200.0, 200.0, 4.0, 4.0], [100.0, 300.0, 2.0, 3.0]])

    def step(tw):
        deltas = np.zeros((2, 4))
        deltas[:, 2:] = tw
        return move_boxes(boxes, deltas, 400, 400)
    clamped, limit = step(10.0), step(MAX_LOG_SCALE)
    assert clamped.tobytes() == limit.tobytes()
    deltas = np.zeros((2, 4))
    deltas[:, 2:] = MAX_LOG_SCALE
    assert limit.tobytes() == apply_deltas(boxes, deltas).tobytes()
    below = step(MAX_LOG_SCALE - 0.5)
    assert (below[:, 2:] < limit[:, 2:]).all()


def test_step_loop_builds_boxes_only_at_the_edges(monkeypatch):
    n = len(generate_grid(GRID, 40, 40))
    built = {Box: 0, DeltaParams: 0}
    for cls in built:
        def count(self, cls=cls, init=cls.__post_init__):
            built[cls] += 1
            init(self)
        monkeypatch.setattr(cls, "__post_init__", count)
    boxes_seen = []

    def regress(feats, boxes, grid_indices):
        boxes_seen.append(boxes)
        return np.full((len(boxes), 2, 4), 0.1)
    results = detect(np.zeros((40, 40)), GRID, regress,
                     constant_classifier(2, 1), s_test=4, nms_iou=1.0)
    # The grid, then one final box per detection.
    assert built == {Box: n + len(results), DeltaParams: 0}
    assert len(boxes_seen) == 4
    assert all(b.dtype == np.float64 and b.shape == (n, 4) for b in boxes_seen)


# The Box-based loop that the array loop replaced, kept as its reference:
# one box at a time through DeltaParams, apply_delta and clip_to_image, with
# scalar IoU in NMS. The callbacks and pooling take the boxes as an array.

def reference_clip_axis(lo, hi, dim, min_side):
    clo = min(max(lo, 0.0), dim)
    chi = min(max(hi, 0.0), dim)
    side = chi - clo
    orig_side = hi - lo
    if side < orig_side and side <= min_side:
        side = min(min_side, dim)
        center = (clo + chi) / 2.0
        center = min(max(center, side / 2.0), dim - side / 2.0)
        return center - side / 2.0, center + side / 2.0
    return clo, chi


def reference_clip_row(row, width, height, min_side=1.0):
    cx, cy, w, h = row
    x1, y1, x2, y2 = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
    cx1, cx2 = reference_clip_axis(x1, x2, width, min_side)
    cy1, cy2 = reference_clip_axis(y1, y2, height, min_side)
    if (cx1, cy1, cx2, cy2) == (x1, y1, x2, y2):
        return list(row)
    return [(cx1 + cx2) / 2.0, (cy1 + cy2) / 2.0, cx2 - cx1, cy2 - cy1]


def reference_nms_keep(boxes, scores, iou_threshold):
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def reference_finalize(fm, history, grid_indices, classifier_fn, cfg,
                       score_threshold, nms_iou):
    boxes = history[-1]
    array = boxes_to_array(boxes)
    probs = classifier_fn(build_roi_features(fm, array, cfg), array,
                          grid_indices)
    labels = np.argmax(probs, axis=1)
    candidates = []
    for i in range(len(boxes)):
        label = int(labels[i])
        score = float(probs[i, label])
        if label == 0 or score < score_threshold:
            continue
        candidates.append((i, label, score))
    survivors = []
    for label in sorted({c[1] for c in candidates}):
        group = [c for c in candidates if c[1] == label]
        kept = reference_nms_keep([boxes[c[0]] for c in group],
                                  [c[2] for c in group], nms_iou)
        survivors.extend(group[j] for j in sorted(kept))
    survivors.sort(key=lambda c: (-c[2], grid_indices[c[0]]))
    return [DetectionResult(boxes[i], label, score,
                            boxes_to_array([step[i] for step in history]),
                            grid_indices[i])
            for i, label, score in survivors]


def reference_detect_multi(image, grid_spec, regressor_fn, classifier_fn,
                           eval_steps, score_threshold=0.05, nms_iou=0.3):
    extractor = FeatureExtractor()
    cfg = extractor.config
    h, w = image.shape
    fm = extractor.compute_global_features(image)
    boxes = generate_grid(grid_spec, w, h)
    grid_indices = list(range(len(boxes)))
    history = [boxes]
    args = (grid_indices, classifier_fn, cfg, score_threshold, nms_iou)
    out = {}
    if 0 in eval_steps:
        out[0] = reference_finalize(fm, history, *args)
    for s in range(1, max(eval_steps) + 1):
        array = boxes_to_array(boxes)
        feats = build_roi_features(fm, array, cfg)
        labels = np.argmax(classifier_fn(feats, array, grid_indices), axis=1)
        deltas = regressor_fn(feats, array, grid_indices)
        moving = np.flatnonzero(labels)
        rows = np.asarray(deltas, dtype=np.float64)[moving, labels[moving] - 1]
        np.minimum(rows[:, 2:], MAX_LOG_SCALE, out=rows[:, 2:])
        boxes = list(boxes)
        for i, row in zip(moving.tolist(), rows.tolist()):
            try:
                b, d = boxes[i], DeltaParams(*row)
                moved = Box(b.cx + d.tx * b.w, b.cy + d.ty * b.h,
                            b.w * math.exp(d.tw), b.h * math.exp(d.th))
                boxes[i] = Box(*reference_clip_row(
                    (moved.cx, moved.cy, moved.w, moved.h), w, h))
            except ValueError:
                pass
        history.append(boxes)
        if s in eval_steps:
            out[s] = reference_finalize(fm, history, *args)
    return out


def result_bytes(r):
    b = r.final_box
    return (r.grid_index, r.class_label, struct.pack("<d", r.score),
            struct.pack("<4d", b.cx, b.cy, b.w, b.h), r.trajectory.dtype,
            r.trajectory.shape, r.trajectory.tobytes())


def random_classifier(num_classes, seed):
    """Random probabilities, one fresh draw per call, from a seeded stream."""
    rng = np.random.default_rng(seed)

    def classify(feats, boxes, grid_indices):
        probs = rng.uniform(size=(len(boxes), num_classes + 1)) ** 4
        return probs / probs.sum(axis=1, keepdims=True)
    return classify


def assert_matches_reference(image, grid_spec, make_fns, eval_steps,
                             **kwargs):
    """make_fns() gives fresh (regressor_fn, classifier_fn) callbacks, so
    stateful ones start over for each loop."""
    got = detect_multi(image, grid_spec, *make_fns(), eval_steps=eval_steps,
                       **kwargs)
    want = reference_detect_multi(image, grid_spec, *make_fns(), eval_steps,
                                  **kwargs)
    assert sorted(got) == sorted(want) == sorted(set(eval_steps))
    for s in want:
        assert [result_bytes(r) for r in got[s]] == \
            [result_bytes(r) for r in want[s]]
    return got


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(seed=3, image_size=(48, 48))
    scenes = generate_dataset(cfg, 3)
    models = {}
    for mode in ("gcnn", "1step"):
        regressor, classifier, _ = train_stepwise(
            scenes[:2], GridSpec((2, 4), (0.8, 0.6)),
            TrainConfig(seed=3, n_iter_per_stage=20), mode=mode,
            num_classes=cfg.num_classes)
        models[mode] = (regressor, classifier)
    return scenes, models


@pytest.mark.parametrize("mode", ["gcnn", "1step"])
@pytest.mark.parametrize("eval_steps", [[0, 1, 3], [5], [0]])
def test_loop_matches_reference_with_trained_models(trained, mode, eval_steps):
    scenes, models = trained
    for scene in scenes:
        for grid_spec, kwargs in ((GRID, {}),
                                  (GridSpec((2, 5, 10), (0.9, 0.8, 0.7)),
                                   dict(score_threshold=0.0, nms_iou=0.5))):
            assert_matches_reference(scene.image, grid_spec,
                                     lambda: model_fns(*models[mode]),
                                     eval_steps, **kwargs)


def test_loop_matches_reference_with_the_oracle():
    cfg = SynthConfig(seed=5, objects_per_scene=(2, 3))
    grid_spec = GridSpec((2, 5, 10), (0.9, 0.8, 0.7))
    for scene in generate_dataset(cfg, 2):
        h, w = scene.image.shape
        assignments = assign_grid(generate_grid(grid_spec, w, h), scene.gts)
        got = assert_matches_reference(
            scene.image, grid_spec,
            lambda: oracle_fns(assignments, cfg.num_classes), [0, 1, 2])
        assert got[2]


# Deltas that push boxes past each edge and corner of the image (the
# minimum-side restore), shrink them below a pixel, grow them past the image,
# and the extreme values.
PUSHES = (50.0, -50.0, 3.0, -3.0, 0.7, -0.7, 0.0, 8.0, -8.0, -30.0, 30.0)


@pytest.mark.parametrize("values", [
    *([v] for v in EXTREME),
    PUSHES,
    PUSHES + EXTREME,
    (-8.0, -8.0, -8.0, -8.0, 0.1, 0.1, -9.0, -9.0),
    (0.3, -0.2, -7.5, 1.0, -0.4, 0.45, 1.0, -7.5),
], ids=lambda v: ",".join(map(str, v)))
@pytest.mark.parametrize("classifier", ["constant", "random"])
def test_loop_matches_reference_on_pushed_boxes(values, classifier):
    image = np.random.default_rng(7).uniform(size=(40, 32))

    def make_fns():
        cls = constant_classifier(2, 1) if classifier == "constant" \
            else random_classifier(2, 11)
        return cycling_regressor(2, values), cls
    assert_matches_reference(image, GRID, make_fns, [0, 1, 2, 4],
                             nms_iou=0.6, score_threshold=0.0)


edge_float = (st.floats(-1e4, 1e4) | st.sampled_from(
    (0.0, -0.0, 0.5, 1.0, 31.5, 32.0, 40.0, -1e-300, 1e-300)))
side_float = st.floats(0.0, 1e4) | st.sampled_from((0.0, 1e-300, 0.5, 1.0, 2.0))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(edge_float, edge_float, side_float, side_float),
                min_size=1, max_size=8),
       st.sampled_from((32, 40, 32.0, 0.5, 7.25)) | st.floats(0.01, 1e3),
       st.sampled_from((40, 32.0, 1.0)) | st.floats(0.01, 1e3),
       st.sampled_from((1.0, 0.0, 0.5, 3.0, 1e3)))
def test_clip_boxes_matches_clip_axis_bit_for_bit(rows, width, height,
                                                  min_side):
    got = clip_boxes(np.array(rows), width, height, min_side)
    want = [reference_clip_row(r, width, height, min_side) for r in rows]
    assert got.tobytes() == struct.pack(f"<{4 * len(rows)}d",
                                        *itertools.chain(*want))
