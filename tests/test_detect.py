import importlib
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import griddet
import griddet.detect
from griddet.assign import assign_grid
from griddet.boxes import (Box, DeltaParams, apply_deltas, boxes_to_array,
                           clip_boxes, iou)
from griddet.config import ExperimentConfig
from griddet.detect import (MAX_LOG_SCALE, DetectionResult, DetectStats,
                            ModelMismatchError, detect, detect_multi,
                            model_fns, move_boxes, nms, oracle_fns)
from griddet.features import FeatureExtractor, build_roi_features
from griddet.grid import GridSpec, generate_grid, grid_array
from griddet.model import TrainConfig
from griddet.pipeline import train
from griddet.synth import SynthConfig, generate_dataset

GRID = GridSpec((2, 4), (0.7, 0.5))


def test_each_submodule_is_the_package_attribute_of_its_name():
    # The package re-exports nothing, so its function detect does not hide
    # the module griddet.detect.
    assert griddet.detect.model_fns is model_fns
    for name in ("assign", "boxes", "cli", "config", "detect", "evaluate",
                 "features", "grid", "model", "pipeline", "records", "synth"):
        module = importlib.import_module(f"griddet.{name}")
        assert getattr(griddet, name) is module


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
    [(regressor, classifier, _)] = train(ExperimentConfig(
        synth=cfg, grid_train=GridSpec((2, 4), (0.8, 0.6)),
        train=TrainConfig(seed=3, n_iter_per_stage=10)), scenes)
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
    [(regressor, classifier, _)] = train(ExperimentConfig(
        synth=cfg, grid_train=GridSpec((2, 4), (0.8, 0.6)),
        train=TrainConfig(seed=11, n_iter_per_stage=10)), [scene])
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


def one_row_short(fn):
    def short(feats, boxes, grid_indices):
        return fn(feats, boxes, grid_indices)[:-1]
    return short


def flat_regressor(num_classes):
    """The regressor MLP's raw (N, 4K) output, not reshaped to (N, K, 4)."""
    def regress(feats, boxes, grid_indices):
        return np.zeros((len(boxes), 4 * num_classes))
    return regress


# (regressor, classifier, s_test, the error with N for the box count). The
# step and the final scoring pass check the same shapes.
BAD_OUTPUTS = {
    "classifier_one_row_short_at_s_test_0": (
        zero_regressor(2), one_row_short(constant_classifier(2, 1)), 0,
        "classifier output has shape (N-1, 3), expected (N, C)"),
    "regressor_one_row_short": (
        one_row_short(zero_regressor(2)), constant_classifier(2, 1), 1,
        "regressor output has shape (N-1, 2, 4), expected (N, K, 4) with "
        "K >= 2"),
    "regressor_output_flat": (
        flat_regressor(2), constant_classifier(2, 1), 1,
        "regressor output has shape (N, 8), expected (N, K, 4) with K >= 2"),
    "regressor_of_too_few_classes": (
        zero_regressor(1), constant_classifier(2, 2), 1,
        "regressor output has shape (N, 1, 4), expected (N, K, 4) with "
        "K >= 2"),
}


@pytest.mark.parametrize("regressor, classifier, s_test, message",
                         BAD_OUTPUTS.values(), ids=BAD_OUTPUTS.keys())
def test_model_outputs_of_the_wrong_shape_are_named(regressor, classifier,
                                                    s_test, message):
    n = len(generate_grid(GRID, 40, 40))
    message = message.replace("N-1", str(n - 1)).replace("N", str(n))
    with pytest.raises(ModelMismatchError, match=re.escape(message)):
        detect(np.zeros((40, 40)), GRID, regressor, classifier, s_test=s_test)


def gating_classifier(num_classes, seen, gate):
    """Call k gates the rows gate(k, n) (to class 1 or 2 by row parity) and
    calls every other row background; records each call's arguments and
    output in seen."""
    def classify(feats, boxes, grid_indices):
        probs = np.zeros((len(boxes), num_classes + 1))
        probs[:, 0] = 1.0
        gated = gate(len(seen), len(boxes))
        probs[gated] = 0.0
        probs[gated, 1 + gated % 2] = 1.0
        seen.append((feats.copy(), boxes.copy(), list(grid_indices), probs))
        return probs
    return classify


def test_regressor_sees_only_the_gated_rows():
    image = np.random.default_rng(3).uniform(size=(40, 40))
    classified, regressed = [], []

    def gate(k, n):  # nothing gated on the second step
        return np.array([], dtype=int) if k == 1 else np.arange(k, n, 3)

    def regress(feats, boxes, grid_indices):
        regressed.append((len(classified) - 1, feats.copy(), boxes.copy(),
                          list(grid_indices)))
        return np.full((len(boxes), 2, 4), 0.05)
    results = detect(image, GRID, regress,
                     gating_classifier(2, classified, gate), s_test=4)
    assert results
    # Four steps and the final scoring pass; no regressor call on step 2.
    assert len(classified) == 5
    assert [step for step, *_ in regressed] == [0, 2, 3]
    for step, feats, boxes, grid_indices in regressed:
        all_feats, all_boxes, all_indices, probs = classified[step]
        gated = np.flatnonzero(np.argmax(probs, axis=1))
        assert gated.tolist() == gate(step, len(all_boxes)).tolist()
        assert grid_indices == [all_indices[i] for i in gated]
        assert feats.tobytes() == all_feats[gated].tobytes()
        assert boxes.dtype == np.float64
        assert boxes.tobytes() == all_boxes[gated].tobytes()
        # The gated boxes moved; the others stayed put.
        later = classified[step + 1][1]
        assert (later[gated] != all_boxes[gated]).any(axis=1).all()
        rest = np.setdiff1d(np.arange(len(all_boxes)), gated)
        assert later[rest].tobytes() == all_boxes[rest].tobytes()


def test_gated_regressor_output_of_the_wrong_shape_names_the_gated_count():
    message = ("regressor output has shape (4, 2, 4), expected (5, K, 4) "
               "with K >= 2")
    with pytest.raises(ModelMismatchError, match=re.escape(message)):
        detect(np.zeros((40, 40)), GRID, one_row_short(zero_regressor(2)),
               gating_classifier(2, [], lambda k, n: np.arange(5)),
               s_test=1)


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
    # One final box per detection; the grid is an array.
    assert built == {Box: len(results), DeltaParams: 0}
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


def reference_finalize(fm, history, grid_indices, classifier_fn,
                       score_threshold, nms_iou):
    boxes = history[-1]
    array = boxes_to_array(boxes)
    probs = classifier_fn(build_roi_features(fm, array), array, grid_indices)
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
    h, w = image.shape
    fm = extractor.compute_global_features(image)
    boxes = generate_grid(grid_spec, w, h)
    grid_indices = list(range(len(boxes)))
    history = [boxes]
    args = (grid_indices, classifier_fn, score_threshold, nms_iou)
    out = {}
    if 0 in eval_steps:
        out[0] = reference_finalize(fm, history, *args)
    for s in range(1, max(eval_steps) + 1):
        array = boxes_to_array(boxes)
        feats = build_roi_features(fm, array)
        labels = np.argmax(classifier_fn(feats, array, grid_indices), axis=1)
        moving = np.flatnonzero(labels)
        rows = np.zeros((0, 4))
        if len(moving):
            # The regressor sees only the gated rows, in grid order.
            deltas = regressor_fn(feats[moving], array[moving],
                                  [grid_indices[i] for i in moving])
            rows = np.asarray(deltas, dtype=np.float64)[
                np.arange(len(moving)), labels[moving] - 1]
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
    modes = ("gcnn", "1step")
    models = train(ExperimentConfig(
        synth=cfg, grid_train=GridSpec((2, 4), (0.8, 0.6)),
        train=TrainConfig(seed=3, n_iter_per_stage=20)), scenes[:2], modes)
    return scenes, {m: (reg, cls) for m, (reg, cls, _) in zip(modes, models)}


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


@pytest.mark.parametrize("mode", ["gcnn", "1step"])
def test_regressing_a_subset_gives_the_full_batch_rows(trained, mode):
    scenes, models = trained
    regress, _ = model_fns(*models[mode])
    rng = np.random.default_rng(5)
    for scene in scenes:
        h, w = scene.image.shape
        boxes = grid_array(GridSpec((2, 5, 10), (0.9, 0.8, 0.7)), w, h)
        n = len(boxes)
        feats = build_roi_features(
            FeatureExtractor().compute_global_features(scene.image), boxes)
        full = regress(feats, boxes, list(range(n)))
        subsets = [[0], [n - 1], [5], [0, 1], [3, n - 1], [2, 9, 40]]
        subsets += [np.sort(rng.choice(n, size=size, replace=False)).tolist()
                    for size in rng.integers(1, n, size=40)]
        for rows in subsets:
            got = regress(feats[rows], boxes[rows], rows)
            assert got.shape == (len(rows), *full.shape[1:])
            assert got.tobytes() == full[rows].tobytes()


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
       st.sampled_from((40, 32.0, 1.0)) | st.floats(0.01, 1e3))
def test_clip_boxes_matches_clip_axis_bit_for_bit(rows, width, height):
    got = clip_boxes(np.array(rows), width, height)
    want = [reference_clip_row(r, width, height, 1.0) for r in rows]
    assert got.tobytes() == struct.pack(f"<{4 * len(rows)}d",
                                        *itertools.chain(*want))
