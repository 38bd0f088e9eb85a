import collections
import dataclasses
import errno
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from griddet.assign import Assignment, GroundTruth, TrainTuple
from griddet.boxes import Box, DeltaParams, boxes_to_array, iou_matrix
from griddet.cli import main
from griddet.config import ExperimentConfig, save_config
from griddet.features import (FEATURE_DIM, FeatureExtractor,
                              build_roi_features)
from griddet.grid import GridSpec, generate_grid
from griddet.model import (CHECKPOINT_EXTRACTOR, CHECKPOINT_MAGIC,
                           MAX_BATCH_ROWS, MAX_BATCH_UNITS, MAX_PARAMETERS,
                           MLP, MODES, BatchSampler, Grads, SGDOptimizer,
                           TrainConfig, TrainingTable, Workspace,
                           classifier_loss, load_checkpoint, make_classifier,
                           make_regressor, precompute_scene_tensors,
                           regression_loss_arrays, save_checkpoint, smooth_l1,
                           train_models)
from griddet import model as model_module
from griddet import pipeline
from griddet.pipeline import train
from griddet.records import to_plain
from griddet.synth import Scene, SynthConfig, generate_dataset


def numeric_gradient(f, params, eps=1e-5):
    """Central finite differences of a scalar function over a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + eps
            fp = f()
            p[idx] = old - eps
            fm = f()
            p[idx] = old
            g[idx] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def layer_arrays(model):
    """Every weight and bias array of model, layer by layer, weights first:
    the order of model.flat and of checkpoint arrays."""
    return [a for pair in zip(model.weights, model.biases) for a in pair]


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_smooth_l1_values():
    assert smooth_l1(0.0) == 0.0
    assert smooth_l1(0.5) == 0.125
    assert smooth_l1(3.0) == 2.5
    assert smooth_l1(-3.0) == 2.5
    assert np.allclose(smooth_l1(np.array([0.0, 0.5, 3.0])), [0, 0.125, 2.5])


def test_regression_loss_zero_at_targets():
    # A model with zero weights predicts zero deltas; zero targets give zero loss.
    rng = np.random.default_rng(0)
    model = make_regressor(6, (4,), 2, rng)
    for w in model.weights:
        w[:] = 0.0
    feats = rng.uniform(size=(5, 6))
    labels = np.array([1, 2, 1, 1, 2])
    targets = np.zeros((5, 4))
    loss, _, all_bg = regression_loss_arrays(model, feats, labels, targets)
    assert loss == 0.0 and not all_bg


def test_regression_loss_all_background():
    rng = np.random.default_rng(0)
    model = make_regressor(6, (4,), 2, rng)
    loss, grads, all_bg = regression_loss_arrays(
        model, np.zeros((0, 6)), np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
    assert loss == 0.0 and all_bg
    assert all(np.all(g == 0) for g in grads[0])


def test_regression_gradient_check():
    rng = np.random.default_rng(12)
    model = make_regressor(3, (2,), 2, rng)  # 3*2+2 + 2*8+8 = 32 params
    feats = rng.normal(size=(4, 3))
    labels = np.array([1, 2, 2, 1])
    targets = rng.normal(scale=0.8, size=(4, 4))

    def f():
        return regression_loss_arrays(model, feats, labels, targets)[0]

    _, grads, _ = regression_loss_arrays(model, feats, labels, targets)
    numeric = numeric_gradient(f, [model.flat])
    assert max_rel_error([grads.flat], numeric) < 1e-4


def test_classifier_loss_uniform_logits():
    rng = np.random.default_rng(1)
    model = make_classifier(4, (3,), 2, rng)  # K+1 = 3 outputs
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    feats = rng.uniform(size=(6, 4))
    labels = np.array([0, 1, 2, 0, 1, 2])
    loss, _ = classifier_loss(model, feats, labels)
    assert loss == pytest.approx(np.log(3))


def test_classifier_loss_confident_correct():
    rng = np.random.default_rng(1)
    model = make_classifier(2, (2,), 1, rng)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    model.biases[-1][:] = [50.0, -50.0]
    loss, _ = classifier_loss(model, np.zeros((3, 2)), np.zeros(3, dtype=int))
    assert loss < 1e-8


def test_classifier_gradient_check():
    rng = np.random.default_rng(3)
    model = make_classifier(3, (2,), 2, rng)
    feats = rng.normal(size=(5, 3))
    labels = np.array([0, 1, 2, 1, 0])

    def f():
        return classifier_loss(model, feats, labels)[0]

    _, grads = classifier_loss(model, feats, labels)
    numeric = numeric_gradient(f, [model.flat])
    assert max_rel_error([grads.flat], numeric) < 1e-4


def test_per_class_head_isolation():
    rng = np.random.default_rng(5)
    model = make_regressor(4, (3,), 3, rng)
    feats = rng.normal(size=(2, 4))
    labels = np.array([2, 2])
    targets = rng.normal(size=(2, 4))
    _, (gw, gb), _ = regression_loss_arrays(model, feats, labels, targets)
    # Last-layer columns belong to class heads; only class 2's slice moves.
    head = gw[-1].reshape(gw[-1].shape[0], 3, 4)
    bias = gb[-1].reshape(3, 4)
    assert np.all(head[:, 0] == 0) and np.all(head[:, 2] == 0)
    assert np.all(bias[0] == 0) and np.all(bias[2] == 0)
    assert np.any(head[:, 1] != 0)


def test_forward_shapes_and_linearity():
    rng = np.random.default_rng(8)
    model = make_regressor(5, (4,), 3, rng)
    feats = rng.uniform(size=(1, 5))
    out, _ = model.forward(feats)
    assert out.shape == (1, 3 * 4)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    assert np.all(model.forward(feats)[0] == 0.0)


def test_final_layer_linearity():
    rng = np.random.default_rng(9)
    model = make_regressor(5, (4,), 2, rng)
    feats = rng.uniform(size=(1, 5))
    base, _ = model.forward(feats)
    model.weights[-1] *= 2.0
    model.biases[-1] *= 2.0
    assert np.allclose(model.forward(feats)[0], 2.0 * base)


def test_dimension_mismatch():
    model = MLP([4, 2])
    from griddet.model import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        model.forward(np.zeros((1, 5)))


def test_parameters_are_views_of_one_flat_vector():
    model = make_regressor(5, (4,), 2, np.random.default_rng(2))
    assert model.flat.shape == (5 * 4 + 4 + 4 * 8 + 8,)
    arrays = layer_arrays(model)
    assert all(np.shares_memory(p, model.flat) for p in arrays)
    assert np.array_equal(np.concatenate([p.ravel() for p in arrays]),
                          model.flat)
    model.flat[:] = 0.0
    assert all(np.all(p == 0.0) for p in arrays)


def test_forward_and_backward_return_fresh_arrays():
    rng = np.random.default_rng(4)
    model = make_classifier(4, (3,), 2, rng)
    x = rng.normal(size=(6, 4))
    out, cache = model.forward(x)
    assert not any(np.shares_memory(out, a) for a in (x, model.flat))
    dout = rng.normal(size=out.shape)
    kept = dout.copy()
    ws1, ws2 = Workspace(model, len(dout)), Workspace(model, len(dout))
    g1 = model.backward(cache, dout, ws1)
    g2 = model.backward(cache, dout, ws2)
    assert np.array_equal(dout, kept)
    assert g1 is ws1.grads and g2 is ws2.grads
    assert not any(np.shares_memory(g, a) for g in (g1.flat, g2.flat)
                   for a in (x, model.flat, dout, *cache))
    assert not np.shares_memory(g1.flat, g2.flat)
    assert np.array_equal(g1.flat, g2.flat)
    gw, gb = g1
    assert [g.shape for g in gw] == [w.shape for w in model.weights]
    assert [g.shape for g in gb] == [b.shape for b in model.biases]


def test_losses_return_fresh_gradient_vectors():
    rng = np.random.default_rng(6)
    reg = make_regressor(5, (4,), 3, rng)
    cls = make_classifier(5, (4,), 3, rng)
    feats = rng.normal(size=(7, 5))
    labels = np.array([1, 3, 2, 2, 1, 3, 1])
    targets = rng.normal(size=(7, 4))
    _, r1, _ = regression_loss_arrays(reg, feats, labels, targets)
    _, r2, _ = regression_loss_arrays(reg, feats, labels, targets)
    _, c1 = classifier_loss(cls, feats, labels - 1)
    _, c2 = classifier_loss(cls, feats, labels - 1)
    flats = [r1.flat, r2.flat, c1.flat, c2.flat]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(flats) for b in flats[i + 1:])
    assert not any(np.shares_memory(g, m.flat)
                   for g, m in zip(flats, (reg, reg, cls, cls)))
    assert r1.flat.tobytes() == r2.flat.tobytes()
    assert c1.flat.tobytes() == c2.flat.tobytes()


def test_public_losses_check_labels():
    rng = np.random.default_rng(6)
    reg = make_regressor(5, (), 3, rng)
    cls = make_classifier(5, (), 3, rng)
    feats = rng.normal(size=(2, 5))
    for bad in (0, 4):
        with pytest.raises(ValueError, match="regression labels"):
            regression_loss_arrays(reg, feats, np.array([1, bad]),
                                   np.zeros((2, 4)))
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="classifier labels"):
            classifier_loss(cls, feats, np.array([0, bad]))


def test_sgd_momentum_step():
    model = MLP([1, 1], np.random.default_rng(0))
    model.weights[0][:] = 1.0
    model.biases[0][:] = 0.0
    opt = SGDOptimizer(model, lr=0.1, momentum=0.5)
    grads = Grads(np.array([1.0, 0.0]), model.layer_sizes)
    assert grads[0][0].shape == (1, 1) and grads[1][0].shape == (1,)
    opt.step(grads)
    assert model.weights[0][0, 0] == pytest.approx(0.9)
    opt.step(grads)
    # velocity: -0.1, then 0.5*(-0.1) - 0.1 = -0.15
    assert model.weights[0][0, 0] == pytest.approx(0.75)
    assert np.array_equal(grads.flat, [1.0, 0.0])


@pytest.fixture(scope="module")
def small_training_setup():
    synth = SynthConfig(seed=3, image_size=(64, 64), objects_per_scene=(1, 2),
                        size_range=(0.2, 0.5))
    scenes = generate_dataset(synth, 6)
    config = TrainConfig(seed=3, n_iter_per_stage=60, learning_rate=0.05)
    grid_spec = GridSpec((2, 4), (0.8, 0.7))
    table = precompute_scene_tensors(scenes, grid_spec, config)
    return scenes, config, grid_spec, table


def test_training_modes_equal_total_iterations(small_training_setup):
    _, config, _, table = small_training_setup
    for mode in ("gcnn", "1step", "ifrcnn"):
        _, _, log = train_models(BatchSampler(table, config, 4), mode)
        assert log.total_iterations == config.s_train * config.n_iter_per_stage


def test_gcnn_has_stage_boundaries(small_training_setup):
    _, config, _, table = small_training_setup
    _, _, log = train_models(BatchSampler(table, config, 4), "gcnn")
    assert log.stage_boundaries == [0, config.n_iter_per_stage,
                                    2 * config.n_iter_per_stage]
    _, _, log1 = train_models(BatchSampler(table, config, 4), "1step")
    assert log1.stage_boundaries == [0]


def test_training_deterministic(small_training_setup):
    _, config, _, table = small_training_setup
    r1, c1, _ = train_models(BatchSampler(table, config, 4), "gcnn")
    r2, c2, _ = train_models(BatchSampler(table, config, 4), "gcnn")
    assert r1.flat.tobytes() == r2.flat.tobytes()
    assert c1.flat.tobytes() == c2.flat.tobytes()


def test_single_stage_modes_coincide(small_training_setup):
    scenes, config, grid_spec, _ = small_training_setup
    cfg1 = dataclasses.replace(config, s_train=1, n_iter_per_stage=30)
    table = precompute_scene_tensors(scenes, grid_spec, cfg1)
    rg, cg, lg = train_models(BatchSampler(table, cfg1, 4), "gcnn")
    ro, co, lo = train_models(BatchSampler(table, cfg1, 4), "1step")
    assert rg.flat.tobytes() == ro.flat.tobytes()
    assert cg.flat.tobytes() == co.flat.tobytes()
    assert [e["reg_loss"] for e in lg.entries] == \
        [e["reg_loss"] for e in lo.entries]


def _reference_train(table, config, mode, num_classes):
    """Straightforward training loop, kept as the reference for train_models:
    per-layer parameter arrays replaced by allocating updates, and batches
    concatenated from per-image parts of each scene's slice of the table.
    Returns (params, log entries, stage boundaries)."""

    def init(sizes, seed):
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return weights, biases

    def forward(weights, biases, x):
        activations = [x]
        h = x
        for i, (w, b) in enumerate(zip(weights, biases)):
            h = h @ w + b
            if i < len(weights) - 1:
                h = np.maximum(h, 0.0)
            activations.append(h)
        return h, activations

    def backward(weights, activations, dout):
        grads_w = [None] * len(weights)
        grads_b = [None] * len(weights)
        g = dout
        for i in reversed(range(len(weights))):
            grads_w[i] = activations[i].T @ g
            grads_b[i] = g.sum(axis=0)
            if i > 0:
                g = g @ weights[i].T
                g = g * (activations[i] > 0)
        return grads_w, grads_b

    def regression(weights, biases, feats, labels, targets):
        n = feats.shape[0]
        out, cache = forward(weights, biases, feats)
        k = out.shape[1] // 4
        pred = out.reshape(n, k, 4)
        rows = np.arange(n)
        residual = pred[rows, labels - 1] - targets
        absx = np.abs(residual)
        loss = float(np.where(absx < 1.0, 0.5 * residual * residual,
                              absx - 0.5).sum() / n)
        dout = np.zeros_like(pred)
        dout[rows, labels - 1] = np.clip(residual, -1.0, 1.0) / n
        return loss, backward(weights, cache, dout.reshape(n, 4 * k))

    def classification(weights, biases, feats, labels):
        n = feats.shape[0]
        logits, cache = forward(weights, biases, feats)
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        rows = np.arange(n)
        loss = float(-np.log(np.maximum(probs[rows, labels], 1e-300)).mean())
        dout = probs.copy()
        dout[rows, labels] -= 1.0
        dout /= n
        return loss, backward(weights, cache, dout)

    def sgd_step(weights, biases, velocity, grads):
        for params, vels, gs in zip((weights, biases), velocity, grads):
            for i in range(len(params)):
                vels[i] = (config.momentum * vels[i]
                           - config.learning_rate * gs[i])
                params[i] = params[i] + vels[i]

    def sample_batch(scene_ids, rng, stage, direct):
        per_image = config.samples_per_image_per_step
        n_fg_cls = max(1, int(round(per_image / (1.0 + config.fg_bg_ratio))))
        n_bg_cls = per_image - n_fg_cls
        reg_feats, reg_labels, reg_targets = [], [], []
        cls_feats, cls_labels = [], []
        for sid in scene_ids:
            rows = slice(table.offsets[sid], table.offsets[sid + 1])
            feats, labels = table.feats[rows], table.labels[rows]
            steps = table.steps[rows]
            targets = (table.direct if direct else table.targets)[rows]
            pool = np.flatnonzero(steps == 1 if direct
                                  else (steps >= 1) & (steps <= stage))
            if len(pool) > 0:
                pick = pool[rng.integers(0, len(pool), size=per_image)]
                reg_feats.append(feats[pick])
                reg_labels.append(labels[pick])
                reg_targets.append(targets[pick])
            step1 = np.flatnonzero(steps == 1)
            if len(step1) > 0:
                pick = step1[rng.integers(0, len(step1), size=n_fg_cls)]
                cls_feats.append(feats[pick])
                cls_labels.append(labels[pick])
            bg = np.flatnonzero(steps == 0)
            if len(bg) > 0:
                pick = bg[rng.integers(0, len(bg), size=n_bg_cls)]
                cls_feats.append(feats[pick])
                cls_labels.append(np.zeros(n_bg_cls, dtype=np.int64))

        def stack(parts, width):
            return np.concatenate(parts) if parts else np.zeros((0, width))
        return (stack(reg_feats, FEATURE_DIM),
                np.concatenate(reg_labels or [[]]), stack(reg_targets, 4),
                stack(cls_feats, FEATURE_DIM),
                np.concatenate(cls_labels or [[]]))

    init_reg, init_cls, batch_ss = np.random.SeedSequence(config.seed).spawn(3)
    hidden = list(config.hidden_sizes)
    reg_w, reg_b = init([FEATURE_DIM, *hidden, 4 * num_classes], init_reg)
    cls_w, cls_b = init([FEATURE_DIM, *hidden, num_classes + 1], init_cls)
    reg_vel = ([np.zeros_like(w) for w in reg_w],
               [np.zeros_like(b) for b in reg_b])
    cls_vel = ([np.zeros_like(w) for w in cls_w],
               [np.zeros_like(b) for b in cls_b])
    rng = np.random.default_rng(batch_ss)
    n_iter = config.n_iter_per_stage
    stages = range(1, config.s_train + 1)
    phases = {"gcnn": [(c, n_iter, False) for c in stages],
              "1step": [(config.s_train, config.s_train * n_iter, False)],
              "ifrcnn": [(1, config.s_train * n_iter, True)]}[mode]
    entries, boundaries = [], []
    for stage, iterations, direct in phases:
        boundaries.append(len(entries))
        for it in range(iterations):
            n_scenes = len(table.offsets) - 1
            scene_ids = rng.choice(
                n_scenes, size=config.images_per_batch,
                replace=n_scenes < config.images_per_batch)
            rf, rl, rt, cf, cl = sample_batch(scene_ids, rng, stage, direct)
            all_bg = len(rf) == 0
            reg_loss = 0.0
            if not all_bg:
                reg_loss, grads = regression(reg_w, reg_b, rf, rl, rt)
                sgd_step(reg_w, reg_b, reg_vel, grads)
            cls_loss = 0.0
            if len(cf) > 0:
                cls_loss, grads = classification(cls_w, cls_b, cf, cl)
                sgd_step(cls_w, cls_b, cls_vel, grads)
            entries.append({"stage": stage, "iteration": it,
                            "reg_loss": reg_loss, "cls_loss": cls_loss,
                            "all_background": all_bg})
    params = [a for pair in zip(reg_w, reg_b) for a in pair] + \
        [a for pair in zip(cls_w, cls_b) for a in pair]
    return params, entries, boundaries


def _keep_rows(table, kinds):
    """The first len(kinds) scenes of table, each with only its rows of one
    kind, "fg", "bg" or "all", and the offsets recomputed."""
    keep = np.zeros(len(table.steps), dtype=bool)
    for kind, start, end in zip(kinds, table.offsets, table.offsets[1:]):
        fg = table.steps[start:end] > 0
        keep[start:end] = {"fg": fg, "bg": ~fg, "all": True}[kind]
    kept = np.concatenate([[0], np.cumsum(keep)])
    return TrainingTable(
        table.feats[keep], table.labels[keep], table.steps[keep],
        table.targets[keep], table.direct[keep],
        kept[table.offsets[:len(kinds) + 1]])


# Scene 1 without foreground rows and scene 2 without background rows, so
# that batches which draw them come out short.
SHORT = ("all", "bg", "fg", "all", "all", "all")

# case -> (TrainConfig overrides, kinds of rows kept per scene of the
# fixture's table)
REFERENCE_CASES = {
    "short_batches": ({}, SHORT),
    # Fewer scenes than images per batch: scenes are drawn with replacement,
    # and a batch of only the foreground-free scene is all background.
    "replace": ({"images_per_batch": 3}, ("all", "bg")),
    "no_hidden_layer": ({"hidden_sizes": ()}, ("all",) * 6),
    "two_hidden_layers": ({"hidden_sizes": (16, 8)}, ("all",) * 6),
    # One row per head, or none: numpy sends one-row products to gemv, and
    # the workspace's one-row views must give the allocating loop's bits.
    # Batches of scene 1 alone are all background.
    "one_row_batches": ({"images_per_batch": 1,
                         "samples_per_image_per_step": 1}, SHORT),
}


@pytest.mark.parametrize("mode", ["gcnn", "1step", "ifrcnn"])
@pytest.mark.parametrize("overrides, kinds", REFERENCE_CASES.values(),
                         ids=REFERENCE_CASES.keys())
def test_train_models_matches_reference_loop(small_training_setup, mode,
                                             overrides, kinds):
    _, config, _, full = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20, **overrides)
    table = _keep_rows(full, kinds)
    assert len(table.offsets) == len(kinds) + 1
    reg, cls, log = train_models(BatchSampler(table, config, 4), mode)
    params, entries, boundaries = _reference_train(table, config, mode, 4)
    got = layer_arrays(reg) + layer_arrays(cls)
    assert [a.shape for a in got] == [a.shape for a in params]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, params))
    assert log.entries == entries
    assert log.stage_boundaries == boundaries
    if "images_per_batch" in overrides:
        assert any(e["all_background"] for e in entries)


@pytest.mark.parametrize("bad_label", [0, 5])
def test_train_models_rejects_labels_outside_classes(small_training_setup,
                                                     bad_label):
    _, config, _, table = small_training_setup
    start, end = table.offsets[1:3]
    labels = table.labels.copy()
    labels[start + np.flatnonzero(table.steps[start:end])[-1]] = bad_label
    table = dataclasses.replace(table, labels=labels)
    with pytest.raises(ValueError, match=r"scene tensors 1: foreground "
                       r"labels must be in 1\.\.4"):
        train_models(BatchSampler(table, config, 4), "gcnn")


_affinity, _set_affinity = os.sched_getaffinity, os.sched_setaffinity


def _cpus(monkeypatch, n):
    """Let train_models see n usable CPUs: its classifier loop runs inline
    on one and in a forked child on two. The two-CPU set holds this
    process's own CPUs, which the forked path gives back to it. A pin
    narrows the set that this process, and a child forked after it, sees,
    and is passed on to the system where it allows it."""
    seen = [set(range(n)) | (_affinity(0) if n > 1 else set())]

    def pin(pid, cpus):
        seen[0] = set(cpus)
        _set_affinity(pid, cpus)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(seen[0]))
    monkeypatch.setattr(os, "sched_setaffinity", pin)


def _model_bytes(models):
    reg, cls, log = models
    return reg.flat.tobytes(), cls.flat.tobytes(), log_bytes(log)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The counts below are of calls in this process. Each test runs on the
# inline path (one CPU), where every count holds, and has a forked twin (two
# CPUs), where this process runs the regressor's share only and the bytes
# equal the inline path's.

def _steps_from_one_buffer_per_model(setup, monkeypatch, cpus):
    _, config, _, table = setup
    config = dataclasses.replace(config, n_iter_per_stage=5)
    _cpus(monkeypatch, 1)
    want = _model_bytes(train_models(BatchSampler(table, config, 4), "gcnn"))
    _cpus(monkeypatch, cpus)
    seen = []
    step = SGDOptimizer.step

    def record(self, grads):
        seen.append((id(self.model), grads.flat.ctypes.data))
        return step(self, grads)

    monkeypatch.setattr(SGDOptimizer, "step", record)
    got = train_models(BatchSampler(table, config, 4), "gcnn")
    assert _model_bytes(got) == want
    regressor, classifier, _ = got
    stepped = {id(regressor)} | ({id(classifier)} if cpus == 1 else set())
    assert len(seen) == len(stepped) * 3 * 5
    assert len(set(seen)) == len(stepped) and {m for m, _ in seen} == stepped


def test_train_models_steps_from_one_buffer_per_model(small_training_setup,
                                                      monkeypatch):
    _steps_from_one_buffer_per_model(small_training_setup, monkeypatch, 1)


def test_forked_train_models_steps_the_regressor_from_one_buffer(
        small_training_setup, monkeypatch):
    _steps_from_one_buffer_per_model(small_training_setup, monkeypatch, 2)


def _gathers_each_batch_in_five_takes(setup, monkeypatch, mode, cpus):
    _, config, _, table = setup
    config = dataclasses.replace(config, n_iter_per_stage=4)
    takes = []

    class Counting(np.ndarray):
        def take(self, *args, **kwargs):
            takes.append(self.shape)
            return super().take(*args, **kwargs)

    counted = TrainingTable(*(getattr(table, f.name).view(Counting)
                              for f in dataclasses.fields(TrainingTable)))
    shared = mode == "shared"
    got = []
    for n in (1, cpus):
        _cpus(monkeypatch, n)
        sampler = BatchSampler(counted, config, 4)
        if shared:
            train_models(sampler, "gcnn")
        takes.clear()
        got.append(_model_bytes(train_models(
            sampler, "1step" if shared else mode)))
    assert got[0] == got[1]
    # Features, labels and targets of every batch's regression rows, then,
    # unless the sampler gives the classifier or a child trains it,
    # features and labels of every batch's classifier rows.
    regression = [table.feats.shape, table.labels.shape, table.targets.shape]
    classifier = [table.feats.shape, table.labels.shape]
    assert takes == regression * (3 * 4) + (
        [] if shared or cpus == 2 else classifier * (3 * 4))


# "shared": a 1step call on the sampler of a gcnn call, whose picks match.
@pytest.mark.parametrize("mode", [*MODES, "shared"])
def test_train_models_gathers_each_batch_in_five_takes(small_training_setup,
                                                        monkeypatch, mode):
    _gathers_each_batch_in_five_takes(small_training_setup, monkeypatch, mode,
                                      1)


@pytest.mark.parametrize("mode", [*MODES, "shared"])
def test_forked_train_models_gathers_each_regression_batch_in_three_takes(
        small_training_setup, monkeypatch, mode):
    _gathers_each_batch_in_five_takes(small_training_setup, monkeypatch, mode,
                                      2)


@pytest.mark.parametrize("mode", MODES)
def test_train_models_draws_each_batch_in_one_integers_call(
        small_training_setup, monkeypatch, mode):
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=4)
    calls = []

    class Counting(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(args)
            return super().integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: Counting(np.random.PCG64(seed)))
    train_models(BatchSampler(table, config, 4), mode)
    assert len(calls) == 3 * 4


def test_one_integers_call_draws_as_one_call_per_pool():
    # BatchSampler.draw relies on this property of numpy's bounded sampler:
    # one call with an array of highs gives the values, and leaves the
    # state, of one call per part, and a high of 1 uses no stream words.
    # Highs just above 2**31 reject about half of their words.
    lengths = [0, 1, 2, 3, 7, 100, 2 ** 31 + 1, 2 ** 31 + 12345, 2 ** 32 - 5,
               2 ** 32]
    layout = np.random.default_rng(99)
    for seed in range(300):
        parts = [(int(layout.integers(6)), lengths[i])
                 for i in layout.integers(len(lengths), size=8)]
        one, per_part = (np.random.default_rng(seed) for _ in range(2))
        got = one.integers(0, np.repeat([max(n, 1) for _, n in parts],
                                        [k for k, _ in parts]))
        want = [per_part.integers(n, size=k) if n else np.zeros(k, int)
                for k, n in parts]
        assert got.tolist() == np.concatenate(want).tolist()
        assert one.bit_generator.state == per_part.bit_generator.state


def test_stage_pool_size(small_training_setup):
    scenes, config, grid_spec, table = small_training_setup
    assert len(table.offsets) == len(scenes) + 1
    for start, end in zip(table.offsets, table.offsets[1:]):
        steps = table.steps[start:end]
        n_fg_boxes = int(np.sum(steps == 1))
        for stage in (1, 2, 3):
            pool = int(np.sum((steps >= 1) & (steps <= stage)))
            assert pool == n_fg_boxes * stage
        # Foreground rows first, then background rows.
        assert (steps[:3 * n_fg_boxes] > 0).all()
        assert (steps[3 * n_fg_boxes:] == 0).all()


# The object path that precompute_scene_tensors replaced, kept as its
# reference: assign_grid's per-box loop, then build_train_tuples' per-step
# target_step and delta on Box and DeltaParams objects, turned into arrays.

def _reference_assign(grid, gts, bg_threshold):
    if not gts:
        return [None] * len(grid)
    ious = iou_matrix(boxes_to_array(grid), boxes_to_array([g.box for g in gts]))
    best = np.argmax(ious, axis=1)
    return [gts[j] if ious[i, j] > bg_threshold else None
            for i, j in enumerate(best.tolist())]


def _reference_step(b, g, s, s_train):
    if s == s_train:
        return g
    f = 1.0 / (s_train - s + 1)
    return Box(b.cx + (g.cx - b.cx) * f, b.cy + (g.cy - b.cy) * f,
               b.w + (g.w - b.w) * f, b.h + (g.h - b.h) * f)


def _reference_delta(b, t):
    return DeltaParams((t.cx - b.cx) / b.w, (t.cy - b.cy) / b.h,
                       math.log(t.w / b.w), math.log(t.h / b.h))


def reference_precompute(scenes, grid_spec, config):
    extractor = FeatureExtractor()
    out = []
    for scene in scenes:
        h, w = scene.image.shape
        grid = generate_grid(grid_spec, w, h)
        fm = extractor.compute_global_features(scene.image)
        fg, bg, direct = [], [], []  # fg rows: (state, step, label, delta)
        for b, gt in zip(grid, _reference_assign(grid, scene.gts,
                                                 config.bg_threshold)):
            if gt is None:
                bg.append(b)
                continue
            direct.append(_reference_delta(b, gt.box))
            for s in range(1, config.s_train + 1):
                t = _reference_step(b, gt.box, s, config.s_train)
                fg.append((b, s, gt.class_label, _reference_delta(b, t)))
                b = t
        bg_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, scene.scene_id, 2]))
        if len(bg) > config.max_bg_per_scene:
            keep = bg_rng.choice(len(bg), size=config.max_bg_per_scene,
                                 replace=False)
            bg = [bg[i] for i in sorted(keep)]
        fg_feats = build_roi_features(
            fm, boxes_to_array([row[0] for row in fg]))
        bg_feats = build_roi_features(fm, boxes_to_array(bg))
        fg_labels = np.array([row[2] for row in fg], dtype=np.int64)
        fg_steps = np.array([row[1] for row in fg], dtype=np.int64)
        fg_targets = np.array([row[3].as_array() for row in fg]) \
            if fg else np.zeros((0, 4))
        direct_targets = np.zeros_like(fg_targets)
        direct_targets[fg_steps == 1] = np.reshape(
            [d.as_array() for d in direct], (-1, 4))
        # Per table column, the scene's foreground and background rows.
        zeros = np.zeros(len(bg), dtype=np.int64)
        out.append({"feats": (fg_feats, bg_feats),
                    "labels": (fg_labels, zeros),
                    "steps": (fg_steps, zeros),
                    "targets": (fg_targets, np.zeros((len(bg), 4))),
                    "direct": (direct_targets, np.zeros((len(bg), 4)))})
    return out


# Scale 2 of this grid on a 64 x 64 image is four 32 x 32 boxes; the first
# is centred at (16, 16).
HAND_GRID = GridSpec((2, 4), (0.0, 0.5))


def _hand_scene(scene_id, *gts):
    image = np.random.default_rng(scene_id).uniform(size=(64, 64))
    return Scene(image, [GroundTruth(Box(*box), label) for box, label in gts],
                 scene_id, 0)


def _synth_scenes():
    synth = SynthConfig(seed=5, image_size=(64, 64), objects_per_scene=(1, 3),
                        size_range=(0.15, 0.5))
    return generate_dataset(synth, 4)


# (scenes, grid, TrainConfig overrides). Every other case subsamples the
# background.
PRECOMPUTE_CASES = {
    "s_train_1": (_synth_scenes, GridSpec((2, 4), (0.8, 0.7)),
                  dict(s_train=1, max_bg_per_scene=20)),
    "s_train_3": (_synth_scenes, GridSpec((2, 4), (0.8, 0.7)),
                  dict(s_train=3, max_bg_per_scene=20)),
    "s_train_5": (_synth_scenes, GridSpec((2, 4), (0.8, 0.7)),
                  dict(s_train=5, max_bg_per_scene=20)),
    "no_ground_truth": (lambda: [_hand_scene(1)], HAND_GRID,
                        dict(max_bg_per_scene=8)),
    "no_rows": (lambda: [_hand_scene(1), _hand_scene(2)], HAND_GRID,
                dict(max_bg_per_scene=0)),
    "no_background": (_synth_scenes, GridSpec((2, 4), (0.8, 0.7)),
                      dict(max_bg_per_scene=0)),
    "all_background": (lambda: [_hand_scene(2, ((62, 62, 2, 2), 1))],
                       HAND_GRID, dict(max_bg_per_scene=8)),
    "fewer_background_than_max": (
        lambda: [_hand_scene(3, ((20, 20, 30, 30), 2))], HAND_GRID,
        dict(max_bg_per_scene=10_000)),
    "tied_ground_truths": (
        lambda: [_hand_scene(4, ((8, 16, 32, 32), 1), ((24, 16, 32, 32), 2))],
        HAND_GRID, dict(max_bg_per_scene=8)),
    "ground_truth_on_a_grid_box": (
        lambda: [_hand_scene(5, ((16, 16, 32, 32), 3))], HAND_GRID,
        dict(max_bg_per_scene=8)),
    "iou_at_bg_threshold": (
        lambda: [_hand_scene(6, ((3.2, 16, 6.4, 32), 1))], HAND_GRID,
        dict(max_bg_per_scene=8)),
}


@pytest.mark.parametrize("make_scenes, grid_spec, overrides",
                         PRECOMPUTE_CASES.values(), ids=PRECOMPUTE_CASES.keys())
def test_precompute_matches_reference_object_path(make_scenes, grid_spec,
                                                  overrides):
    scenes = make_scenes()
    config = TrainConfig(seed=9, **overrides)
    got = precompute_scene_tensors(scenes, grid_spec, config)
    want = reference_precompute(scenes, grid_spec, config)
    assert len(got.offsets) - 1 == len(want) == len(scenes)
    assert got.offsets[0] == 0 and got.offsets[-1] == len(got.steps)
    for start, end, w in zip(got.offsets, got.offsets[1:], want):
        for name, parts in w.items():
            a, b = getattr(got, name)[start:end], np.concatenate(parts)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


def test_precompute_cases_exercise_their_edge():
    def table(name):
        make_scenes, grid_spec, overrides = PRECOMPUTE_CASES[name]
        return precompute_scene_tensors(make_scenes(), grid_spec,
                                        TrainConfig(**overrides))
    assert not table("no_ground_truth").steps.any()
    assert table("no_rows").feats.shape == (0, FEATURE_DIM)
    assert table("no_background").steps.all()
    assert not table("all_background").steps.any()
    assert np.sum(table("fewer_background_than_max").steps == 0) < 10_000
    # The first grid box overlaps both ground truths at IoU 0.6 and takes
    # the first one's class.
    assert iou_matrix([[16, 16, 32, 32]], [[8, 16, 32, 32], [24, 16, 32, 32]]
                      ).tolist() == [[0.6, 0.6]]
    assert table("tied_ground_truths").labels[0] == 1
    on_grid = table("ground_truth_on_a_grid_box")
    assert on_grid.steps[0] == 1
    assert on_grid.targets[0].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert iou_matrix([[16, 16, 32, 32]], [[3.2, 16, 6.4, 32]])[0, 0] == 0.2


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("make_scenes, grid_spec, overrides",
                         PRECOMPUTE_CASES.values(), ids=PRECOMPUTE_CASES.keys())
def test_every_mode_trains_on_every_precompute_case(make_scenes, grid_spec,
                                                    overrides, mode):
    # Empty pools, the last scene's background pool among them, and a table
    # of no rows at all: the reference loop's bits.
    config = TrainConfig(seed=9, n_iter_per_stage=4, **overrides)
    table = precompute_scene_tensors(make_scenes(), grid_spec, config)
    reg, cls, log = train_models(BatchSampler(table, config, 4), mode)
    params, entries, boundaries = _reference_train(table, config, mode, 4)
    got = layer_arrays(reg) + layer_arrays(cls)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in params]
    assert log.entries == entries
    assert log.stage_boundaries == boundaries


def test_precompute_builds_no_box_or_tuple_objects(monkeypatch):
    scenes = _synth_scenes()
    built = {cls: 0 for cls in (Assignment, TrainTuple, Box, DeltaParams)}
    for cls in built:
        def count(self, *args, cls=cls, init=cls.__init__, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", count)
    table = precompute_scene_tensors(scenes, GridSpec((2, 4), (0.8, 0.7)),
                                     TrainConfig(max_bg_per_scene=20))
    assert table.steps.any()
    assert built == {cls: 0 for cls in built}
    Box(1, 1, 1, 1)
    assert built[Box] == 1


def test_training_loss_decreases():
    # Single scene with one object: the regression loss must drop by more
    # than half between the start and the end of training.
    synth = SynthConfig(seed=7, image_size=(64, 64), objects_per_scene=(1, 1),
                        size_range=(0.25, 0.5))
    scenes = generate_dataset(synth, 1)
    config = TrainConfig(seed=7, n_iter_per_stage=120, learning_rate=0.05)
    grid_spec = GridSpec((2, 4), (0.8, 0.7))
    table = precompute_scene_tensors(scenes, grid_spec, config)
    _, _, log = train_models(BatchSampler(table, config, 4), "gcnn")
    losses = [e["reg_loss"] for e in log.entries if not e["all_background"]]
    head = np.mean(losses[:5])
    tail = np.mean(losses[-5:])
    assert tail < 0.5 * head


def experiment(config, grid_spec, **overrides) -> ExperimentConfig:
    """The small training setup as an ExperimentConfig (4 classes)."""
    return ExperimentConfig(grid_train=grid_spec,
                            train=dataclasses.replace(config, **overrides))


def reference_train(config: ExperimentConfig, scenes, mode):
    """The precompute + train_models sequence that the training entry points
    each wrote out before pipeline.train; kept as its reference."""
    table = precompute_scene_tensors(scenes, config.grid_train,
                                     config.train)
    return train_models(BatchSampler(table, config.train,
                                     config.synth.num_classes), mode)


def log_bytes(log) -> bytes:
    # json writes each float as its shortest round-trip repr: equal text is
    # equal bits.
    return json.dumps(dataclasses.asdict(log)).encode()


def test_train_entry_point(small_training_setup):
    scenes, config, grid_spec, _ = small_training_setup
    [(reg, cls, log)] = train(experiment(config, grid_spec), scenes)
    assert reg.output_dim == 4 * 4
    assert cls.output_dim == 5
    assert log.total_iterations == config.s_train * config.n_iter_per_stage


@pytest.mark.parametrize("modes", [None, ["1step"], ["ifrcnn"], MODES])
def test_train_matches_reference(small_training_setup, modes):
    scenes, config, grid_spec, _ = small_training_setup
    cfg = experiment(config, grid_spec)
    got = train(cfg, scenes, modes)
    modes = [cfg.mode] if modes is None else modes
    assert len(got) == len(modes)
    for mode, (reg, cls, log) in zip(modes, got):
        want_reg, want_cls, want_log = reference_train(cfg, scenes, mode)
        assert reg.flat.tobytes() == want_reg.flat.tobytes()
        assert cls.flat.tobytes() == want_cls.flat.tobytes()
        assert log_bytes(log) == log_bytes(want_log)


def test_train_pools_once_for_all_modes(small_training_setup, monkeypatch):
    scenes, config, grid_spec, _ = small_training_setup
    calls = []
    pool = FeatureExtractor.compute_global_features

    def counting(self, image):
        calls.append(image)
        return pool(self, image)

    monkeypatch.setattr(FeatureExtractor, "compute_global_features", counting)
    models = train(experiment(config, grid_spec, n_iter_per_stage=5), scenes,
                   MODES)
    assert len(models) == len(MODES)
    assert len(calls) == len(scenes)


def test_train_builds_one_sampler_for_all_modes(small_training_setup,
                                                monkeypatch):
    scenes, config, grid_spec, _ = small_training_setup
    built, used = [], []
    init, train_one = BatchSampler.__init__, pipeline.train_models

    def building(self, *args):
        built.append(self)
        init(self, *args)

    def training(sampler, mode):
        used.append(sampler)
        return train_one(sampler, mode)

    monkeypatch.setattr(BatchSampler, "__init__", building)
    monkeypatch.setattr(pipeline, "train_models", training)
    models = train(experiment(config, grid_spec, n_iter_per_stage=5), scenes,
                   MODES)
    assert len(models) == len(MODES) and len(built) == 1
    assert used == built * len(MODES)


def _steps_each_classifier_once(setup, monkeypatch, cpus):
    # Every batch of the fixture has foreground and classifier rows, so each
    # regressor steps at every iteration; the classifier of the first mode
    # serves all three. Its steps are counted in this process on the inline
    # path only: on the forked path a child takes them, and another child
    # trains ifrcnn's regressor beside 1step's.
    scenes, config, grid_spec, _ = setup
    _cpus(monkeypatch, cpus)
    steps = collections.Counter()
    step = SGDOptimizer.step

    def counting(self, grads):
        steps["classifier" if self.model.output_dim == 5 else "regressor"] += 1
        return step(self, grads)

    monkeypatch.setattr(SGDOptimizer, "step", counting)
    cfg = experiment(config, grid_spec, n_iter_per_stage=5)
    train(cfg, scenes, MODES)
    n = cfg.train.s_train * 5
    assert steps == collections.Counter(regressor=(3 if cpus == 1 else 2) * n,
                                        classifier=n if cpus == 1 else 0)


def test_train_steps_each_classifier_once(small_training_setup, monkeypatch):
    _steps_each_classifier_once(small_training_setup, monkeypatch, 1)


def test_forked_train_steps_no_classifier_here(small_training_setup,
                                                monkeypatch):
    _steps_each_classifier_once(small_training_setup, monkeypatch, 2)


def test_train_returns_distinct_classifiers_with_equal_bytes(
        small_training_setup):
    scenes, config, grid_spec, _ = small_training_setup
    models = train(experiment(config, grid_spec, n_iter_per_stage=5), scenes,
                   MODES)
    classifiers = [cls for _, cls, _ in models]
    for a, b in itertools.combinations(classifiers, 2):
        assert a is not b and not np.shares_memory(a.flat, b.flat)
        assert a.flat.tobytes() == b.flat.tobytes()


def _perturb_draw(monkeypatch, at, edit):
    """Make the classifier picks of BatchSampler.draw's call number `at`
    (from 0, counted from now) differ: "move" shifts its first pick to the
    next table row, "drop" leaves its last pick out."""
    draw = BatchSampler.draw
    calls = itertools.count()

    def perturbed(self, rng, scene_ids, pools):
        reg_picks, cls_picks = draw(self, rng, scene_ids, pools)
        if next(calls) == at:
            assert len(cls_picks) > 1
            if edit == "drop":
                return reg_picks, cls_picks[:-1]
            cls_picks[0] = (cls_picks[0] + 1) % len(self.table.labels)
        return reg_picks, cls_picks

    monkeypatch.setattr(BatchSampler, "draw", perturbed)


@pytest.mark.parametrize("edit", ["move", "drop"])
@pytest.mark.parametrize("at", [0, 7, 3 * 20 - 1])
def test_later_mode_trains_its_own_classifier_where_its_picks_differ(
        small_training_setup, monkeypatch, at, edit):
    # The second mode's classifier picks differ from the first mode's at one
    # iteration: it must train its own classifier, as it would alone.
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20)
    sampler = BatchSampler(table, config, 4)
    _, first_cls, _ = train_models(sampler, "gcnn")
    _perturb_draw(monkeypatch, at, edit)
    reg, cls, log = train_models(sampler, "1step")
    _perturb_draw(monkeypatch, at, edit)
    want_reg, want_cls, want_log = train_models(BatchSampler(table, config, 4),
                                                "1step")
    assert reg.flat.tobytes() == want_reg.flat.tobytes()
    assert cls.flat.tobytes() == want_cls.flat.tobytes()
    assert log_bytes(log) == log_bytes(want_log)
    assert cls.flat.tobytes() != first_cls.flat.tobytes()
    # The sampler still holds the first mode's classifier for later modes.
    monkeypatch.undo()
    _, third_cls, _ = train_models(sampler, "ifrcnn")
    assert third_cls.flat.tobytes() == first_cls.flat.tobytes()


# case -> (TrainConfig overrides, kinds of rows kept per scene, num_classes)
# of a later call on another sampler than a first call's, at 20 iterations
# per stage
RECORD_MISMATCHES = {
    "fewer_iterations": ({"n_iter_per_stage": 5}, None, 4),
    "another_seed": ({"seed": 4}, None, 4),
    "another_table": ({}, ("all",) * 5, 4),
    "more_classes": ({}, None, 5),
    # Picks equal to the first call's: only the config tells them apart.
    "another_learning_rate": ({"learning_rate": 0.01}, None, 4),
}


@pytest.mark.parametrize("overrides, kinds, num_classes",
                         RECORD_MISMATCHES.values(),
                         ids=RECORD_MISMATCHES.keys())
def test_classifier_record_trains_its_own_for_another_setup(
        small_training_setup, overrides, kinds, num_classes):
    # A call on another sampler never gets the first sampler's classifier.
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20)
    sampler = BatchSampler(table, config, 4)
    _, first_cls, _ = train_models(sampler, "gcnn")
    later = dataclasses.replace(config, **overrides)
    later_table = table if kinds is None else _keep_rows(table, kinds)
    reg, cls, log = train_models(
        BatchSampler(later_table, later, num_classes), "1step")
    want_reg, want_cls, want_log = train_models(
        BatchSampler(later_table, later, num_classes), "1step")
    assert reg.flat.tobytes() == want_reg.flat.tobytes()
    assert cls.flat.tobytes() == want_cls.flat.tobytes()
    assert log_bytes(log) == log_bytes(want_log)
    assert cls.flat.tobytes() != first_cls.flat.tobytes()
    # The first sampler still gives a matching call its first classifier.
    _, third_cls, _ = train_models(sampler, "ifrcnn")
    assert third_cls.flat.tobytes() == first_cls.flat.tobytes()


def _count_forks(monkeypatch):
    """The forks this process makes from now on, as a list that grows."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _both_paths(monkeypatch, run, children=1):
    """run() on the inline path, then on the forked path: both results,
    after checking that only the second forked, `children` times, and that
    no child is left."""
    forks = _count_forks(monkeypatch)
    got = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        got.append(run())
        _no_child_left()
    assert len(forks) == children
    return got


def _sampler_bytes(sampler):
    (rows, offsets), losses, flat = sampler.kept
    return (rows.tobytes(), offsets.tobytes(), np.asarray(losses).tobytes(),
            np.asarray(flat).tobytes())


# "shared": a 1step call on the sampler of a gcnn call, whose picks match,
# so that only the first call trains a classifier.
@pytest.mark.parametrize("mode", [*MODES, "shared"])
def test_forked_classifier_gives_the_inline_bytes(small_training_setup,
                                                  monkeypatch, mode):
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20)

    def run():
        sampler = BatchSampler(table, config, 4)
        if mode == "shared":
            first = _model_bytes(train_models(sampler, "gcnn"))
            return first, _model_bytes(train_models(sampler, "1step")), \
                _sampler_bytes(sampler)
        return _model_bytes(train_models(sampler, mode)), \
            _sampler_bytes(sampler)

    inline, forked = _both_paths(monkeypatch, run)
    assert inline == forked
    if mode == "shared":
        assert inline[0][1] == inline[1][1]


@pytest.mark.parametrize("edit", ["move", "drop"])
def test_forked_classifier_of_a_later_mode_gives_the_inline_bytes(
        small_training_setup, monkeypatch, edit):
    # The later mode's picks differ from the kept ones, so it trains its own
    # classifier: on the forked path, in a child of its own.
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20)

    def run():
        sampler = BatchSampler(table, config, 4)
        first = _model_bytes(train_models(sampler, "gcnn"))
        with monkeypatch.context() as m:
            _perturb_draw(m, 7, edit)
            later = _model_bytes(train_models(sampler, "1step"))
        assert later[1] != first[1]
        return first, later, _sampler_bytes(sampler)

    inline, forked = _both_paths(monkeypatch, run, children=2)
    assert inline == forked


def test_train_gives_the_same_bits_on_one_cpu_and_two(small_training_setup,
                                                     monkeypatch):
    # On two CPUs, gcnn's classifier trains in one child and ifrcnn, ahead
    # of its call, in another, beside 1step: two forks, none on one CPU.
    scenes, config, grid_spec, _ = small_training_setup
    cfg = experiment(config, grid_spec, n_iter_per_stage=20)
    samplers = []

    class Recording(BatchSampler):
        def __init__(self, *args):
            super().__init__(*args)
            samplers.append(self)

    def run():
        samplers.clear()
        with monkeypatch.context() as m:
            m.setattr(pipeline, "BatchSampler", Recording)
            models = train(cfg, scenes, MODES)
        [sampler] = samplers
        assert not sampler.pending and not sampler.ahead
        return [_model_bytes(got) for got in models], _sampler_bytes(sampler)

    inline, forked = _both_paths(monkeypatch, run, children=2)
    assert inline == forked


@pytest.mark.parametrize("order", [order for order in
                                   itertools.permutations(MODES)
                                   if order != MODES])
def test_modes_called_out_of_order_give_their_solo_bits(small_training_setup,
                                                        monkeypatch, order):
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20)
    want = {mode: _model_bytes(train_models(BatchSampler(table, config, 4),
                                            mode)) for mode in MODES}

    def run():
        sampler = BatchSampler(table, config, 4, MODES)
        got = {mode: _model_bytes(train_models(sampler, mode))
               for mode in order}
        assert not sampler.pending and not sampler.ahead
        return got

    inline, forked = _both_paths(monkeypatch, run, children=2)
    assert inline == forked == want


def _perturb_mode(monkeypatch, mode, edit, at=7):
    """Make the classifier picks of every run of `mode` differ at iteration
    `at` by _perturb_draw's edits: "move" shifts its first pick to the next
    table row, "drop" leaves its last pick out. A run's stages tell its
    mode when s_train is above 1."""
    draw_run = BatchSampler.draw_run

    def perturbed(self, rng, stages, direct):
        heads = draw_run(self, rng, stages, direct)
        rows, offsets = heads[1]
        if mode == ("ifrcnn" if direct else "gcnn" if len(stages) > 1
                    else "1step"):
            if edit == "drop":
                heads[1] = np.delete(rows, offsets[at + 1] - 1), offsets.copy()
                heads[1][1][at + 1:] -= 1
            else:
                rows[offsets[at]] = (rows[offsets[at]] + 1) % len(
                    self.table.labels)
        return heads

    monkeypatch.setattr(BatchSampler, "draw_run", perturbed)


@pytest.mark.parametrize("edit", ["move", "drop"])
def test_a_mode_trained_ahead_trains_its_own_classifier_where_picks_differ(
        small_training_setup, monkeypatch, tmp_path, edit):
    # ifrcnn, trained beside 1step, trains its own classifier in its child,
    # after its regressor and in no further child; 1step copies gcnn's. Each
    # step appends its model and process to a file, so that the children's
    # steps show too.
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20)
    _perturb_mode(monkeypatch, "ifrcnn", edit)
    want = _model_bytes(train_models(BatchSampler(table, config, 4),
                                     "ifrcnn"))
    steps = tmp_path / "steps"
    step = SGDOptimizer.step

    def recording(self, grads):
        kind = "classifier" if self.model.output_dim == 5 else "regressor"
        with open(steps, "a") as f:
            f.write(f"{kind} {os.getpid()}\n")
        return step(self, grads)

    monkeypatch.setattr(SGDOptimizer, "step", recording)

    def run():
        steps.write_text("")
        sampler = BatchSampler(table, config, 4, MODES)
        models = [_model_bytes(train_models(sampler, mode)) for mode in MODES]
        here = str(os.getpid())
        return models, collections.Counter(
            (kind, "here" if pid == here else pid)
            for kind, pid in map(str.split, steps.read_text().splitlines()))

    (inline, inline_steps), (forked, forked_steps) = _both_paths(
        monkeypatch, run, children=2)
    assert inline == forked and inline[2] == want
    assert inline[1][1] == inline[0][1] != inline[2][1]
    n = 3 * 20
    assert inline_steps == {("regressor", "here"): 3 * n,
                            ("classifier", "here"): 2 * n}
    [ahead] = {pid for kind, pid in forked_steps
               if kind == "regressor" and pid != "here"}
    assert forked_steps[("regressor", "here")] == 2 * n
    assert forked_steps[("regressor", ahead)] == forked_steps[
        ("classifier", ahead)] == n
    assert sum(forked_steps.values()) == 5 * n
    assert ("classifier", "here") not in forked_steps


@pytest.mark.parametrize("error", [ValueError, MemoryError, "killed"])
def test_a_failed_child_training_ahead_is_one_error_naming_the_mode(
        small_training_setup, monkeypatch, tmp_path, capsys, error):
    # Only the child that trains ifrcnn beside 1step trains a regressor.
    scenes, config, grid_spec, _ = small_training_setup
    cfg = experiment(config, grid_spec, n_iter_per_stage=5)
    _cpus(monkeypatch, 2)
    parent = os.getpid()
    regression_loss = model_module._regression_loss

    def failing(*args):
        if os.getpid() != parent:
            if error == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise error("at batch 0")
        return regression_loss(*args)

    monkeypatch.setattr(model_module, "_regression_loss", failing)
    forks = _count_forks(monkeypatch)
    before = _affinity(0)
    want, why = {
        ValueError: (RuntimeError, "ValueError: at batch 0"),
        MemoryError: (MemoryError, "MemoryError: at batch 0"),
        "killed": (RuntimeError, f"signal {int(signal.SIGKILL)}")}[error]
    line = f"training ifrcnn in a child process failed: {why}"
    with pytest.raises(want, match=f"^{line}$"):
        train(cfg, scenes, MODES)
    assert len(forks) == 2 and _affinity(0) == before
    _no_child_left()
    # Through the CLI: one line, out of memory for a MemoryError.
    cfg_path = str(tmp_path / "config.yaml")
    save_config(cfg, cfg_path)
    capsys.readouterr()
    assert main(["ablation", "--config", cfg_path, "--seeds", "0",
                 "--n-train", "2", "--n-test", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        ("error: out of memory: " if error is MemoryError else "error: ")
        + line]
    assert len(forks) == 4 and not (tmp_path / "out").exists()
    _no_child_left()


@pytest.mark.parametrize("error", [ValueError, MemoryError, "killed"])
def test_a_failed_child_is_one_error_naming_the_classifier(
        small_training_setup, monkeypatch, error):
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=5)
    _cpus(monkeypatch, 2)
    parent = os.getpid()
    calls = itertools.count()

    def failing(*args):
        assert os.getpid() != parent, "the classifier trained in the parent"
        if next(calls) == 7:
            if error == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise error("at batch 7")
        return classifier_loss_in_workspace(*args)

    classifier_loss_in_workspace = model_module._classifier_loss
    monkeypatch.setattr(model_module, "_classifier_loss", failing)
    want, match = {
        ValueError: (RuntimeError, "ValueError: at batch 7"),
        MemoryError: (MemoryError, "MemoryError: at batch 7"),
        "killed": (RuntimeError, f"signal {int(signal.SIGKILL)}")}[error]
    with pytest.raises(want, match="^training the classifier in a child "
                       "process failed: " + match + "$"):
        train_models(BatchSampler(table, config, 4), "gcnn")
    _no_child_left()


def test_a_failed_regressor_loop_kills_and_reaps_the_child(
        small_training_setup, monkeypatch):
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=5)
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    calls = itertools.count()
    regression_loss = model_module._regression_loss

    def failing(*args):
        if next(calls) == 3:
            raise KeyError("at batch 3")
        return regression_loss(*args)

    monkeypatch.setattr(model_module, "_regression_loss", failing)
    before = _affinity(0)
    with pytest.raises(KeyError, match="at batch 3"):
        train_models(BatchSampler(table, config, 4), "gcnn")
    assert len(forks) == 1
    _no_child_left()
    assert _affinity(0) == before


@pytest.mark.skipif(len(_affinity(0)) < 2, reason="needs two CPUs")
def test_forked_loops_run_on_cpus_of_their_own(small_training_setup,
                                               monkeypatch):
    # A forked child starts on its parent's CPU, and stays there where the
    # kernel does not balance load: the child takes the last CPU, the
    # parent the others, and the parent gets its own set back.
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=5)
    cpus = _affinity(0)
    child = {max(cpus)}
    regression_loss = model_module._regression_loss
    classifier_loss = model_module._classifier_loss
    parent_cpus = []

    def regressor_side(*args):
        parent_cpus.append(_affinity(0))
        return regression_loss(*args)

    def classifier_side(*args):
        assert _affinity(0) == child
        return classifier_loss(*args)

    monkeypatch.setattr(model_module, "_regression_loss", regressor_side)
    monkeypatch.setattr(model_module, "_classifier_loss", classifier_side)
    forks = _count_forks(monkeypatch)
    train_models(BatchSampler(table, config, 4), "gcnn")
    assert len(forks) == 1
    assert parent_cpus and all(c == cpus - child for c in parent_cpus)
    assert _affinity(0) == cpus
    _no_child_left()


@pytest.mark.skipif(len(_affinity(0)) < 2, reason="needs two CPUs")
def test_a_mode_trained_beside_another_forks_no_further_child(
        small_training_setup, monkeypatch):
    # On two real CPUs, 1step's classifier picks differ from gcnn's, so
    # 1step trains its own classifier while ifrcnn trains in a child. Each
    # side of that round keeps to one CPU, so this process trains that
    # classifier inline: two forks, for gcnn's classifier and for ifrcnn.
    scenes, config, grid_spec, table = small_training_setup
    cfg = experiment(config, grid_spec, n_iter_per_stage=20)
    _perturb_mode(monkeypatch, "1step", "move")
    want = _model_bytes(train_models(BatchSampler(table, cfg.train, 4),
                                     "1step"))
    steps = collections.Counter()
    step = SGDOptimizer.step

    def counting(self, grads):
        steps["classifier" if self.model.output_dim == 5 else "regressor"] += 1
        return step(self, grads)

    monkeypatch.setattr(SGDOptimizer, "step", counting)
    forks = _count_forks(monkeypatch)
    cpus = _affinity(0)
    two = set(sorted(cpus)[:2])
    _set_affinity(0, two)
    try:
        models = train(cfg, scenes, MODES)
        assert _affinity(0) == two
    finally:
        _set_affinity(0, cpus)
    assert len(forks) == 2
    _no_child_left()
    n = 3 * 20
    assert steps == collections.Counter(regressor=2 * n, classifier=n)
    assert _model_bytes(models[1]) == want
    assert models[1][1].flat.tobytes() != models[0][1].flat.tobytes()


def test_a_failed_fork_trains_both_models_here(small_training_setup,
                                               monkeypatch):
    _, config, _, table = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=5)
    _cpus(monkeypatch, 1)
    want = _model_bytes(train_models(BatchSampler(table, config, 4), "gcnn"))
    _cpus(monkeypatch, 2)
    forks = []

    def failing():
        forks.append(None)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing)
    fds = len(os.listdir("/proc/self/fd"))
    got = train_models(BatchSampler(table, config, 4), "gcnn")
    assert _model_bytes(got) == want and len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == fds


def test_the_child_leaves_without_flushing_or_exit_hooks(tmp_path):
    # Text left in this process's stdout buffer and an atexit hook each show
    # once: the child's copies are never written or run.
    script = tmp_path / "fork.py"
    script.write_text(textwrap.dedent("""
        import atexit, os
        from griddet.model import (BatchSampler, TrainConfig,
                                   precompute_scene_tensors, train_models)
        from griddet.grid import GridSpec
        from griddet.synth import SynthConfig, generate_dataset

        scenes = generate_dataset(SynthConfig(seed=3, image_size=(32, 32)), 2)
        config = TrainConfig(n_iter_per_stage=3)
        table = precompute_scene_tensors(scenes, GridSpec((2,), (0.5,)),
                                         config)
        os.sched_getaffinity = lambda pid: {0, 1}
        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(fork()) or forks[-1]
        atexit.register(print, "exit hook")
        print("buffered", end=" ")
        train_models(BatchSampler(table, config, 4), "gcnn")
        print(len(forks))
    """))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(
        os.path.dirname(model_module.__file__))}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered 1\nexit hook\n"


def test_a_process_kept_to_one_cpu_forks_none(tmp_path):
    # A process pinned to one real CPU, as a seed worker would be, trains
    # every mode inline, to the bytes of a run free to use every CPU.
    script = tmp_path / "train.py"
    script.write_text(textwrap.dedent("""
        import dataclasses, json, os, pickle, sys
        from griddet.config import ExperimentConfig
        from griddet.grid import GridSpec
        from griddet.model import MODES, TrainConfig
        from griddet.pipeline import train
        from griddet.synth import SynthConfig, generate_dataset

        out, pin = sys.argv[1:]
        if pin == "pin":
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(fork()) or forks[-1]
        synth = SynthConfig(seed=3, image_size=(64, 64),
                            objects_per_scene=(1, 2), size_range=(0.2, 0.5))
        config = ExperimentConfig(
            synth=synth, grid_train=GridSpec((2, 4), (0.8, 0.7)),
            train=TrainConfig(seed=3, n_iter_per_stage=20))
        models = train(config, generate_dataset(synth, 6), MODES)
        with open(out, "wb") as f:
            pickle.dump([(reg.flat.tobytes(), cls.flat.tobytes(),
                          json.dumps(dataclasses.asdict(log)))
                         for reg, cls, log in models], f)
        print(len(forks))
    """))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(
        os.path.dirname(model_module.__file__))}
    forks = {}
    for pin in ("pin", "free"):
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / pin), pin],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        forks[pin] = int(proc.stdout)
    assert forks == {"pin": 0, "free": 2 if len(_affinity(0)) > 1 else 0}
    assert (tmp_path / "pin").read_bytes() == (tmp_path / "free").read_bytes()


def test_precompute_pools_each_scene_in_one_call(small_training_setup,
                                                 monkeypatch):
    scenes, config, grid_spec, table = small_training_setup
    calls = []

    def spy(fm, boxes):
        calls.append(build_roi_features(fm, boxes))
        return calls[-1]

    monkeypatch.setattr("griddet.model.build_roi_features", spy)
    precompute_scene_tensors(scenes, grid_spec, config)
    want = reference_precompute(scenes, grid_spec, config)
    assert len(calls) == len(want) == len(scenes)
    # One call per scene pools its foreground rows, then its background rows,
    # into the scene's rows of the table.
    assert all(len(w["feats"][0]) and len(w["feats"][1]) for w in want)
    for feats, w, start, end in zip(calls, want, table.offsets,
                                    table.offsets[1:]):
        assert feats.tobytes() == np.concatenate(w["feats"]).tobytes()
        assert feats.tobytes() == table.feats[start:end].tobytes()


def test_train_rejects_an_empty_training_set(small_training_setup):
    _, config, grid_spec, _ = small_training_setup
    with pytest.raises(ValueError, match="^no scenes to train on$"):
        train(experiment(config, grid_spec), [])


def test_checkpoint_round_trip(tmp_path, small_training_setup):
    _, config, _, table = small_training_setup
    reg, cls, _ = train_models(BatchSampler(table, config, 4), "gcnn")
    path = tmp_path / "model.ckpt"
    kwargs = dict(config=config, mode="gcnn", num_classes=4, stage=3)
    save_checkpoint(path, reg, cls, **kwargs)
    reg2, cls2, meta = load_checkpoint(path)
    assert reg.flat.tobytes() == reg2.flat.tobytes()
    assert cls.flat.tobytes() == cls2.flat.tobytes()
    assert meta == {"config": config, "mode": "gcnn", "num_classes": 4,
                    "stage": 3}
    # The header records the one feature layout, in its fixed form.
    header = json.loads(path.read_bytes().split(b"\n")[1])
    assert header["extractor"] == {
        "extra_filters": [], "include_box_coords": True,
        "include_gradients": True, "pool_h": 6, "pool_w": 6}
    # Byte-identical on rewrite.
    path2 = tmp_path / "model_again.ckpt"
    save_checkpoint(path2, reg, cls, **kwargs)
    assert path.read_bytes() == path2.read_bytes()


def reference_save_checkpoint(path, regressor, classifier, *, config, mode,
                              num_classes, stage):
    """The per-array checkpoint writer save_checkpoint replaced: every weight
    and bias array, layer by layer, written on its own."""
    arrays = layer_arrays(regressor) + layer_arrays(classifier)
    header = {
        "config": to_plain(config),
        "mode": mode,
        "num_classes": num_classes,
        "extractor": CHECKPOINT_EXTRACTOR,
        "stage": stage,
        "regressor_sizes": regressor.layer_sizes,
        "classifier_sizes": classifier.layer_sizes,
        "arrays": [list(a.shape) for a in arrays],
    }
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


@pytest.mark.parametrize("hidden_sizes", [(), (7,), (9, 5)])
def test_checkpoint_matches_reference_writer(tmp_path, hidden_sizes):
    rng = np.random.default_rng(len(hidden_sizes))
    reg = make_regressor(FEATURE_DIM, hidden_sizes, 3, rng)
    cls = make_classifier(FEATURE_DIM, hidden_sizes, 3, rng)
    kwargs = dict(config=TrainConfig(hidden_sizes=hidden_sizes), mode="1step",
                  num_classes=3, stage=2)
    save_checkpoint(tmp_path / "a.ckpt", reg, cls, **kwargs)
    reference_save_checkpoint(tmp_path / "b.ckpt", reg, cls, **kwargs)
    data = (tmp_path / "a.ckpt").read_bytes()
    assert data == (tmp_path / "b.ckpt").read_bytes()
    # The blob is the regressor's flat vector, then the classifier's.
    assert data.endswith(reg.flat.tobytes() + cls.flat.tobytes())
    reg2, cls2, _ = load_checkpoint(tmp_path / "a.ckpt")
    assert reg2.layer_sizes == reg.layer_sizes
    assert cls2.layer_sizes == cls.layer_sizes
    assert np.array_equal(reg2.flat, reg.flat)
    assert np.array_equal(cls2.flat, cls.flat)


def _rewrite_header(path, edit):
    magic, header, blob = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    edit(header)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n"
                     + blob)


def test_reader_checks_every_shape_before_building_models(tmp_path,
                                                          monkeypatch):
    reg = MLP([FEATURE_DIM, 2, 4])
    cls = MLP([FEATURE_DIM, 2, 2])
    reg.flat[:] = 7.0
    cls.flat[:] = 7.0
    built = []
    init = MLP.__init__

    def counting(self, layer_sizes, rng=None):
        built.append(list(layer_sizes))
        init(self, layer_sizes, rng)

    monkeypatch.setattr(MLP, "__init__", counting)
    path = tmp_path / "m.ckpt"
    kwargs = dict(config=TrainConfig(), mode="gcnn", num_classes=1, stage=3)

    def count(header):  # one array fewer than the sizes give
        header["arrays"].pop()

    def shape(header):  # the regressor's last weight matrix transposed
        header["arrays"][2].reverse()

    def sizes(header):  # sizes whose models would not fit the blob
        header["regressor_sizes"] = [FEATURE_DIM, 10 ** 12]

    shapes = ((FEATURE_DIM, 2), (2,), (2, 4), (4,), (FEATURE_DIM, 2), (2,),
              (2, 2), (2,))
    for edit, expected, got in (
            (count, shapes, shapes[:-1]),
            (shape, shapes, shapes[:2] + ((4, 2),) + shapes[3:]),
            (sizes, ((FEATURE_DIM, 10 ** 12), (10 ** 12,)) + shapes[4:],
             shapes)):
        save_checkpoint(path, reg, cls, **kwargs)
        _rewrite_header(path, edit)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == (
            f"checkpoint {path} header: arrays must be the parameter shapes "
            f"{expected} of regressor_sizes and classifier_sizes, got {got}")
    save_checkpoint(path, reg, cls, **kwargs)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="parameter blob has"):
        load_checkpoint(path)
    assert built == []
    save_checkpoint(path, reg, cls, **kwargs)
    reg2, cls2, _ = load_checkpoint(path)
    assert built == [[FEATURE_DIM, 2, 4], [FEATURE_DIM, 2, 2]]
    assert np.all(reg2.flat == 7.0) and np.all(cls2.flat == 7.0)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(s_train=0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    for seed in (-1, 1.5, True, "0"):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            TrainConfig(seed=seed)
    for name in ("s_train", "n_iter_per_stage", "images_per_batch",
                 "samples_per_image_per_step"):
        for value in (0, -2, 1.5, True, "3"):
            with pytest.raises(ValueError,
                               match=f"{name} must be a positive integer"):
                TrainConfig(**{name: value})
    for value in (-1, 2.0, None):
        with pytest.raises(ValueError, match="max_bg_per_scene must be a "
                           "non-negative integer"):
            TrainConfig(max_bg_per_scene=value)
    assert TrainConfig(max_bg_per_scene=0).max_bg_per_scene == 0
    for value in ((0,), (-3,), (48, 1.5), [48], "ab", 48):
        with pytest.raises(ValueError, match="hidden_sizes must be a tuple "
                           "of positive integers"):
            TrainConfig(hidden_sizes=value)
    assert TrainConfig(hidden_sizes=()).hidden_sizes == ()


def test_batch_rows_are_bounded():
    # images_per_batch * samples_per_image_per_step rows size the sampler's
    # buffers and both workspaces; the config is rejected before any exists.
    assert MAX_BATCH_ROWS == 100_000
    for ipb, spi, rows in ((10 ** 9, 64, "64,000,000,000"),
                           (2, 50_001, "100,002"),
                           (MAX_BATCH_ROWS + 1, 1, "100,001")):
        with pytest.raises(ValueError, match=(
                "^samples_per_image_per_step x images_per_batch must be at "
                f"most 100,000, got {rows}$")):
            TrainConfig(images_per_batch=ipb, samples_per_image_per_step=spi)
    for ipb, spi in ((2, 50_000), (MAX_BATCH_ROWS, 1)):
        TrainConfig(images_per_batch=ipb, samples_per_image_per_step=spi)


def test_batch_rows_times_hidden_units_are_bounded():
    # Each bound alone admits 100,000 rows and a hidden layer of 77,519
    # units; together their workspaces would need 57.8 GiB. The config is
    # rejected before any model or workspace exists.
    assert MAX_BATCH_UNITS == 10_000_000
    default = TrainConfig()
    assert default.images_per_batch * default.samples_per_image_per_step \
        * sum(default.hidden_sizes) == 6_144
    for ipb, spi, hidden, units in (
            (1000, 100, (77_519,), "7,751,900,000"),
            (3, 64, (77_519,), "14,883,648"),
            (100_000, 1, (60, 41), "10,100,000")):
        train = TrainConfig(images_per_batch=ipb,
                            samples_per_image_per_step=spi,
                            hidden_sizes=hidden)
        with pytest.raises(ValueError, match=(
                "^train.samples_per_image_per_step x images_per_batch x "
                "sum\\(hidden_sizes\\) must be at most 10,000,000, got "
                f"{units}$")):
            ExperimentConfig(train=train)
    for ipb, spi, hidden in ((2, 64, (77_519,)), (100_000, 1, (60, 40)),
                             (MAX_BATCH_ROWS, 1, ())):
        ExperimentConfig(train=TrainConfig(
            images_per_batch=ipb, samples_per_image_per_step=spi,
            hidden_sizes=hidden))


def test_model_parameters_are_bounded():
    # The regressor has at least the classifier's parameters; the bound is
    # checked before any model exists. A hidden layer of 77,519 units gives
    # 9,999,967 parameters, one of 77,520 gives 10,000,096.
    assert MAX_PARAMETERS == 10_000_000
    defaults = ExperimentConfig()
    hidden, classes = defaults.train.hidden_sizes, defaults.synth.num_classes
    rng = np.random.default_rng(0)
    assert make_regressor(FEATURE_DIM, hidden, classes, rng).flat.size == 6208
    assert make_classifier(FEATURE_DIM, hidden, classes, rng).flat.size == 5669
    for hidden, classes, got in (((10 ** 9,), 4, "129,000,000,016"),
                                 ((77_520,), 4, "10,000,096"),
                                 ((48,), 52_000, "10,197,424")):
        train = TrainConfig(hidden_sizes=hidden)
        synth = dataclasses.replace(defaults.synth, num_classes=classes,
                                    class_similarity_groups=((*range(
                                        1, classes + 1),),))
        with pytest.raises(ValueError, match=(
                "^train.hidden_sizes must give a regressor of at most "
                f"10,000,000 parameters, got {got} for "
                rf"\[{hidden[0]}\] and {classes} classes$")):
            ExperimentConfig(synth=synth, train=train)
    ExperimentConfig(train=TrainConfig(hidden_sizes=(77_519,)))


def test_unknown_mode_rejected(small_training_setup):
    _, config, _, table = small_training_setup
    with pytest.raises(ValueError):
        train_models(BatchSampler(table, config, 4), "bogus")
