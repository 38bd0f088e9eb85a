import dataclasses

import numpy as np
import pytest

from griddet.features import ExtractorConfig
from griddet.grid import GridSpec
from griddet.model import (MLP, Grads, SGDOptimizer, TrainConfig,
                           classifier_loss, load_checkpoint, make_classifier,
                           make_regressor, precompute_scene_tensors,
                           regression_loss_arrays, save_checkpoint, smooth_l1,
                           train_models, train_stepwise)
from griddet.synth import SynthConfig, generate_dataset


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


def flatten_grads(grads):
    gw, gb = grads
    out = []
    for w, b in zip(gw, gb):
        out.extend([w, b])
    return out


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
    numeric = numeric_gradient(f, model.params())
    assert max_rel_error(flatten_grads(grads), numeric) < 1e-4


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
    numeric = numeric_gradient(f, model.params())
    assert max_rel_error(flatten_grads(grads), numeric) < 1e-4


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
    assert all(np.shares_memory(p, model.flat) for p in model.params())
    assert np.array_equal(np.concatenate([p.ravel() for p in model.params()]),
                          model.flat)
    model.flat[:] = 0.0
    assert all(np.all(p == 0.0) for p in model.params())


def test_set_params_checks_every_shape_before_copying():
    model = MLP([3, 2, 4])
    before = model.flat.copy()
    assert not before.any()  # built without an rng: all zeros
    good = [np.full(p.shape, 7.0) for p in model.params()]
    with pytest.raises(ValueError, match="expected 4 arrays, got 3"):
        model.set_params(good[:3])
    with pytest.raises(ValueError, match=r"array 2: expected shape \(2, 4\)"):
        model.set_params(good[:2] + [np.zeros((4, 2)), good[3]])
    assert np.array_equal(model.flat, before)
    model.set_params(good)
    assert np.all(model.flat == 7.0)


def test_forward_and_backward_return_fresh_arrays():
    rng = np.random.default_rng(4)
    model = make_classifier(4, (3,), 2, rng)
    x = rng.normal(size=(6, 4))
    out, cache = model.forward(x)
    assert not any(np.shares_memory(out, a) for a in (x, model.flat))
    dout = rng.normal(size=out.shape)
    kept = dout.copy()
    g1 = model.backward(cache, dout)
    g2 = model.backward(cache, dout)
    assert np.array_equal(dout, kept)
    assert not np.shares_memory(g1.flat, g2.flat)
    assert np.array_equal(g1.flat, g2.flat)
    gw, gb = g1
    assert [g.shape for g in gw] == [w.shape for w in model.weights]
    assert [g.shape for g in gb] == [b.shape for b in model.biases]


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
    tensors, dim = precompute_scene_tensors(scenes, grid_spec, config)
    return scenes, config, grid_spec, tensors, dim


def test_training_modes_equal_total_iterations(small_training_setup):
    _, config, _, tensors, dim = small_training_setup
    for mode in ("gcnn", "1step", "ifrcnn"):
        _, _, log = train_models(tensors, config, mode, 4, dim)
        assert log.total_iterations == config.s_train * config.n_iter_per_stage


def test_gcnn_has_stage_boundaries(small_training_setup):
    _, config, _, tensors, dim = small_training_setup
    _, _, log = train_models(tensors, config, "gcnn", 4, dim)
    assert log.stage_boundaries == [0, config.n_iter_per_stage,
                                    2 * config.n_iter_per_stage]
    _, _, log1 = train_models(tensors, config, "1step", 4, dim)
    assert log1.stage_boundaries == [0]


def test_training_deterministic(small_training_setup):
    _, config, _, tensors, dim = small_training_setup
    r1, c1, _ = train_models(tensors, config, "gcnn", 4, dim)
    r2, c2, _ = train_models(tensors, config, "gcnn", 4, dim)
    for a, b in zip(r1.params() + c1.params(), r2.params() + c2.params()):
        assert np.array_equal(a, b)


def test_single_stage_modes_coincide(small_training_setup):
    scenes, config, grid_spec, _, _ = small_training_setup
    cfg1 = dataclasses.replace(config, s_train=1, n_iter_per_stage=30)
    tensors, dim = precompute_scene_tensors(scenes, grid_spec, cfg1)
    rg, cg, lg = train_models(tensors, cfg1, "gcnn", 4, dim)
    ro, co, lo = train_models(tensors, cfg1, "1step", 4, dim)
    for a, b in zip(rg.params() + cg.params(), ro.params() + co.params()):
        assert np.array_equal(a, b)
    assert [e["reg_loss"] for e in lg.entries] == \
        [e["reg_loss"] for e in lo.entries]


def _reference_train(tensors, config, mode, num_classes, input_dim):
    """Straightforward training loop, kept as the reference for train_models:
    per-layer parameter arrays replaced by allocating updates, and batches
    concatenated from per-image parts. Returns (params, log entries, stage
    boundaries)."""

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
            t = tensors[sid]
            pool = np.flatnonzero(t.fg_steps == 1 if direct
                                  else t.fg_steps <= stage)
            if len(pool) > 0:
                pick = pool[rng.integers(0, len(pool), size=per_image)]
                reg_feats.append(t.fg_feats[pick])
                reg_labels.append(t.fg_labels[pick])
                reg_targets.append(t.direct_targets[pick] if direct
                                   else t.fg_targets[pick])
            step1 = np.flatnonzero(t.fg_steps == 1)
            if len(step1) > 0:
                pick = step1[rng.integers(0, len(step1), size=n_fg_cls)]
                cls_feats.append(t.fg_feats[pick])
                cls_labels.append(t.fg_labels[pick])
            if len(t.bg_feats) > 0:
                pick = rng.integers(0, len(t.bg_feats), size=n_bg_cls)
                cls_feats.append(t.bg_feats[pick])
                cls_labels.append(np.zeros(n_bg_cls, dtype=np.int64))

        def stack(parts, width):
            return np.concatenate(parts) if parts else np.zeros((0, width))
        return (stack(reg_feats, input_dim),
                np.concatenate(reg_labels or [[]]), stack(reg_targets, 4),
                stack(cls_feats, input_dim), np.concatenate(cls_labels or [[]]))

    init_reg, init_cls, batch_ss = np.random.SeedSequence(config.seed).spawn(3)
    hidden = list(config.hidden_sizes)
    reg_w, reg_b = init([input_dim, *hidden, 4 * num_classes], init_reg)
    cls_w, cls_b = init([input_dim, *hidden, num_classes + 1], init_cls)
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
            scene_ids = rng.choice(
                len(tensors), size=config.images_per_batch,
                replace=len(tensors) < config.images_per_batch)
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


def _without_foreground(t):
    return dataclasses.replace(
        t, fg_feats=t.fg_feats[:0], fg_labels=t.fg_labels[:0],
        fg_steps=t.fg_steps[:0], fg_targets=t.fg_targets[:0],
        direct_targets=t.direct_targets[:0])


# case -> (TrainConfig overrides, scene tensors from the fixture's list)
REFERENCE_CASES = {
    # Scene 1 has no foreground rows and scene 2 no background rows, so
    # batches that draw them come out short.
    "short_batches": ({}, lambda ts: [
        ts[0], _without_foreground(ts[1]),
        dataclasses.replace(ts[2], bg_feats=ts[2].bg_feats[:0]), *ts[3:]]),
    # Fewer scenes than images per batch: scenes are drawn with replacement,
    # and a batch of only the foreground-free scene is all background.
    "replace": ({"images_per_batch": 3},
                lambda ts: [ts[0], _without_foreground(ts[1])]),
    "no_hidden_layer": ({"hidden_sizes": ()}, lambda ts: ts),
    "two_hidden_layers": ({"hidden_sizes": (16, 8)}, lambda ts: ts),
}


@pytest.mark.parametrize("mode", ["gcnn", "1step", "ifrcnn"])
@pytest.mark.parametrize("overrides, pick", REFERENCE_CASES.values(),
                         ids=REFERENCE_CASES.keys())
def test_train_models_matches_reference_loop(small_training_setup, mode,
                                             overrides, pick):
    _, config, _, all_tensors, dim = small_training_setup
    config = dataclasses.replace(config, n_iter_per_stage=20, **overrides)
    tensors = pick(all_tensors)
    reg, cls, log = train_models(tensors, config, mode, 4, dim)
    params, entries, boundaries = _reference_train(tensors, config, mode, 4,
                                                   dim)
    got = reg.params() + cls.params()
    assert [a.shape for a in got] == [a.shape for a in params]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, params))
    assert log.entries == entries
    assert log.stage_boundaries == boundaries
    if "images_per_batch" in overrides:
        assert any(e["all_background"] for e in entries)


def test_stage_pool_size(small_training_setup):
    scenes, config, grid_spec, tensors, _ = small_training_setup
    for t in tensors:
        n_fg_boxes = int(np.sum(t.fg_steps == 1))
        for stage in (1, 2, 3):
            pool = int(np.sum(t.fg_steps <= stage))
            assert pool == n_fg_boxes * stage


def test_training_loss_decreases():
    # Single scene with one object: the regression loss must drop by more
    # than half between the start and the end of training.
    synth = SynthConfig(seed=7, image_size=(64, 64), objects_per_scene=(1, 1),
                        size_range=(0.25, 0.5))
    scenes = generate_dataset(synth, 1)
    config = TrainConfig(seed=7, n_iter_per_stage=120, learning_rate=0.05)
    grid_spec = GridSpec((2, 4), (0.8, 0.7))
    tensors, dim = precompute_scene_tensors(scenes, grid_spec, config)
    _, _, log = train_models(tensors, config, "gcnn", 4, dim)
    losses = [e["reg_loss"] for e in log.entries if not e["all_background"]]
    head = np.mean(losses[:5])
    tail = np.mean(losses[-5:])
    assert tail < 0.5 * head


def test_train_stepwise_entry_point(small_training_setup):
    scenes, config, grid_spec, _, _ = small_training_setup
    reg, cls, log = train_stepwise(scenes, grid_spec, config, "gcnn")
    assert reg.output_dim == 4 * 4
    assert cls.output_dim == 5
    assert log.total_iterations == config.s_train * config.n_iter_per_stage


def test_checkpoint_round_trip(tmp_path, small_training_setup):
    _, config, _, tensors, dim = small_training_setup
    reg, cls, _ = train_models(tensors, config, "gcnn", 4, dim)
    custom = ExtractorConfig(
        extra_filters=(((0.0, 1.0), (-1.0, 0.5)), ((1.0, 2.0, 1.0),)),
        pool_h=3, pool_w=5, include_box_coords=False)
    for i, extractor_config in enumerate([ExtractorConfig(), custom]):
        path = tmp_path / f"model{i}.ckpt"
        kwargs = dict(config=config, mode="gcnn", num_classes=4,
                      extractor_config=extractor_config, stage=3)
        save_checkpoint(path, reg, cls, **kwargs)
        reg2, cls2, meta = load_checkpoint(path)
        for a, b in zip(reg.params() + cls.params(),
                        reg2.params() + cls2.params()):
            assert np.array_equal(a, b)
        assert meta["mode"] == "gcnn" and meta["num_classes"] == 4
        assert meta["config"] == config
        assert meta["extractor"] == extractor_config
        assert meta["extractor"].feature_dim == extractor_config.feature_dim
        # Byte-identical on rewrite.
        path2 = tmp_path / f"model{i}_again.ckpt"
        save_checkpoint(path2, reg, cls, **kwargs)
        assert path.read_bytes() == path2.read_bytes()


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(s_train=0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)


def test_unknown_mode_rejected(small_training_setup):
    _, config, _, tensors, dim = small_training_setup
    with pytest.raises(ValueError):
        train_models(tensors, config, "bogus", 4, dim)
