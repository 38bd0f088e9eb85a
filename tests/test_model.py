import numpy as np
import pytest

from griddet.features import ExtractorConfig
from griddet.grid import GridSpec
from griddet.model import (MLP, SGDOptimizer, TrainConfig, classifier_loss,
                           load_checkpoint, make_classifier, make_regressor,
                           precompute_scene_tensors, regression_loss_arrays,
                           save_checkpoint, smooth_l1, train_models,
                           train_stepwise)
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


def test_sgd_momentum_step():
    model = MLP([1, 1], np.random.default_rng(0))
    model.weights[0][:] = 1.0
    model.biases[0][:] = 0.0
    opt = SGDOptimizer(model, lr=0.1, momentum=0.5)
    grads = ([np.ones((1, 1))], [np.zeros(1)])
    opt.step(grads)
    assert model.weights[0][0, 0] == pytest.approx(0.9)
    opt.step(grads)
    # velocity: -0.1, then 0.5*(-0.1) - 0.1 = -0.15
    assert model.weights[0][0, 0] == pytest.approx(0.75)


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
    import dataclasses
    cfg1 = dataclasses.replace(config, s_train=1, n_iter_per_stage=30)
    tensors, dim = precompute_scene_tensors(scenes, grid_spec, cfg1)
    rg, cg, lg = train_models(tensors, cfg1, "gcnn", 4, dim)
    ro, co, lo = train_models(tensors, cfg1, "1step", 4, dim)
    for a, b in zip(rg.params() + cg.params(), ro.params() + co.params()):
        assert np.array_equal(a, b)
    assert [e["reg_loss"] for e in lg.entries] == \
        [e["reg_loss"] for e in lo.entries]


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
