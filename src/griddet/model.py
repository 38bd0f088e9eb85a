"""Trainable regression and classification heads, losses, and the stepwise trainer.

Both heads are small fully-connected networks on pooled ROI features. The
regressor outputs a 4-vector of box-delta parameters per foreground class;
the classifier outputs logits over num_classes + 1 (index 0 = background).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .assign import assign_grid, build_train_tuples
from .boxes import delta
from .features import ExtractorConfig, FeatureExtractor, build_roi_features
from .grid import GridSpec, generate_grid
from .records import from_plain, to_plain

MODES = ("gcnn", "1step", "ifrcnn")

CHECKPOINT_MAGIC = b"GRIDDET-CKPT 1\n"


class DimensionMismatchError(ValueError):
    pass


@dataclass
class TrainConfig:
    s_train: int = 3
    n_iter_per_stage: int = 2000
    images_per_batch: int = 2
    samples_per_image_per_step: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    fg_bg_ratio: float = 3.0  # background samples per foreground sample
    hidden_sizes: tuple[int, ...] = (48,)
    bg_threshold: float = 0.2
    max_bg_per_scene: int = 256

    def __post_init__(self):
        if self.s_train < 1 or self.n_iter_per_stage < 1:
            raise ValueError("counts must be >= 1")
        if self.images_per_batch < 1 or self.samples_per_image_per_step < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


class MLP:
    """Plain fully-connected network with rectifier hidden units."""

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        rng = rng or np.random.default_rng(0)
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray):
        """Return (output, cache) for a (B, D) batch."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"expected (B, {self.input_dim}) input, got {x.shape}")
        activations = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
            activations.append(h)
        return h, activations

    def backward(self, activations: list[np.ndarray], dout: np.ndarray):
        """Gradients of a scalar loss w.r.t. all parameters, given d(loss)/d(out)."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        g = dout
        for i in reversed(range(len(self.weights))):
            a_in = activations[i]
            grads_w[i] = a_in.T @ g
            grads_b[i] = g.sum(axis=0)
            if i > 0:
                g = g @ self.weights[i].T
                g = g * (activations[i] > 0)
        return grads_w, grads_b

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def set_params(self, arrays: list[np.ndarray]):
        expect = len(self.weights) * 2
        if len(arrays) != expect:
            raise ValueError(f"expected {expect} arrays, got {len(arrays)}")
        for i in range(len(self.weights)):
            self.weights[i] = np.array(arrays[2 * i], dtype=np.float64)
            self.biases[i] = np.array(arrays[2 * i + 1], dtype=np.float64)


def make_regressor(input_dim: int, hidden_sizes, num_classes: int,
                   rng: np.random.Generator) -> MLP:
    return MLP([input_dim, *hidden_sizes, 4 * num_classes], rng)


def make_classifier(input_dim: int, hidden_sizes, num_classes: int,
                    rng: np.random.Generator) -> MLP:
    return MLP([input_dim, *hidden_sizes, num_classes + 1], rng)


def smooth_l1(x):
    """Robust loss: 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise. Elementwise."""
    x = np.asarray(x, dtype=np.float64)
    absx = np.abs(x)
    out = np.where(absx < 1.0, 0.5 * x * x, absx - 0.5)
    return float(out) if out.ndim == 0 else out


def smooth_l1_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return np.clip(x, -1.0, 1.0)


def regression_loss_arrays(model: MLP, feats: np.ndarray, labels: np.ndarray,
                           targets: np.ndarray):
    """Smooth-L1 regression loss on the per-class delta heads.

    labels are 1-based foreground class ids; only the head of each row's own
    class receives gradient. Returns (loss, (grads_w, grads_b), all_background)
    where all_background flags an empty foreground batch (zero loss/grads).
    """
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    if n == 0:
        zw = [np.zeros_like(w) for w in model.weights]
        zb = [np.zeros_like(b) for b in model.biases]
        return 0.0, (zw, zb), True
    out, cache = model.forward(feats)
    k = model.output_dim // 4
    pred = out.reshape(n, k, 4)
    idx = np.asarray(labels, dtype=np.int64) - 1
    if np.any(idx < 0) or np.any(idx >= k):
        raise ValueError("regression labels must be in [1, num_classes]")
    rows = np.arange(n)
    residual = pred[rows, idx] - np.asarray(targets, dtype=np.float64)
    loss = float(smooth_l1(residual).sum() / n)
    dout = np.zeros_like(pred)
    dout[rows, idx] = smooth_l1_grad(residual) / n
    grads = model.backward(cache, dout.reshape(n, 4 * k))
    return loss, grads, False


def classifier_loss(model: MLP, feats: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy over num_classes + 1 (0 = background)."""
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[0]
    if n == 0:
        zw = [np.zeros_like(w) for w in model.weights]
        zb = [np.zeros_like(b) for b in model.biases]
        return 0.0, (zw, zb)
    logits, cache = model.forward(feats)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    loss = float(-np.log(np.maximum(probs[rows, labels], 1e-300)).mean())
    dout = probs.copy()
    dout[rows, labels] -= 1.0
    dout /= n
    grads = model.backward(cache, dout)
    return loss, grads


def softmax_probs(model: MLP, feats: np.ndarray) -> np.ndarray:
    logits, _ = model.forward(feats)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=1, keepdims=True)


class SGDOptimizer:
    """SGD with classical momentum."""

    def __init__(self, model: MLP, lr: float, momentum: float):
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.vel_w = [np.zeros_like(w) for w in model.weights]
        self.vel_b = [np.zeros_like(b) for b in model.biases]

    def step(self, grads):
        grads_w, grads_b = grads
        for i in range(len(self.model.weights)):
            self.vel_w[i] = self.momentum * self.vel_w[i] - self.lr * grads_w[i]
            self.vel_b[i] = self.momentum * self.vel_b[i] - self.lr * grads_b[i]
            self.model.weights[i] = self.model.weights[i] + self.vel_w[i]
            self.model.biases[i] = self.model.biases[i] + self.vel_b[i]


@dataclass
class TrainLog:
    entries: list = field(default_factory=list)  # dicts per iteration
    stage_boundaries: list = field(default_factory=list)  # global iter index at stage start

    def add(self, stage, iteration, reg_loss, cls_loss, all_background):
        self.entries.append({
            "stage": stage,
            "iteration": iteration,
            "reg_loss": reg_loss,
            "cls_loss": cls_loss,
            "all_background": all_background,
        })

    @property
    def total_iterations(self) -> int:
        return len(self.entries)


@dataclass
class SceneTensors:
    """Pooled features and targets for one scene, fixed for the whole run.

    Foreground rows cover steps 1..s_train of the stepwise schedule;
    direct_targets holds the full-path delta for step-1 rows (single-step
    baseline training).
    """

    fg_feats: np.ndarray       # (F, D)
    fg_labels: np.ndarray      # (F,) 1-based class ids
    fg_steps: np.ndarray       # (F,)
    fg_targets: np.ndarray     # (F, 4) stepwise schedule targets
    direct_targets: np.ndarray  # (F, 4), valid where fg_steps == 1
    bg_feats: np.ndarray       # (B, D)


def precompute_scene_tensors(scenes, grid_spec: GridSpec, config: TrainConfig,
                             extractor_config: ExtractorConfig | None = None,
                             ) -> tuple[list[SceneTensors], int]:
    """Pool features for every training tuple of every scene.

    Box states never depend on the model (approximate update), so everything
    can be pooled once up front. Background boxes are subsampled to
    max_bg_per_scene classifier negatives per scene, deterministically.
    Returns (tensors, feature_dim).
    """
    ext_cfg = extractor_config or ExtractorConfig()
    extractor = FeatureExtractor(ext_cfg)
    out = []
    grid = None
    for scene in scenes:
        h, w = scene.image.shape
        if grid is None or (w, h) != grid[0]:
            grid = ((w, h), generate_grid(grid_spec, w, h))
        boxes = grid[1]
        fm = extractor.compute_global_features(scene.image)
        assignments = assign_grid(boxes, scene.gts, config.bg_threshold)
        tuples = build_train_tuples(boxes, assignments, config.s_train,
                                    config.s_train)
        fg = [t for t in tuples if not t.is_background]
        bg = [t for t in tuples if t.is_background]
        bg_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, scene.scene_id, 2]))
        if len(bg) > config.max_bg_per_scene:
            keep = bg_rng.choice(len(bg), size=config.max_bg_per_scene,
                                 replace=False)
            bg = [bg[i] for i in sorted(keep)]
        fg_feats = build_roi_features(fm, [t.box_state for t in fg], ext_cfg)
        bg_feats = build_roi_features(fm, [t.box_state for t in bg], ext_cfg)
        # Free this scene's map and range-max table before the next is built.
        del fm
        fg_labels = np.array([t.class_label for t in fg], dtype=np.int64)
        fg_steps = np.array([t.step for t in fg], dtype=np.int64)
        fg_targets = np.array([t.delta_target.as_array() for t in fg]) \
            if fg else np.zeros((0, 4))
        # Direct (non-scheduled) targets for the step-1 box states, which
        # come in assignment order.
        direct = np.zeros_like(fg_targets)
        direct[fg_steps == 1] = np.reshape(
            [delta(boxes[a.grid_index], a.target_gt.box).as_array()
             for a in assignments if a.target_gt is not None], (-1, 4))
        out.append(SceneTensors(fg_feats, fg_labels, fg_steps, fg_targets,
                                direct, bg_feats))
    return out, ext_cfg.feature_dim


def _sample_batch(tensors: list[SceneTensors], scene_ids, rng,
                  samples_per_image: int, fg_bg_ratio: float, stage: int,
                  direct: bool):
    """Assemble one minibatch: regression rows plus classifier rows."""
    reg_feats, reg_labels, reg_targets = [], [], []
    cls_feats, cls_labels = [], []
    n_fg_cls = max(1, int(round(samples_per_image / (1.0 + fg_bg_ratio))))
    n_bg_cls = samples_per_image - n_fg_cls
    for sid in scene_ids:
        t = tensors[sid]
        if direct:
            pool = np.flatnonzero(t.fg_steps == 1)
        else:
            pool = np.flatnonzero(t.fg_steps <= stage)
        if len(pool) > 0:
            pick = pool[rng.integers(0, len(pool), size=samples_per_image)]
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
    stack = lambda parts, width: (np.concatenate(parts) if parts
                                  else np.zeros((0, width)))
    d = tensors[0].fg_feats.shape[1] if tensors else 0
    return (stack(reg_feats, d),
            np.concatenate(reg_labels) if reg_labels else np.zeros(0, np.int64),
            stack(reg_targets, 4),
            stack(cls_feats, d),
            np.concatenate(cls_labels) if cls_labels else np.zeros(0, np.int64))


def train_models(tensors: list[SceneTensors], config: TrainConfig, mode: str,
                 num_classes: int, input_dim: int):
    """Run the SGD schedule for one of the three training strategies.

    gcnn: stages c = 1..s_train, each n_iter_per_stage iterations on the
    cumulative tuple pool of steps 1..c. 1step: one phase on the full pool.
    ifrcnn: one phase on step-1 states with direct (full-path) targets.
    All modes run s_train * n_iter_per_stage total iterations.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    ss = np.random.SeedSequence(config.seed)
    init_reg, init_cls, batch_ss = ss.spawn(3)
    regressor = make_regressor(input_dim, config.hidden_sizes, num_classes,
                               np.random.default_rng(init_reg))
    classifier = make_classifier(input_dim, config.hidden_sizes, num_classes,
                                 np.random.default_rng(init_cls))
    opt_reg = SGDOptimizer(regressor, config.learning_rate, config.momentum)
    opt_cls = SGDOptimizer(classifier, config.learning_rate, config.momentum)
    rng = np.random.default_rng(batch_ss)
    log = TrainLog()

    if mode == "gcnn":
        phases = [(c, config.n_iter_per_stage, False)
                  for c in range(1, config.s_train + 1)]
    elif mode == "1step":
        phases = [(config.s_train,
                   config.s_train * config.n_iter_per_stage, False)]
    else:
        phases = [(1, config.s_train * config.n_iter_per_stage, True)]

    n_scenes = len(tensors)
    replace = n_scenes < config.images_per_batch
    for stage, n_iter, direct in phases:
        log.stage_boundaries.append(log.total_iterations)
        for it in range(n_iter):
            scene_ids = rng.choice(n_scenes, size=config.images_per_batch,
                                   replace=replace)
            rf, rl, rt, cf, cl = _sample_batch(
                tensors, scene_ids, rng, config.samples_per_image_per_step,
                config.fg_bg_ratio, stage, direct)
            reg_loss, reg_grads, all_bg = regression_loss_arrays(
                regressor, rf, rl, rt)
            if not all_bg:
                opt_reg.step(reg_grads)
            cls_loss, cls_grads = classifier_loss(classifier, cf, cl)
            if len(cf) > 0:
                opt_cls.step(cls_grads)
            log.add(stage, it, reg_loss, cls_loss, all_bg)
    return regressor, classifier, log


def train_stepwise(scenes, grid_spec: GridSpec, config: TrainConfig,
                   mode: str = "gcnn",
                   extractor_config: ExtractorConfig | None = None,
                   num_classes: int | None = None):
    """End-to-end training entry point: precompute tensors, then optimize."""
    if num_classes is None:
        num_classes = max((gt.class_label for s in scenes for gt in s.gts),
                          default=1)
    tensors, input_dim = precompute_scene_tensors(
        scenes, grid_spec, config, extractor_config)
    return train_models(tensors, config, mode, num_classes, input_dim)


def save_checkpoint(path, regressor: MLP, classifier: MLP, *,
                    config: TrainConfig, mode: str, num_classes: int,
                    extractor_config: ExtractorConfig, stage: int):
    """Write a versioned binary checkpoint: JSON header + raw float64 blobs."""
    arrays = regressor.params() + classifier.params()
    header = {
        "config": to_plain(config),
        "mode": mode,
        "num_classes": num_classes,
        "extractor": to_plain(extractor_config),
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


def load_checkpoint(path):
    """Read a checkpoint; returns (regressor, classifier, meta dict)."""
    try:
        return _read_checkpoint(path)
    except KeyError as exc:
        raise ValueError(f"checkpoint {path}: header lacks key {exc}") from None


def _read_checkpoint(path):
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        header = json.loads(f.readline().decode())
        arrays = []
        for shape in header["arrays"]:
            n = int(np.prod(shape)) if shape else 1
            buf = f.read(n * 8)
            if len(buf) != n * 8:
                raise ValueError("truncated checkpoint")
            arrays.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    regressor = MLP(header["regressor_sizes"])
    classifier = MLP(header["classifier_sizes"])
    n_reg = len(regressor.weights) * 2
    regressor.set_params(arrays[:n_reg])
    classifier.set_params(arrays[n_reg:])
    meta = {
        "config": from_plain(TrainConfig, header["config"],
                             f"checkpoint {path}.config"),
        "mode": header["mode"],
        "num_classes": header["num_classes"],
        "extractor": from_plain(ExtractorConfig, header["extractor"],
                                f"checkpoint {path}.extractor"),
        "stage": header["stage"],
    }
    return regressor, classifier, meta
