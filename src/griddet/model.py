"""Trainable regression and classification heads, losses, and the stepwise trainer.

Both heads are small fully-connected networks on pooled ROI features. The
regressor outputs a 4-vector of box-delta parameters per foreground class;
the classifier outputs logits over num_classes + 1 (index 0 = background).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .assign import assign_grid, build_train_tuples
from .boxes import boxes_to_array, delta
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


def _layer_views(flat: np.ndarray, layer_sizes) -> tuple[list, list]:
    """Per-layer weight and bias views into a flat parameter vector.

    Layer by layer, the (fan_in, fan_out) weight matrix comes first, then the
    fan_out biases: the order of MLP.params() and of checkpoint arrays.
    """
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


class Grads(tuple):
    """Gradients of one MLP as (weights, biases), two lists of per-layer
    views into the flat vector ``flat``, laid out as MLP.flat is."""

    def __new__(cls, flat: np.ndarray, layer_sizes):
        self = super().__new__(cls, _layer_views(flat, layer_sizes))
        self.flat = flat
        return self


class MLP:
    """Plain fully-connected network with rectifier hidden units.

    All parameters live in one float64 vector, ``flat``; ``weights`` and
    ``biases`` are views into it, so writing to them writes to ``flat``.
    Without an rng to draw weights from, every parameter starts at zero.
    """

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        self.flat = np.zeros(sum((fan_in + 1) * fan_out
                                 for fan_in, fan_out in pairs))
        self.weights, self.biases = _layer_views(self.flat, self.layer_sizes)
        if rng is None:
            return
        for (fan_in, fan_out), w in zip(pairs, self.weights):
            bound = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray):
        """Return (output, cache) for a (B, D) batch. The cache lists the
        input and every layer's output; the layer outputs are fresh arrays."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"expected (B, {self.input_dim}) input, got {x.shape}")
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            activations.append(h)
        return h, activations

    def backward(self, activations: list[np.ndarray],
                 dout: np.ndarray) -> Grads:
        """Gradients of a scalar loss w.r.t. all parameters, given
        d(loss)/d(out), in one fresh flat vector; dout is left as given."""
        grads = Grads(np.empty_like(self.flat), self.layer_sizes)
        grads_w, grads_b = grads
        g = dout
        for i in reversed(range(len(self.weights))):
            np.matmul(activations[i].T, g, out=grads_w[i])
            np.add.reduce(g, axis=0, out=grads_b[i])
            if i > 0:
                g = g @ self.weights[i].T
                g *= activations[i] > 0
        return grads

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def set_params(self, arrays: list[np.ndarray]):
        """Copy arrays, in params() order, into the parameters; every shape
        is checked before anything is copied."""
        params = self.params()
        if len(arrays) != len(params):
            raise DimensionMismatchError(
                f"expected {len(params)} arrays, got {len(arrays)}")
        for i, (p, a) in enumerate(zip(params, arrays)):
            if np.shape(a) != p.shape:
                raise DimensionMismatchError(
                    f"array {i}: expected shape {p.shape}, got {np.shape(a)}")
        for p, a in zip(params, arrays):
            p[...] = a


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


def regression_loss_arrays(model: MLP, feats: np.ndarray, labels: np.ndarray,
                           targets: np.ndarray):
    """Smooth-L1 regression loss on the per-class delta heads.

    labels are 1-based foreground class ids; only the head of each row's own
    class receives gradient. Returns (loss, grads, all_background) where
    grads is a Grads and all_background flags an empty foreground batch
    (zero loss/grads).
    """
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    if n == 0:
        return 0.0, Grads(np.zeros_like(model.flat), model.layer_sizes), True
    out, cache = model.forward(feats)
    k = model.output_dim // 4
    idx = np.asarray(labels, dtype=np.int64) - 1
    if idx.min() < 0 or idx.max() >= k:
        raise ValueError("regression labels must be in [1, num_classes]")
    rows = np.arange(n)
    residual = out.reshape(n, k, 4)[rows, idx]
    residual -= np.asarray(targets, dtype=np.float64)
    loss = float(smooth_l1(residual).sum() / n)
    # d smooth_l1 / dx = clip(x, -1, 1), written over the residual.
    np.maximum(residual, -1.0, out=residual)
    np.minimum(residual, 1.0, out=residual)
    residual /= n
    dout = np.zeros_like(out)
    dout.reshape(n, k, 4)[rows, idx] = residual
    return loss, model.backward(cache, dout), False


def _softmax_in_place(logits: np.ndarray) -> np.ndarray:
    """Overwrite (B, K) logits with their row-wise softmax; return them."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def softmax_probs(model: MLP, feats: np.ndarray) -> np.ndarray:
    return _softmax_in_place(model.forward(feats)[0])


def classifier_loss(model: MLP, feats: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy over num_classes + 1 (0 = background).

    Returns (loss, grads) with grads a Grads.
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = feats.shape[0]
    if n == 0:
        return 0.0, Grads(np.zeros_like(model.flat), model.layer_sizes)
    logits, cache = model.forward(feats)
    # The logits are fresh and backward does not read them: they become the
    # softmax probabilities in place, and then d(loss)/d(logits).
    probs = _softmax_in_place(logits)
    rows = np.arange(n)
    nll = probs[rows, labels]
    np.maximum(nll, 1e-300, out=nll)
    np.log(nll, out=nll)
    np.negative(nll, out=nll)
    loss = float(nll.sum() / n)
    probs[rows, labels] -= 1.0
    probs /= n
    return loss, model.backward(cache, probs)


class SGDOptimizer:
    """SGD with classical momentum, on the model's flat parameter vector."""

    def __init__(self, model: MLP, lr: float, momentum: float):
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.velocity = np.zeros_like(model.flat)
        self._scaled = np.empty_like(model.flat)  # lr * grads

    def step(self, grads: Grads):
        """velocity = momentum * velocity - lr * grads; params += velocity.

        Every update is in place; grads is left as given.
        """
        np.multiply(self.velocity, self.momentum, out=self.velocity)
        np.multiply(grads.flat, self.lr, out=self._scaled)
        np.subtract(self.velocity, self._scaled, out=self.velocity)
        np.add(self.model.flat, self.velocity, out=self.model.flat)


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
        fg_feats = build_roi_features(
            fm, boxes_to_array([t.box_state for t in fg]), ext_cfg)
        bg_feats = build_roi_features(
            fm, boxes_to_array([t.box_state for t in bg]), ext_cfg)
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


class _BatchSampler:
    """Draws minibatches into row buffers allocated once per training run.

    Per image, in scene_ids order: samples_per_image regression rows from the
    phase's pool, then the step-1 foreground and the background classifier
    rows. An image whose pool is empty adds no rows of that kind, so a batch
    can come out short. The random draws are one ``integers`` call per part,
    in that order. The returned arrays are views of the buffers, valid until
    the next draw.
    """

    def __init__(self, tensors: list[SceneTensors], config: TrainConfig):
        self.tensors = tensors
        self.per_image = config.samples_per_image_per_step
        self.n_fg_cls = max(1, int(round(
            self.per_image / (1.0 + config.fg_bg_ratio))))
        self.n_bg_cls = self.per_image - self.n_fg_cls
        self.step1_pools = [np.flatnonzero(t.fg_steps == 1) for t in tensors]
        self.reg_pools = self.step1_pools
        self.direct = False
        width = tensors[0].fg_feats.shape[1] if tensors else 0
        rows = config.images_per_batch * self.per_image
        self.reg_feats = np.empty((rows, width))
        self.reg_labels = np.empty(rows, dtype=np.int64)
        self.reg_targets = np.empty((rows, 4))
        self.cls_feats = np.empty((rows, width))
        self.cls_labels = np.empty(rows, dtype=np.int64)

    def start_phase(self, stage: int, direct: bool):
        """Direct phases regress step-1 rows to their full-path targets;
        stepwise phases draw from the rows of steps 1..stage."""
        self.direct = direct
        self.reg_pools = self.step1_pools if direct else [
            np.flatnonzero(t.fg_steps <= stage) for t in self.tensors]

    def sample(self, rng: np.random.Generator, scene_ids: np.ndarray):
        """(reg_feats, reg_labels, reg_targets, cls_feats, cls_labels)."""
        n_reg = n_cls = 0
        for sid in scene_ids.tolist():
            t = self.tensors[sid]
            pool = self.reg_pools[sid]
            if len(pool) > 0:
                pick = pool[rng.integers(0, len(pool), size=self.per_image)]
                targets = t.direct_targets if self.direct else t.fg_targets
                n_reg = _gather(pick, n_reg, (t.fg_feats, self.reg_feats),
                                (t.fg_labels, self.reg_labels),
                                (targets, self.reg_targets))
            step1 = self.step1_pools[sid]
            if len(step1) > 0:
                pick = step1[rng.integers(0, len(step1), size=self.n_fg_cls)]
                n_cls = _gather(pick, n_cls, (t.fg_feats, self.cls_feats),
                                (t.fg_labels, self.cls_labels))
            if len(t.bg_feats) > 0:
                pick = rng.integers(0, len(t.bg_feats), size=self.n_bg_cls)
                self.cls_labels[n_cls:n_cls + self.n_bg_cls] = 0
                n_cls = _gather(pick, n_cls, (t.bg_feats, self.cls_feats))
        return (self.reg_feats[:n_reg], self.reg_labels[:n_reg],
                self.reg_targets[:n_reg], self.cls_feats[:n_cls],
                self.cls_labels[:n_cls])


def _gather(pick: np.ndarray, start: int, *pairs) -> int:
    """Copy rows pick of each (source, buffer) pair into the buffer from row
    start on; return the row after the last one written."""
    end = start + len(pick)
    for source, buffer in pairs:
        # Picks are in range by construction; "clip" skips the buffered copy
        # numpy makes for out= under the default mode "raise".
        source.take(pick, axis=0, out=buffer[start:end], mode="clip")
    return end


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

    sampler = _BatchSampler(tensors, config)
    n_scenes = len(tensors)
    replace = n_scenes < config.images_per_batch
    for stage, n_iter, direct in phases:
        log.stage_boundaries.append(log.total_iterations)
        sampler.start_phase(stage, direct)
        for it in range(n_iter):
            scene_ids = rng.choice(n_scenes, size=config.images_per_batch,
                                   replace=replace)
            rf, rl, rt, cf, cl = sampler.sample(rng, scene_ids)
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
        try:
            header = json.loads(f.readline())
        except ValueError as exc:
            raise ValueError(
                f"checkpoint {path}: header is not JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"checkpoint {path}: header is not a JSON object")
        blob = f.read()
    if not isinstance(header["arrays"], list):
        raise ValueError(f"checkpoint {path}: arrays is not a list of shapes")
    arrays = []
    at = 0
    for shape in header["arrays"]:
        if not (isinstance(shape, list) and all(
                isinstance(d, int) and d >= 0 for d in shape)):
            raise ValueError(f"checkpoint {path}: array {len(arrays)} has "
                             f"shape {shape!r}, not a list of sizes")
        n = math.prod(shape)
        if at + 8 * n > len(blob):
            raise ValueError(f"checkpoint {path}: truncated: array "
                             f"{len(arrays)} needs {8 * n} bytes, "
                             f"{len(blob) - at} left")
        arrays.append(np.frombuffer(blob, dtype="<f8", count=n,
                                    offset=at).reshape(shape))
        at += 8 * n
    if at != len(blob):
        raise ValueError(f"checkpoint {path}: {len(blob) - at} trailing bytes "
                         f"after the last array")
    try:
        regressor = MLP(header["regressor_sizes"])
        classifier = MLP(header["classifier_sizes"])
        n_reg = len(regressor.params())
        regressor.set_params(arrays[:n_reg])
        classifier.set_params(arrays[n_reg:])
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"checkpoint {path}: arrays do not fit regressor_sizes and "
            f"classifier_sizes: {exc}") from None
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
