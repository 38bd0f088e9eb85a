"""Trainable regression and classification heads, losses, and the stepwise trainer.

Both heads are small fully-connected networks on pooled ROI features. The
regressor outputs a 4-vector of box-delta parameters per foreground class;
the classifier outputs logits over num_classes + 1 (index 0 = background).
"""

from __future__ import annotations

import errno
import json
import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

# assign_grid, build_train_tuples and generate_grid stay importable here for
# the benchmark's counters.
from .assign import (assign_boxes, assign_grid, build_train_tuples,
                     train_schedule)
from .boxes import box_deltas, boxes_to_array
from .features import FEATURE_DIM, POOL, FeatureExtractor, build_roi_features
from .grid import GridSpec, generate_grid, grid_array
from .records import (NON_NEGATIVE_INT, POSITIVE_INT, check_fields,
                      from_json, to_plain)

MODES = ("gcnn", "1step", "ifrcnn")

CHECKPOINT_MAGIC = b"GRIDDET-CKPT 1\n"
# The feature layout of griddet.features as a checkpoint header records it,
# in the form of the extractor options of earlier versions, which wrote this
# record and no other. A checkpoint with any other record is rejected.
CHECKPOINT_EXTRACTOR = {"extra_filters": [], "include_box_coords": True,
                        "include_gradients": True, "pool_h": POOL,
                        "pool_w": POOL}
# Rows per batch, images_per_batch * samples_per_image_per_step, at most.
MAX_BATCH_ROWS = 100_000
# Batch rows times the total width of the hidden layers, at most: each
# model's training workspace holds a float64 and a bool entry per row per
# hidden unit, and its forward pass one more float64. Checked by
# ExperimentConfig after MAX_PARAMETERS, which names a too-wide layer first.
MAX_BATCH_UNITS = 10_000_000
# Parameters per model, at most.
MAX_PARAMETERS = 10_000_000


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
        check_fields(self, {
            **dict.fromkeys(("s_train", "n_iter_per_stage", "images_per_batch",
                             "samples_per_image_per_step"), POSITIVE_INT),
            "max_bg_per_scene": NON_NEGATIVE_INT,
            "hidden_sizes": (lambda v: all(d >= 1 for d in v),
                             "a tuple of positive integers"),
            **dict.fromkeys(("learning_rate", "fg_bg_ratio"),
                            (lambda v: v > 0, "> 0")),
            **dict.fromkeys(("momentum", "bg_threshold"),
                            (lambda v: 0 <= v < 1, "in [0, 1)")),
            "seed": NON_NEGATIVE_INT})
        rows = self.images_per_batch * self.samples_per_image_per_step
        if rows > MAX_BATCH_ROWS:
            raise ValueError(f"samples_per_image_per_step x images_per_batch "
                             f"must be at most {MAX_BATCH_ROWS:,}, got {rows:,}")


def _layer_views(flat: np.ndarray, layer_sizes) -> tuple[list, list]:
    """Per-layer weight and bias views into a flat parameter vector.

    Layer by layer, the (fan_in, fan_out) weight matrix comes first, then the
    fan_out biases: the order of checkpoint arrays.
    """
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


def _param_shapes(layer_sizes) -> tuple[tuple[int, ...], ...]:
    """The shapes of each layer's weights, then biases, in order."""
    shapes = ()
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        shapes += ((fan_in, fan_out), (fan_out,))
    return shapes


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
        self.flat = np.zeros(sum(map(math.prod, _param_shapes(layer_sizes))))
        self.weights, self.biases = _layer_views(self.flat, self.layer_sizes)
        if rng is None:
            return
        for w in self.weights:
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def __getstate__(self):
        # Pickled as its sizes and flat vector: unpickled, the weights and
        # biases are views into its flat again.
        return self.layer_sizes, self.flat

    def __setstate__(self, state):
        self.__init__(state[0])
        self.flat[...] = state[1]

    def forward(self, x: np.ndarray):
        """Return (output, cache) for a (B, D) batch. The cache lists the
        input and every layer's output; the layer outputs are fresh arrays."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise DimensionMismatchError(
                f"expected (B, {self.layer_sizes[0]}) input, got {x.shape}")
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

    def backward(self, activations: list[np.ndarray], dout: np.ndarray,
                 workspace: Workspace) -> Grads:
        """Gradients of a scalar loss w.r.t. all parameters, given
        d(loss)/d(out), in the workspace's flat gradient vector; dout is left
        as given."""
        grads_w, grads_b = workspace.grads
        n = len(dout)
        g = dout
        for i in reversed(range(len(self.weights))):
            np.matmul(activations[i].T, g, out=grads_w[i])
            np.add.reduce(g, axis=0, out=grads_b[i])
            if i > 0:
                g = np.matmul(g, self.weights[i].T,
                              out=workspace.backprop[i - 1][:n])
                g *= np.greater(activations[i], 0,
                                out=workspace.masks[i - 1][:n])
        return workspace.grads


class Workspace:
    """Buffers for one MLP's backward passes on batches of up to ``rows``
    rows, made once per training run so that a step's loss and backward pass
    allocate no arrays: the gradients propagated back to each hidden layer's
    output with its rectifier mask, and one gradient vector laid out as
    MLP.flat, with its Grads views. A batch of n rows uses the leading n rows
    of each buffer.
    """

    def __init__(self, model: MLP, rows: int):
        sizes = model.layer_sizes
        self.backprop = [np.empty((rows, d)) for d in sizes[1:-1]]
        self.masks = [np.empty((rows, d), dtype=bool) for d in sizes[1:-1]]
        self.grads = Grads(np.empty_like(model.flat), sizes)


class _RegressionWorkspace(Workspace):
    """A regressor's Workspace plus the regression loss's scratch. Viewed as
    (rows * num_classes, 4), row r's output holds the deltas of class l in
    row ``r * num_classes + l - 1``."""

    def __init__(self, model: MLP, rows: int):
        super().__init__(model, rows)
        self.head_start = np.arange(rows) * (model.output_dim // 4) - 1
        self.head = np.empty(rows, dtype=np.int64)
        self.residual = np.empty((rows, 4))
        self.dout = np.empty((rows, model.output_dim))


class _ClassifierWorkspace(Workspace):
    """A classifier's Workspace plus the cross-entropy's scratch. Flattened,
    row r's output holds the logit of class l at ``r * (num_classes + 1) +
    l``."""

    def __init__(self, model: MLP, rows: int):
        super().__init__(model, rows)
        self.entry_start = np.arange(rows) * model.output_dim
        self.entry = np.empty(rows, dtype=np.int64)
        self.row_stat = np.empty((rows, 1))
        self.true_prob = np.empty(rows)
        self.log_prob = np.empty(rows)


def regressor_parameters(hidden_sizes, num_classes: int) -> int:
    """A regressor's parameter count, which its classifier's, with
    num_classes + 1 outputs to its 4 * num_classes, never exceeds."""
    sizes = [FEATURE_DIM, *hidden_sizes, 4 * num_classes]
    return sum(map(math.prod, _param_shapes(sizes)))


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
    return np.where(absx < 1.0, 0.5 * x * x, absx - 0.5)


def regression_loss_arrays(model: MLP, feats: np.ndarray, labels: np.ndarray,
                           targets: np.ndarray):
    """Smooth-L1 regression loss on the per-class delta heads.

    labels are 1-based foreground class ids; only the head of each row's own
    class receives gradient. Returns (loss, grads, all_background) where
    grads is a fresh Grads and all_background flags an empty foreground
    batch (zero loss/grads).
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(feats) and (labels.min() < 1
                       or labels.max() > model.output_dim // 4):
        raise ValueError("regression labels must be in [1, num_classes]")
    loss, grads = _regression_loss(model, feats, labels,
                                   np.asarray(targets, dtype=np.float64),
                                   _RegressionWorkspace(model, len(feats)))
    return loss, grads, len(feats) == 0


def _regression_loss(model: MLP, feats, labels, targets,
                     ws: _RegressionWorkspace):
    """regression_loss_arrays' (loss, grads) on checked float64/int64
    arrays, computed in ws; the grads returned are ws.grads."""
    n = len(feats)
    if n == 0:
        ws.grads.flat.fill(0.0)
        return 0.0, ws.grads
    out, cache = model.forward(feats)
    head = np.add(ws.head_start[:n], labels, out=ws.head[:n])
    residual = out.reshape(-1, 4).take(head, axis=0, out=ws.residual[:n],
                                       mode="clip")
    residual -= targets
    loss = float(smooth_l1(residual).sum() / n)
    # d smooth_l1 / dx = clip(x, -1, 1), written over the residual.
    np.maximum(residual, -1.0, out=residual)
    np.minimum(residual, 1.0, out=residual)
    residual /= n
    dout = ws.dout[:n]
    dout.fill(0.0)
    dout.reshape(-1, 4)[head] = residual
    return loss, model.backward(cache, dout, ws)


def _softmax_in_place(logits: np.ndarray, row_stat: np.ndarray) -> np.ndarray:
    """Overwrite (B, K) logits with their row-wise softmax; return them.
    row_stat is (B, 1) scratch."""
    np.maximum.reduce(logits, axis=1, keepdims=True, out=row_stat)
    logits -= row_stat
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=1, keepdims=True, out=row_stat)
    logits /= row_stat
    return logits


def softmax_probs(model: MLP, feats: np.ndarray) -> np.ndarray:
    logits = model.forward(feats)[0]
    return _softmax_in_place(logits, np.empty((len(logits), 1)))


def classifier_loss(model: MLP, feats: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy over num_classes + 1 (0 = background).

    Returns (loss, grads) with grads a fresh Grads.
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(feats) and (labels.min() < 0 or labels.max() >= model.output_dim):
        raise ValueError("classifier labels must be in [0, num_classes]")
    return _classifier_loss(model, feats, labels,
                            _ClassifierWorkspace(model, len(feats)))


def _classifier_loss(model: MLP, feats, labels, ws: _ClassifierWorkspace):
    """classifier_loss on checked float64/int64 arrays, computed in ws; the
    grads returned are ws.grads."""
    n = len(feats)
    if n == 0:
        ws.grads.flat.fill(0.0)
        return 0.0, ws.grads
    logits, cache = model.forward(feats)
    # The logits are fresh and backward does not read them: they become the
    # softmax probabilities in place, and then d(loss)/d(logits).
    probs = _softmax_in_place(logits, ws.row_stat[:n])
    entry = np.add(ws.entry_start[:n], labels, out=ws.entry[:n])
    flat_probs = probs.reshape(-1)
    true_prob = flat_probs.take(entry, out=ws.true_prob[:n], mode="clip")
    log_prob = np.maximum(true_prob, 1e-300, out=ws.log_prob[:n])
    np.log(log_prob, out=log_prob)
    # The sum of the negated log-probabilities, negated after summing
    # (negation is exact). 0.0 - sum keeps the +0.0 that summing negated
    # zeros gives when every true probability is 1; -sum would be -0.0.
    loss = float((0.0 - np.add.reduce(log_prob)) / n)
    true_prob -= 1.0
    flat_probs[entry] = true_prob
    probs /= n
    return loss, model.backward(cache, probs, ws)


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
    # (stage, iteration) of the first entry with a loss that is not finite
    diverged_at: tuple[int, int] | None = None

    def add(self, stage, iteration, reg_loss, cls_loss, all_background):
        self.entries.append(dict(
            stage=stage, iteration=iteration, reg_loss=reg_loss,
            cls_loss=cls_loss, all_background=all_background))
        if self.diverged_at is None and not (math.isfinite(reg_loss)
                                             and math.isfinite(cls_loss)):
            self.diverged_at = (stage, iteration)

    @property
    def total_iterations(self) -> int:
        return len(self.entries)


@dataclass
class TrainingTable:
    """Pooled rows of every training scene. Scene i owns rows offsets[i]:
    offsets[i + 1]: its foreground rows box by box, steps 1..s_train within
    each box, then its background rows, whose other columns are all 0."""

    feats: np.ndarray    # (R, FEATURE_DIM)
    labels: np.ndarray   # (R,) 1-based class ids
    steps: np.ndarray    # (R,)
    targets: np.ndarray  # (R, 4) stepwise schedule targets
    direct: np.ndarray   # (R, 4) full-path targets on step-1 rows, else 0
    offsets: np.ndarray  # (scenes + 1,)


def precompute_scene_tensors(scenes, grid_spec: GridSpec, config: TrainConfig,
                             ) -> TrainingTable:
    """Pool features for every box state of every scene's training schedule.

    Box states never depend on the model (approximate update), so everything
    can be pooled once up front. Background boxes are subsampled to
    max_bg_per_scene classifier negatives per scene, deterministically.
    """
    if not scenes:
        raise ValueError("no scenes to train on")
    s_train = config.s_train
    # Pass 1: per scene, the foreground boxes, their objects and the background.
    staged = []
    for scene in scenes:
        h, w = scene.image.shape
        grid = grid_array(grid_spec, w, h)
        gt_boxes = boxes_to_array([g.box for g in scene.gts])
        gt_labels = np.array([g.class_label for g in scene.gts], dtype=np.int64)
        gt_index, _ = assign_boxes(grid, gt_boxes, config.bg_threshold)
        fg = np.flatnonzero(gt_index >= 0)
        bg = np.flatnonzero(gt_index < 0)
        if len(bg) > config.max_bg_per_scene:
            bg_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, scene.scene_id, 2]))
            keep = bg_rng.choice(len(bg), size=config.max_bg_per_scene,
                                 replace=False)
            bg = bg[np.sort(keep)]
        fg_gt = gt_index[fg]
        staged.append((grid[fg], gt_boxes[fg_gt], gt_labels[fg_gt], grid[bg]))
    # Pass 2: one table; per scene, the schedule and one pooling call.
    offsets = np.cumsum([0] + [len(fg) * s_train + len(bg)
                               for fg, _, _, bg in staged])
    # Features in an anonymous map (of at least one byte), not on the heap:
    # freeing a block this large would let glibc's heap keep twice its size.
    n_bytes = 8 * FEATURE_DIM * int(offsets[-1])
    try:
        feats = np.frombuffer(mmap.mmap(-1, n_bytes or 1),
                              count=FEATURE_DIM * offsets[-1])
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"the training table's {offsets[-1]:,} rows need "
                          f"{n_bytes:,} bytes of features") from None
    labels, steps = np.zeros((2, offsets[-1]), dtype=np.int64)
    table = TrainingTable(feats.reshape(-1, FEATURE_DIM), labels, steps,
                          *np.zeros((2, offsets[-1], 4)), offsets)
    extractor = FeatureExtractor()
    for scene, start, end in zip(scenes, offsets, offsets[1:]):
        fg_grid, targets, fg_labels, bg_boxes = staged.pop(0)
        states, fg_targets = train_schedule(fg_grid, targets, s_train, s_train)
        fg = slice(start, start + len(states))
        table.labels[fg] = np.repeat(fg_labels, s_train)
        table.steps[fg] = np.tile(np.arange(1, s_train + 1), len(fg_grid))
        table.targets[fg] = fg_targets
        table.direct[fg][::s_train] = box_deltas(fg_grid, targets)
        table.feats[start:end] = build_roi_features(
            extractor.compute_global_features(scene.image),
            np.concatenate([states, bg_boxes]))
    return table


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


class BatchSampler:
    """The training context of one seed (its table, config, class count,
    slot sizes and batch rows), kept, the first classifier trained on it,
    and the modes it will serve, in order: pending, those not yet trained,
    and ahead, the (regressor, classifier, log) of each mode trained ahead
    of its call (see train_models).

    Per image, in scene_ids order, a batch has samples_per_image regression
    slots, then the step-1 foreground and the background classifier slots,
    all picked by one ``integers`` call. An image whose pool is empty adds
    no rows of that kind, so a batch can come out short. numpy's bounded
    sampler uses stream words value by value whatever the shape of ``high``,
    rejections included, and none for a high of 1: the call gives the rows
    and the generator state of one call per image and non-empty pool
    (test_one_integers_call_draws_as_one_call_per_pool).

    kept is that classifier's (batches, losses, flat): its batches, one
    float64 loss per batch and its final parameters. Every mode's classifier
    batches almost always come out the same: the modes differ only in the
    regressor, and each slot uses one stream word whatever its pool's
    length, bar a rare rejection in numpy's bounded sampler.
    """

    kept = None

    def __init__(self, table: TrainingTable, config: TrainConfig,
                 num_classes: int, modes=()):
        for mode in modes:
            _check_mode(mode)
        self.pending, self.ahead = list(modes), {}
        # Checked once here, so that the losses can index by label unchecked.
        bad = np.flatnonzero((table.steps > 0) & (
            (table.labels < 1) | (table.labels > num_classes)))
        if len(bad):
            scene = np.searchsorted(table.offsets, bad[0], side="right") - 1
            raise ValueError(
                f"scene tensors {scene}: foreground labels must be in "
                f"1..{num_classes}, got {table.labels[bad[0]]} in row {bad[0]}")
        self.table, self.config, self.num_classes = table, config, num_classes
        per_image = config.samples_per_image_per_step
        n_fg_cls = max(1, int(round(per_image / (1.0 + config.fg_bg_ratio))))
        self.sizes = (per_image, n_fg_cls, per_image - n_fg_cls)
        self.rows = config.images_per_batch * per_image

    def draw_run(self, rng: np.random.Generator, stages, direct: bool):
        """Every batch of one training run, stage by stage, in stream order:
        per iteration, one ``choice`` of images_per_batch scenes, then draw
        on the stage's start_phase tables. stages lists (stage, iterations).
        Returns the regressor's batches, then the classifier's: per
        iteration, one array of table rows."""
        n_scenes = len(self.table.offsets) - 1
        n_images = self.config.images_per_batch
        heads = [], []
        for stage, n_iter in stages:
            pools = self.start_phase(stage, direct)
            for _ in range(n_iter):
                scene_ids = rng.choice(n_scenes, size=n_images,
                                       replace=n_scenes < n_images)
                for batches, batch in zip(heads,
                                          self.draw(rng, scene_ids, pools)):
                    batches.append(batch)
        return heads

    def start_phase(self, stage: int, direct: bool):
        """The phase's pool tables (pool_rows, base, high, keep). Direct
        phases regress step-1 rows to their full-path targets; stepwise
        phases draw from the rows of steps 1..stage. Per scene, the phase's
        pools are its (regression, step-1, background) table rows, laid end
        to end in pool_rows, kind by kind, then one spare entry; int32 when
        the table fits. Per scene and slot, base is the start of the slot's
        pool in pool_rows, high its length (1 if empty) and keep whether it
        is non-empty; an empty pool's slots draw base, at most the spare."""
        t = self.table
        step1 = t.steps == 1
        reg = step1 if direct else (t.steps >= 1) & (t.steps <= stage)
        kinds = np.stack([reg, step1, t.steps == 0])
        # Per scene and kind, pool rows before the scene's: (scenes + 1, 3).
        before = np.concatenate([[0], np.cumsum(kinds)])[
            np.arange(3) * len(t.steps) + t.offsets[:, None]]
        lengths = np.diff(before, axis=0)
        pool_rows = np.append(np.nonzero(kinds)[1], 0)
        return (pool_rows.astype(np.int32) if len(t.steps) < 2 ** 31
                else pool_rows,
                np.repeat(before[:-1], self.sizes, axis=1),
                np.repeat(np.maximum(lengths, 1), self.sizes, axis=1),
                np.repeat(lengths > 0, self.sizes, axis=1))

    def draw(self, rng: np.random.Generator, scene_ids: np.ndarray, pools):
        """The table rows of one batch, the regressor's and the
        classifier's, from start_phase's pools."""
        pool_rows, base, high, keep = pools
        pos = base[scene_ids]
        pos += rng.integers(0, high[scene_ids])
        rows, keep = pool_rows.take(pos), keep[scene_ids]
        n = self.sizes[0]
        return rows[:, :n][keep[:, :n]], rows[:, n:][keep[:, n:]]


def _sgd(loss_fn, opt: SGDOptimizer, ws: Workspace, sources,
         batches) -> np.ndarray:
    """One model's SGD loop over its batches of a run: per batch, the rows of
    each source array at the batch's table rows, the loss and backward pass
    in ws, then a step unless the batch is empty. Returns the losses, one
    float64 per batch."""
    losses = np.empty(len(batches))
    for i, batch in enumerate(batches):
        losses[i], grads = loss_fn(
            opt.model, *[s.take(batch, axis=0) for s in sources], ws)
        if len(batch):
            opt.step(grads)
    return losses


def _same_batches(a, b) -> bool:
    """Whether two runs' batches hold the same table rows: their lengths,
    then all their rows in one comparison, not batch by batch."""
    return (list(map(len, a)) == list(map(len, b))
            and np.array_equal(np.concatenate(a), np.concatenate(b)))


def _pin(cpus):
    """Keep this process to cpus if the system allows it. The set is only a
    placement, so a refusal leaves the process where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _train_beside(train_here, train_there, what: str):
    """Run train_here() and train_there(); return both results.

    When this process can fork and may run on two CPUs or more, train_there
    runs in a forked child while train_here runs here; otherwise, or when
    the fork fails, both run here, train_here first, to the same bits.

    A forked child starts on this process's CPU and, where the kernel does
    not balance load (a cpuset with sched_load_balance off), stays there,
    sharing it with this process. So the child pins itself to the last CPU
    this process may use, and this process keeps to the others until it
    has reaped the child. On two CPUs, then, neither side forks again, and
    a process kept to one CPU always trains inline.

    The child starts from this process's memory at the fork: the table's
    features are a shared map, its other columns are only read, and the
    child allocates its own batches and forward outputs, so a MemoryError
    there comes back as the error below, which names what. It sends back
    one pickled reply, (True, train_there's result) or (False, the text of
    the exception it caught), and always leaves through os._exit(0), never
    flushing this process's stdio buffers or running its exit hooks. This
    process kills the child if it raises itself, and always reaps it.
    """
    cpus, pid = set(), -1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = os.sched_getaffinity(0)
    if len(cpus) >= 2:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_fd)
            os.close(write_fd)
    if pid < 0:
        return train_here(), train_there()
    child_cpu = {max(cpus)}
    if pid == 0:
        try:
            os.close(read_fd)
            _pin(child_cpu)
            try:
                reply = pickle.dumps((True, train_there()),
                                     pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # sent back, then os._exit
                reply = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
            with open(write_fd, "wb") as pipe:
                pipe.write(reply)
        finally:
            os._exit(0)
    try:
        os.close(write_fd)
        _pin(cpus - child_cpu)
        with open(read_fd, "rb") as pipe:
            result = train_here()
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _pin(cpus)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    ok, value = pickle.loads(reply) if code == 0 else (
        False, f"exit status {code}" if code > 0 else f"signal {-code}")
    if ok:
        return result, value
    raise (MemoryError if value.startswith("MemoryError:") else RuntimeError)(
        f"training {what} in a child process failed: {value}")


def _fit(sampler: BatchSampler, mode: str):
    """One mode's training run on the sampler, in three steps: draw every
    batch of the run (BatchSampler.draw_run), then train the regressor on
    the table's features, labels and targets (direct ones for ifrcnn) and
    the classifier on its features and labels, each at the rows of its own
    batches in one loop (_sgd) with a Workspace made here. The two loops
    share nothing they write, and _train_beside runs them on two CPUs or on
    one, to the same bits.

    A run whose classifier batches equal the sampler's kept ones copies the
    kept classifier and losses; any other trains its own, which the sampler
    keeps if it is the first. Returns (regressor, classifier, log).
    """
    config, num_classes, t = sampler.config, sampler.num_classes, sampler.table
    init_reg, init_cls, batch_ss = np.random.SeedSequence(config.seed).spawn(3)
    regressor = make_regressor(FEATURE_DIM, config.hidden_sizes, num_classes,
                               np.random.default_rng(init_reg))
    classifier = make_classifier(FEATURE_DIM, config.hidden_sizes, num_classes,
                                 np.random.default_rng(init_cls))
    iterations = config.s_train * config.n_iter_per_stage
    if mode == "gcnn":
        stages = [(c, config.n_iter_per_stage)
                  for c in range(1, config.s_train + 1)]
    elif mode == "1step":
        stages = [(config.s_train, iterations)]
    else:
        stages = [(1, iterations)]
    direct = mode == "ifrcnn"
    reg_batches, cls_batches = sampler.draw_run(
        np.random.default_rng(batch_ss), stages, direct)

    opt_reg = SGDOptimizer(regressor, config.learning_rate, config.momentum)
    opt_cls = SGDOptimizer(classifier, config.learning_rate, config.momentum)
    reg_ws = _RegressionWorkspace(regressor, sampler.rows)
    cls_ws = _ClassifierWorkspace(classifier, sampler.rows)

    def train_regressor():
        return _sgd(_regression_loss, opt_reg, reg_ws,
                    (t.feats, t.labels, t.direct if direct else t.targets),
                    reg_batches)

    def train_classifier():
        return _sgd(_classifier_loss, opt_cls, cls_ws, (t.feats, t.labels),
                    cls_batches), classifier.flat

    kept = sampler.kept
    with np.errstate(all="ignore"):  # a diverged run shows in its log
        if kept is not None and _same_batches(kept[0], cls_batches):
            reg_losses, (cls_losses, flat) = train_regressor(), kept[1:]
        else:
            reg_losses, (cls_losses, flat) = _train_beside(
                train_regressor, train_classifier, "the classifier")
    classifier.flat[...] = flat
    if kept is None:
        sampler.kept = (cls_batches, cls_losses, classifier.flat.copy())
    log = TrainLog()
    entries = zip(reg_losses.tolist(), cls_losses.tolist(),
                  map(len, reg_batches))
    for stage, n_iter in stages:
        log.stage_boundaries.append(len(log.entries))
        for it, (reg_loss, cls_loss, n) in zip(range(n_iter), entries):
            log.add(stage, it, reg_loss, cls_loss, n == 0)
    return regressor, classifier, log


def train_models(sampler: BatchSampler, mode: str):
    """Run the SGD schedule for one of the three training strategies on the
    sampler's table, config and class count; return (regressor, classifier,
    log).

    gcnn: stages c = 1..s_train, each n_iter_per_stage iterations on the
    cumulative tuple pool of steps 1..c. 1step: one phase on the full pool.
    ifrcnn: one phase on step-1 states with direct (full-path) targets.
    All modes run s_train * n_iter_per_stage total iterations.

    A call that finds the sampler's kept classifier set while a mode it was
    told of is still pending trains the first such mode beside its own run
    (_train_beside: in a forked child on a second CPU), and the sampler
    holds that mode's result until its own call returns it. So on two CPUs
    an ablation seed's four SGD loops take two rounds: gcnn's regressor
    beside its classifier, then 1step's regressor beside ifrcnn's. Each run
    depends only on the sampler's context and kept (_fit), so every call
    returns the bits it would return on a sampler of its own, in any order.
    """
    _check_mode(mode)
    if mode in sampler.pending:
        sampler.pending.remove(mode)
    if mode in sampler.ahead:
        return sampler.ahead.pop(mode)
    if sampler.kept is None or not sampler.pending:
        return _fit(sampler, mode)
    later = sampler.pending.pop(0)
    models, sampler.ahead[later] = _train_beside(
        lambda: _fit(sampler, mode), lambda: _fit(sampler, later), later)
    return models


@dataclass(frozen=True)
class _CheckpointHeader:
    config: TrainConfig
    mode: str
    num_classes: int
    extractor: dict
    stage: int
    regressor_sizes: tuple[int, ...]
    classifier_sizes: tuple[int, ...]
    arrays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = (lambda v: len(v) >= 2 and min(v) >= 1,
                 "a list of at least two positive integers")
        check_fields(self, {
            "mode": (lambda v: v in MODES, f"one of {MODES}"),
            **dict.fromkeys(("num_classes", "stage"), POSITIVE_INT),
            "extractor": (lambda v: v == CHECKPOINT_EXTRACTOR,
                          f"the feature layout {CHECKPOINT_EXTRACTOR}"),
            **dict.fromkeys(("regressor_sizes", "classifier_sizes"), sizes)})
        shapes = (_param_shapes(self.regressor_sizes)
                  + _param_shapes(self.classifier_sizes))
        if self.arrays != shapes:
            raise ValueError(f"arrays must be the parameter shapes {shapes} "
                             f"of regressor_sizes and classifier_sizes, got "
                             f"{self.arrays}")


def save_checkpoint(path, regressor: MLP, classifier: MLP, *,
                    config: TrainConfig, mode: str, num_classes: int,
                    stage: int):
    """Write a versioned binary checkpoint: a JSON header, then the
    regressor's and the classifier's flat vectors as little-endian float64."""
    header = _CheckpointHeader(
        config, mode, num_classes, CHECKPOINT_EXTRACTOR, stage,
        tuple(regressor.layer_sizes), tuple(classifier.layer_sizes),
        _param_shapes(regressor.layer_sizes)
        + _param_shapes(classifier.layer_sizes))
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(to_plain(header), sort_keys=True).encode() + b"\n")
        for model in (regressor, classifier):
            f.write(model.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (regressor, classifier, meta dict). The
    models are built only once the header's sizes match the blob's length."""
    with open(path, "rb") as f:
        if f.readline() != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        header = from_json(_CheckpointHeader, f.readline(),
                           f"checkpoint {path} header")
        blob = f.read()
    n_params = sum(map(math.prod, header.arrays))
    if len(blob) != 8 * n_params:
        raise ValueError(f"checkpoint {path}: parameter blob has {len(blob)} "
                         f"bytes, expected {8 * n_params} for {n_params} "
                         f"float64 parameters")
    num_classes = header.num_classes
    for name, sizes, outputs in (
            ("regressor", header.regressor_sizes, 4 * num_classes),
            ("classifier", header.classifier_sizes, num_classes + 1)):
        if (sizes[0], sizes[-1]) != (FEATURE_DIM, outputs):
            raise ValueError(
                f"checkpoint {path}: {name} maps {sizes[0]} inputs to "
                f"{sizes[-1]} outputs, expected {FEATURE_DIM} to "
                f"{outputs} for num_classes {num_classes}")
    meta = {"config": header.config, "mode": header.mode,
            "num_classes": num_classes, "stage": header.stage}
    regressor = MLP(header.regressor_sizes)
    classifier = MLP(header.classifier_sizes)
    regressor.flat[...] = np.frombuffer(blob, dtype="<f8",
                                        count=regressor.flat.size)
    classifier.flat[...] = np.frombuffer(blob, dtype="<f8",
                                         offset=regressor.flat.nbytes)
    return regressor, classifier, meta
