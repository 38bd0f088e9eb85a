"""Ground-truth assignment, the per-step target schedule, and training tuples.

The array functions (assign_boxes, step_targets, train_schedule) do the work;
assign_grid, target_step and build_train_tuples are their Box-level wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boxes import Box, DeltaParams, box_deltas, boxes_to_array, iou_matrix


class StepOutOfRangeError(ValueError):
    """Step index outside [1, s_train]."""


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """A labeled ground-truth box. Class ids start at 1; 0 is background."""

    box: Box
    class_label: int

    def __post_init__(self):
        if self.class_label < 1:
            raise ValueError(f"class_label must be >= 1, got {self.class_label}")


@dataclass(frozen=True, slots=True)
class Assignment:
    """Grid box -> ground truth mapping, frozen at the initial grid position."""

    grid_index: int
    target_gt: Optional[GroundTruth]
    iou_at_assignment: float

    @property
    def is_background(self) -> bool:
        return self.target_gt is None


@dataclass(frozen=True, slots=True)
class TrainTuple:
    """One regression/classification sample: a box state at a given step.

    Background tuples carry no regression target and exist only at step 1
    (classifier negatives).
    """

    box_state: Box
    step: int
    class_label: int
    delta_target: Optional[DeltaParams]
    is_background: bool

    def __post_init__(self):
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.is_background and self.delta_target is not None:
            raise ValueError("background tuples must not carry a regression target")
        if not self.is_background and self.delta_target is None:
            raise ValueError("foreground tuples require a regression target")


def assign_boxes(grid: np.ndarray, gt_boxes: np.ndarray,
                 bg_threshold: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """Assign each grid row to its max-IoU ground-truth row, or background.

    IoU is computed against the initial grid position and the assignment is
    never revisited. Returns (gt_index, iou): per grid row, the index of its
    ground truth, -1 for background, and its best IoU (0 without ground
    truth). Rows whose best IoU is <= bg_threshold are background. Ties break
    toward the lowest ground-truth index (argmax keeps the first maximum), so
    the result is deterministic.
    """
    if not len(gt_boxes):
        return np.full(len(grid), -1, dtype=np.int64), np.zeros(len(grid))
    ious = iou_matrix(grid, gt_boxes)
    best = np.argmax(ious, axis=1)
    best_iou = ious[np.arange(len(grid)), best]
    return np.where(best_iou > bg_threshold, best, -1), best_iou


def step_targets(boxes: np.ndarray, gt_boxes: np.ndarray, s: int,
                 s_train: int) -> np.ndarray:
    """Per-step targets: move each row one unit along the remaining path to
    its row of gt_boxes.

    The remaining path from b to g is divided by the number of remaining
    steps (s_train - s + 1), componentwise in (cx, cy, w, h); at s == s_train
    the target is g itself.
    """
    if not 1 <= s <= s_train:
        raise StepOutOfRangeError(f"step {s} outside [1, {s_train}]")
    if s == s_train:
        return gt_boxes.copy()  # final step: the ground truth, exactly
    f = 1.0 / (s_train - s + 1)
    return boxes + (gt_boxes - boxes) * f


def train_schedule(grid: np.ndarray, gt_boxes: np.ndarray, s_train: int,
                   n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Box states and delta targets of steps 1..n_steps for each foreground
    grid row and its row of gt_boxes, as two (rows * n_steps, 4) arrays in
    (row, step) row-major order.

    Step-1 states are the grid; later states follow the approximate update
    (the state at step s is the previous step's target).
    """
    if not 1 <= n_steps <= s_train:
        raise StepOutOfRangeError(f"n_steps {n_steps} outside [1, {s_train}]")
    states = np.empty((len(grid), n_steps + 1, 4))
    states[:, 0] = grid
    for s in range(1, n_steps + 1):
        states[:, s] = step_targets(states[:, s - 1], gt_boxes, s, s_train)
    targets = states[:, 1:].reshape(-1, 4)
    states = states[:, :-1].reshape(-1, 4)
    return states, box_deltas(states, targets)


def assign_grid(grid: list[Box], gts: list[GroundTruth],
                bg_threshold: float = 0.2) -> list[Assignment]:
    """assign_boxes over Box and GroundTruth lists, as Assignments."""
    gt_index, ious = assign_boxes(boxes_to_array(grid),
                                  boxes_to_array([g.box for g in gts]),
                                  bg_threshold)
    return [Assignment(i, gts[j] if j >= 0 else None, v)
            for i, (j, v) in enumerate(zip(gt_index.tolist(), ious.tolist()))]


def target_step(b: Box, g: Box, s: int, s_train: int) -> Box:
    """step_targets for one box."""
    return Box(*step_targets(boxes_to_array([b]), boxes_to_array([g]), s,
                             s_train)[0].tolist())


def build_train_tuples(grid: list[Box], assignments: list[Assignment],
                       s_train: int, current_stage: int) -> list[TrainTuple]:
    """Cumulative training tuples for steps 1..current_stage, in assignment
    order: train_schedule's rows for a foreground box, one step-1 tuple with
    no regression target for a background box."""
    fg = [a for a in assignments if a.target_gt is not None]
    states, targets = train_schedule(
        boxes_to_array([grid[a.grid_index] for a in fg]),
        boxes_to_array([a.target_gt.box for a in fg]), s_train, current_stage)
    rows = iter(zip(states.tolist(), targets.tolist()))
    tuples: list[TrainTuple] = []
    for a in assignments:
        if a.target_gt is None:
            tuples.append(TrainTuple(grid[a.grid_index], 1, 0, None, True))
            continue
        for s in range(1, current_stage + 1):
            state, target = next(rows)
            tuples.append(TrainTuple(Box(*state), s, a.target_gt.class_label,
                                     DeltaParams(*target), False))
    return tuples
