"""Ground-truth assignment, the per-step target schedule, and training tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boxes import Box, DeltaParams, boxes_to_array, delta, iou_matrix


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


def assign_grid(grid: list[Box], gts: list[GroundTruth],
                bg_threshold: float = 0.2) -> list[Assignment]:
    """Assign each grid box to its max-IoU ground truth, or background.

    IoU is computed against the initial grid position and the assignment is
    never revisited. Boxes whose best IoU is <= bg_threshold are background.
    Ties break toward the lowest ground-truth index (argmax keeps the first
    maximum), so the result is deterministic.
    """
    if not gts:
        return [Assignment(i, None, 0.0) for i in range(len(grid))]
    ious = iou_matrix(boxes_to_array(grid), boxes_to_array([g.box for g in gts]))
    best = np.argmax(ious, axis=1)
    out = []
    for i in range(len(grid)):
        j = int(best[i])
        v = float(ious[i, j])
        if v > bg_threshold:
            out.append(Assignment(i, gts[j], v))
        else:
            out.append(Assignment(i, None, v))
    return out


def target_step(b: Box, g: Box, s: int, s_train: int) -> Box:
    """Per-step target: move one unit along the remaining path to ``g``.

    The remaining path from b to g is divided by the number of remaining
    steps (s_train - s + 1), componentwise in (cx, cy, w, h); at s == s_train
    the target is g itself.
    """
    if not 1 <= s <= s_train:
        raise StepOutOfRangeError(f"step {s} outside [1, {s_train}]")
    if s == s_train:
        return g  # final step: the target is the ground truth, exactly
    f = 1.0 / (s_train - s + 1)
    return Box(
        cx=b.cx + (g.cx - b.cx) * f,
        cy=b.cy + (g.cy - b.cy) * f,
        w=b.w + (g.w - b.w) * f,
        h=b.h + (g.h - b.h) * f,
    )


def build_train_tuples(grid: list[Box], assignments: list[Assignment],
                       s_train: int, current_stage: int) -> list[TrainTuple]:
    """Cumulative training tuples for steps 1..current_stage.

    Step-1 box states are the grid; later states follow the approximate
    update (the state at step s is the previous step's target). Background
    boxes contribute a single step-1 tuple each, with no regression target.
    """
    if not 1 <= current_stage <= s_train:
        raise StepOutOfRangeError(
            f"current_stage {current_stage} outside [1, {s_train}]")
    tuples: list[TrainTuple] = []
    for a in assignments:
        b = grid[a.grid_index]
        if a.target_gt is None:
            tuples.append(TrainTuple(b, 1, 0, None, True))
            continue
        g = a.target_gt.box
        label = a.target_gt.class_label
        for s in range(1, current_stage + 1):
            t = target_step(b, g, s, s_train)
            tuples.append(TrainTuple(b, s, label, delta(b, t), False))
            b = t
    return tuples
