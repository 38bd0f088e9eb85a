"""Iterative grid-based object detection at desk scale.

A fixed multi-scale grid of boxes is trained, through a stepwise piecewise
regression schedule, to migrate onto objects; detection iterates the learned
regressor with classifier gating, with no proposal stage.
"""

from .assign import Assignment, GroundTruth, TrainTuple, assign_grid, \
    build_train_tuples, target_step
from .boxes import Box, DeltaParams, apply_delta, clip_to_image, delta, iou
from .detect import DetectionResult, detect, detect_multi, nms
from .features import ExtractorConfig, FeatureExtractor, FeatureMap
from .grid import GridSpec, generate_grid
from .model import MLP, TrainConfig, smooth_l1, train_stepwise
from .synth import Scene, SynthConfig, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "Assignment", "Box", "DeltaParams", "DetectionResult", "ExtractorConfig",
    "FeatureExtractor", "FeatureMap", "GridSpec", "GroundTruth", "MLP",
    "Scene", "SynthConfig", "TrainConfig", "TrainTuple", "apply_delta",
    "assign_grid", "build_train_tuples", "clip_to_image", "delta", "detect",
    "detect_multi", "generate_dataset", "generate_grid", "iou", "nms",
    "smooth_l1", "target_step", "train_stepwise",
]
