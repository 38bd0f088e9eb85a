"""Experiment configuration: nested dataclasses with YAML round-trip."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import yaml

from .grid import GridSpec
from .model import MODES, TrainConfig
from .records import (NON_NEGATIVE_INT, POSITIVE_INT, UNIT_NUMBER,
                      check_fields, from_plain, to_plain)
from .synth import SynthConfig


@dataclass
class ExperimentConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    grid_train: GridSpec = field(
        default_factory=lambda: GridSpec((2, 5, 10), (0.9, 0.8, 0.7)))
    grid_test: GridSpec = field(
        default_factory=lambda: GridSpec((2, 5, 10), (0.7, 0.5, 0.0)))
    train: TrainConfig = field(default_factory=TrainConfig)
    s_test: int = 5
    mode: str = "gcnn"
    score_threshold: float = 0.05
    nms_iou: float = 0.3
    iou_match: float = 0.5
    output_dir: str = "out"
    n_train: int = 300
    n_test: int = 100

    def __post_init__(self):
        check_fields(self, {
            "s_test": NON_NEGATIVE_INT,
            "mode": (lambda v: v in MODES, f"one of {MODES}"),
            **dict.fromkeys(("score_threshold", "nms_iou", "iou_match"),
                            UNIT_NUMBER),
            **dict.fromkeys(("n_train", "n_test"), POSITIVE_INT)})

    def with_seed(self, seed: int) -> ExperimentConfig:
        """This config with `seed` as both the data and the training seed."""
        return replace(self, synth=replace(self.synth, seed=seed),
                       train=replace(self.train, seed=seed))


def load_config(path) -> ExperimentConfig:
    with open(path, "rb") as f:
        try:
            doc = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            # YAML errors span lines; one line keeps the CLI's error line whole.
            raise ValueError(f"config file {path}: invalid YAML: "
                             f"{' '.join(str(exc).split())}") from None
        except RecursionError:
            raise ValueError(f"config file {path} is nested too deeply") \
                from None
    return from_plain(ExperimentConfig, doc, f"config file {path}")


def save_config(config: ExperimentConfig, path):
    with open(path, "w") as f:
        yaml.safe_dump(to_plain(config), f, sort_keys=True)
