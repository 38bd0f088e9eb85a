"""Procedural synthetic scenes: textured grayscale images with shaped objects.

Every scene is a pure function of (config, scene_id), so a dataset can be
shipped as a manifest and regenerated bit-identically. Classes in the same
similarity group share a base shape and differ only in fill intensity, which
makes them deliberately confusable.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .assign import GroundTruth
from .boxes import Box, iou
from .records import (NON_NEGATIVE_INT, POSITIVE_INT, UNIT_NUMBER,
                      ConfigValueError, check_fields, from_json, to_plain)

MANIFEST_VERSION = 1

# Base shapes, one per similarity group, cycled if there are more groups.
_SHAPES = ("rect", "disk", "cross", "ring")
# Fill intensities by rank inside a similarity group.
_FILLS = (0.95, 0.55, 0.75, 0.40)


class PlacementFailureError(ConfigValueError):
    """Could not place an object within the retry budget."""


@dataclass(frozen=True)
class SynthConfig:
    image_size: tuple[int, int] = (128, 128)  # (W, H)
    num_classes: int = 4
    objects_per_scene: tuple[int, int] = (1, 3)
    size_range: tuple[float, float] = (0.1, 0.5)  # fraction of image side
    noise_sigma: float = 0.02
    class_similarity_groups: tuple[tuple[int, ...], ...] = ((1, 2), (3, 4))
    seed: int = 0
    max_gt_overlap: float = 0.3
    max_place_tries: int = 200

    def __post_init__(self):
        check_fields(self, {
            # Feature extraction takes a gradient along each image axis,
            # which needs two pixels.
            "image_size": (lambda v: min(v) >= 2,
                           "two integers of at least 2"),
            "num_classes": POSITIVE_INT,
            "objects_per_scene": (lambda v: 0 <= v[0] <= v[1],
                                  "two non-negative integers in order"),
            "size_range": (lambda v: 0 < v[0] <= v[1] <= 1,
                           "two numbers within (0, 1], in order"),
            "noise_sigma": (lambda v: v >= 0, "a number >= 0"),
            "class_similarity_groups": (
                lambda v: sum(map(len, v)) == self.num_classes
                and sorted(sum(v, ())) == list(range(1, self.num_classes + 1)),
                f"a partition of 1..{self.num_classes}"),
            "seed": NON_NEGATIVE_INT,
            "max_gt_overlap": UNIT_NUMBER,
            "max_place_tries": POSITIVE_INT})

    def group_of(self, class_label: int) -> int:
        for gi, group in enumerate(self.class_similarity_groups):
            if class_label in group:
                return gi
        raise ValueError(f"unknown class {class_label}")


@dataclass
class Scene:
    image: np.ndarray  # (H, W) floats in [0, 1]
    gts: list[GroundTruth]
    scene_id: int
    seed: int


def _shape_mask(shape: str, hh: int, ww: int) -> np.ndarray:
    if shape == "rect":
        return np.ones((hh, ww), dtype=bool)
    # Normalized coordinates in [-1, 1] at pixel centers: a column of y and
    # a row of x, which broadcast to (hh, ww).
    ny = (np.arange(hh)[:, None] + 0.5) / hh * 2.0 - 1.0
    nx = (np.arange(ww) + 0.5) / ww * 2.0 - 1.0
    if shape == "disk":
        return nx * nx + ny * ny <= 1.0
    if shape == "cross":
        return (np.abs(nx) <= 1.0 / 3.0) | (np.abs(ny) <= 1.0 / 3.0)
    if shape == "ring":
        r2 = nx * nx + ny * ny
        return (r2 <= 1.0) & (r2 >= (0.55) ** 2)
    raise ValueError(f"unknown shape {shape!r}")


def _class_style(config: SynthConfig, class_label: int) -> tuple[str, float]:
    gi = config.group_of(class_label)
    rank = config.class_similarity_groups[gi].index(class_label)
    return _SHAPES[gi % len(_SHAPES)], _FILLS[rank % len(_FILLS)]


def scene_seed(config: SynthConfig, scene_id: int) -> int:
    return int(np.random.SeedSequence([config.seed, scene_id]).generate_state(1)[0])


def generate_scene(config: SynthConfig, scene_id: int) -> Scene:
    """Render one scene: textured background, shaped objects, Gaussian noise."""
    w, h = config.image_size
    seed = scene_seed(config, scene_id)
    rng = np.random.default_rng(seed)

    fx, fy = rng.uniform(0.5, 2.0, size=2)
    phase = rng.uniform(0, 2 * np.pi)
    # 0.15 + 0.05 * sin(2 pi (fx x / w + fy y / h) + phase), from a row of x
    # terms and a column of y terms, each later operation in place in the
    # order of that formula, so every pixel gets the formula's bits.
    image = np.add(fx * np.arange(w) / w, fy * np.arange(h)[:, None] / h)
    image *= 2 * np.pi
    image += phase
    np.sin(image, out=image)
    image *= 0.05
    image += 0.15

    n_objects = int(rng.integers(config.objects_per_scene[0],
                                 config.objects_per_scene[1] + 1))
    gts: list[GroundTruth] = []
    for _ in range(n_objects):
        placed = False
        for _try in range(config.max_place_tries):
            label = int(rng.integers(1, config.num_classes + 1))
            bw = rng.uniform(*config.size_range) * w
            bh = rng.uniform(*config.size_range) * h
            cx = rng.uniform(bw / 2.0, w - bw / 2.0)
            cy = rng.uniform(bh / 2.0, h - bh / 2.0)
            box = Box(cx, cy, bw, bh)
            if all(iou(box, g.box) <= config.max_gt_overlap for g in gts):
                gts.append(GroundTruth(box, label))
                placed = True
                break
        if not placed:
            raise PlacementFailureError(
                f"scene {scene_id}: could not place object "
                f"{len(gts) + 1}/{n_objects} in {config.max_place_tries} "
                f"tries, with synth.size_range {list(config.size_range)}, "
                f"synth.max_gt_overlap {config.max_gt_overlap} and "
                f"synth.max_place_tries {config.max_place_tries}")

    for gt in gts:
        x1, y1, x2, y2 = gt.box.corners()
        ix1, iy1 = int(round(x1)), int(round(y1))
        ix2, iy2 = max(int(round(x2)), ix1 + 1), max(int(round(y2)), iy1 + 1)
        shape, fill = _class_style(config, gt.class_label)
        mask = _shape_mask(shape, iy2 - iy1, ix2 - ix1)
        patch = image[iy1:iy2, ix1:ix2]
        patch[mask[:patch.shape[0], :patch.shape[1]]] = fill

    if config.noise_sigma > 0:
        image += rng.normal(0.0, config.noise_sigma, size=image.shape)
    np.clip(image, 0.0, 1.0, out=image)
    return Scene(image, gts, scene_id, seed)


def generate_dataset(config: SynthConfig, n_scenes: int,
                     start_id: int = 0) -> list[Scene]:
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    return [generate_scene(config, start_id + i) for i in range(n_scenes)]


@dataclass(frozen=True)
class _GroundTruthRecord:
    cx: float
    cy: float
    w: float
    h: float
    class_label: int

    def __post_init__(self):
        check_fields(self, {})
        self.ground_truth  # the Box and GroundTruth checks

    @functools.cached_property
    def ground_truth(self) -> GroundTruth:
        return GroundTruth(Box(self.cx, self.cy, self.w, self.h),
                           self.class_label)


@dataclass(frozen=True)
class _SceneRecord:
    scene_id: int
    seed: int
    gts: tuple[_GroundTruthRecord, ...]

    def __post_init__(self):
        check_fields(self, dict.fromkeys(("scene_id", "seed"),
                                         NON_NEGATIVE_INT))


@dataclass(frozen=True)
class _Manifest:
    format_version: int
    config: SynthConfig
    scenes: tuple[_SceneRecord, ...]
    images_file: None = None  # images regenerate from (config, scene_id)

    def __post_init__(self):
        check_fields(self, {
            "format_version": (lambda v: v == MANIFEST_VERSION,
                               str(MANIFEST_VERSION)),
            "images_file": (None, "null, since images regenerate from the "
                                  "config")})


def save_manifest(path, config: SynthConfig, scenes: list[Scene]):
    """Write a manifest sufficient to regenerate the dataset procedurally."""
    manifest = _Manifest(MANIFEST_VERSION, config, tuple(
        _SceneRecord(s.scene_id, s.seed, tuple(
            _GroundTruthRecord(g.box.cx, g.box.cy, g.box.w, g.box.h,
                               g.class_label) for g in s.gts))
        for s in scenes))
    with open(path, "w") as f:
        json.dump(to_plain(manifest), f, indent=2, sort_keys=True)
        f.write("\n")


def load_manifest(path) -> tuple[SynthConfig, list[Scene]]:
    """Load a dataset: ground truth from the manifest, images regenerated
    procedurally."""
    manifest = _read_manifest(path)
    try:
        return manifest.config, [
            Scene(generate_scene(manifest.config, s.scene_id).image,
                  [g.ground_truth for g in s.gts], s.scene_id, s.seed)
            for s in manifest.scenes]
    except PlacementFailureError as exc:  # the manifest's config failed
        raise ValueError(f"manifest {path}: {exc}") from None


def load_ground_truth(path) -> dict[int, list[GroundTruth]]:
    """The ground truth of a dataset manifest by scene_id, without
    regenerating its images."""
    return {s.scene_id: [g.ground_truth for g in s.gts]
            for s in _read_manifest(path).scenes}


def _read_manifest(path) -> _Manifest:
    with open(path, "rb") as f:
        manifest = from_json(_Manifest, f.read(), f"manifest {path}")
    seen = set()
    for i, scene in enumerate(manifest.scenes):
        # Ground truth and detections are matched by scene_id.
        if scene.scene_id in seen:
            raise ValueError(f"manifest {path}.scenes[{i}]: scene_id must be "
                             f"unique, got {scene.scene_id}")
        seen.add(scene.scene_id)
    return manifest
