"""Procedural synthetic scenes: textured grayscale images with shaped objects.

Every scene is a pure function of (config, scene_id), so a dataset can be
shipped as a manifest and regenerated bit-identically. Classes in the same
similarity group share a base shape and differ only in fill intensity, which
makes them deliberately confusable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .assign import GroundTruth
from .boxes import Box, iou
from .records import from_plain, to_plain

MANIFEST_VERSION = 1

# Base shapes, one per similarity group, cycled if there are more groups.
_SHAPES = ("rect", "disk", "cross", "ring")
# Fill intensities by rank inside a similarity group.
_FILLS = (0.95, 0.55, 0.75, 0.40)


class PlacementFailureError(RuntimeError):
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
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.objects_per_scene[0] < 0 or \
                self.objects_per_scene[0] > self.objects_per_scene[1]:
            raise ValueError("objects_per_scene range is ill-ordered")
        if not 0 < self.size_range[0] <= self.size_range[1] <= 1.0:
            raise ValueError("size_range must be within (0, 1] and ordered")
        flat = sorted(c for g in self.class_similarity_groups for c in g)
        if flat != list(range(1, self.num_classes + 1)):
            raise ValueError("class_similarity_groups must partition "
                             f"1..{self.num_classes}")

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
    ys, xs = np.mgrid[0:hh, 0:ww]
    # Normalized coordinates in [-1, 1] at pixel centers.
    ny = (ys + 0.5) / hh * 2.0 - 1.0
    nx = (xs + 0.5) / ww * 2.0 - 1.0
    if shape == "rect":
        return np.ones((hh, ww), dtype=bool)
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

    ys, xs = np.mgrid[0:h, 0:w]
    fx, fy = rng.uniform(0.5, 2.0, size=2)
    phase = rng.uniform(0, 2 * np.pi)
    image = 0.15 + 0.05 * np.sin(2 * np.pi * (fx * xs / w + fy * ys / h) + phase)

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
                f"{len(gts) + 1}/{n_objects} in {config.max_place_tries} tries")

    for gt in gts:
        x1, y1, x2, y2 = gt.box.corners()
        ix1, iy1 = int(round(x1)), int(round(y1))
        ix2, iy2 = max(int(round(x2)), ix1 + 1), max(int(round(y2)), iy1 + 1)
        shape, fill = _class_style(config, gt.class_label)
        mask = _shape_mask(shape, iy2 - iy1, ix2 - ix1)
        patch = image[iy1:iy2, ix1:ix2]
        patch[mask[:patch.shape[0], :patch.shape[1]]] = fill

    if config.noise_sigma > 0:
        image = image + rng.normal(0.0, config.noise_sigma, size=image.shape)
    return Scene(np.clip(image, 0.0, 1.0), gts, scene_id, seed)


def generate_dataset(config: SynthConfig, n_scenes: int,
                     start_id: int = 0) -> list[Scene]:
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    return [generate_scene(config, start_id + i) for i in range(n_scenes)]


def save_manifest(path, config: SynthConfig, scenes: list[Scene],
                  images_file: str | None = None):
    """Write a manifest sufficient to regenerate the dataset procedurally.

    If images_file is given, the raw images are additionally dumped next to
    the manifest as flat little-endian float64 (n_scenes, H, W)."""
    doc = {
        "format_version": MANIFEST_VERSION,
        "config": to_plain(config),
        "images_file": images_file,
        "scenes": [
            {
                "scene_id": s.scene_id,
                "seed": s.seed,
                "gts": [
                    {"cx": g.box.cx, "cy": g.box.cy, "w": g.box.w,
                     "h": g.box.h, "class_label": g.class_label}
                    for g in s.gts
                ],
            }
            for s in scenes
        ],
    }
    path = str(path)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    if images_file is not None:
        import os
        blob = np.stack([s.image for s in scenes]).astype("<f8")
        with open(os.path.join(os.path.dirname(path) or ".", images_file),
                  "wb") as f:
            f.write(blob.tobytes())


def load_manifest(path) -> tuple[SynthConfig, list[Scene]]:
    """Load a dataset: read images from the binary dump if present, otherwise
    regenerate them procedurally. Ground truth always comes from the manifest."""
    try:
        return _read_manifest(path)
    except KeyError as exc:
        raise ValueError(f"manifest {path}: missing key {exc}") from None


def _read_manifest(path) -> tuple[SynthConfig, list[Scene]]:
    import os
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:
            raise ValueError(f"manifest {path}: not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"manifest {path}: top level is not a JSON object")
    if doc.get("format_version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version in {path}")
    config = from_plain(SynthConfig, doc.get("config"),
                        f"manifest {path}.config")
    if not isinstance(doc["scenes"], list):
        raise ValueError(f"manifest {path}: scenes is not a list")
    w, h = config.image_size
    images = None
    if doc.get("images_file"):
        blob_path = os.path.join(os.path.dirname(str(path)) or ".",
                                 doc["images_file"])
        shape = (len(doc["scenes"]), h, w)
        size = os.path.getsize(blob_path)
        if size != 8 * shape[0] * h * w:
            raise ValueError(
                f"manifest {path}: image blob {blob_path} has {size} bytes, "
                f"expected {shape[0]} scenes x {h} x {w} float64 values")
        images = np.fromfile(blob_path, dtype="<f8").reshape(shape)
    scenes = []
    for i, rec in enumerate(doc["scenes"]):
        try:
            gts = [GroundTruth(Box(g["cx"], g["cy"], g["w"], g["h"]),
                               g["class_label"]) for g in rec["gts"]]
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"manifest {path}: scene {i} is malformed: {exc}") from None
        if images is not None:
            scene = Scene(images[i].copy(), gts, rec["scene_id"], rec["seed"])
        else:
            scene = generate_scene(config, rec["scene_id"])
            scene = Scene(scene.image, gts, rec["scene_id"], rec["seed"])
        scenes.append(scene)
    return config, scenes
