import collections
import hashlib
import json
import re

import numpy as np
import pytest

from griddet.boxes import Box, iou
from griddet.synth import (PlacementFailureError, Scene, SynthConfig,
                           generate_dataset, generate_scene,
                           load_ground_truth, load_manifest, save_manifest)


def test_same_config_and_seed_bit_identical():
    cfg = SynthConfig(seed=9)
    a = generate_dataset(cfg, 5)
    b = generate_dataset(cfg, 5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert sa.gts == sb.gts
        assert sa.seed == sb.seed


def test_different_seeds_differ():
    a = generate_scene(SynthConfig(seed=1), 0)
    b = generate_scene(SynthConfig(seed=2), 0)
    assert not np.array_equal(a.image, b.image)


def test_scene_id_changes_content():
    cfg = SynthConfig(seed=1)
    a = generate_scene(cfg, 0)
    b = generate_scene(cfg, 1)
    assert not np.array_equal(a.image, b.image)


def test_single_object_config_yields_exact_count():
    cfg = SynthConfig(seed=4, objects_per_scene=(1, 1))
    scenes = generate_dataset(cfg, 100)
    assert sum(len(s.gts) for s in scenes) == 100


# SHA-256 of generate_scene(config, scene_id).image.tobytes(), so that a
# rendering change that moves one bit fails here. The one-class groups render
# all four shapes: scene 1 a rect, a disk and a cross, scene 5 a ring.
ONE_CLASS_GROUPS = SynthConfig(
    seed=5, image_size=(96, 64), objects_per_scene=(3, 3),
    class_similarity_groups=((1,), (2,), (3,), (4,)))
PINNED_IMAGES = {
    (SynthConfig(seed=0), 0):
        "57c78aae923ea1cdced61922e24b9d2edaa2c8b0446fe691658ecb4148b17d20",
    (SynthConfig(seed=0), 7):
        "65ea88bcb1a698dc5f1e916addf96ff8723cc74552ae14146c273173ce4cb968",
    (SynthConfig(seed=3), 1):
        "c27ceb2e6cd8333bbe3abddc646b208e869d6f737805e5debf9dd41d55d974a6",
    (SynthConfig(seed=300), 2):
        "a81e90a62d234c2f1c1a6e586a60631a8b8dad4314c4bd86ecc8f9130b24ea26",
    (SynthConfig(seed=301), 5):
        "765276ea2cd34ce4bb9a0f440a47c55370675c9637e67f559a60eb0a2157d900",
    (SynthConfig(seed=3, image_size=(48, 40), noise_sigma=0.0), 2):
        "f15f26e0031ab99458b7285f6a601569b6b9ebed433d67a93f74f1facc553f1d",
    (ONE_CLASS_GROUPS, 1):
        "7ba63624d36558872bd3d8dc41a5fdbe0f70e7cbfbb5d30075bfd0f8a9f7d426",
    (ONE_CLASS_GROUPS, 5):
        "f052c2b7ab45f97299b6a11ed0310db524221f86932b6a0b9b01e904827c2f83",
}


@pytest.mark.parametrize("config, scene_id", PINNED_IMAGES,
                         ids=lambda v: f"seed{v.seed}-{v.image_size[0]}x"
                         f"{v.image_size[1]}" if isinstance(v, SynthConfig)
                         else str(v))
def test_rendered_image_bytes_are_pinned(config, scene_id):
    image = generate_scene(config, scene_id).image
    assert image.dtype == np.float64 and image.shape == config.image_size[::-1]
    assert hashlib.sha256(image.tobytes()).hexdigest() == \
        PINNED_IMAGES[config, scene_id]


def test_noiseless_max_intensity_inside_gt_box():
    cfg = SynthConfig(seed=6, objects_per_scene=(1, 1), noise_sigma=0.0)
    for scene in generate_dataset(cfg, 10):
        y, x = np.unravel_index(np.argmax(scene.image), scene.image.shape)
        x1, y1, x2, y2 = scene.gts[0].box.corners()
        assert x1 - 1 <= x + 0.5 <= x2 + 1
        assert y1 - 1 <= y + 0.5 <= y2 + 1


def test_gt_invariants_hold():
    cfg = SynthConfig(seed=13)
    w, h = cfg.image_size
    for scene in generate_dataset(cfg, 50):
        assert scene.image.shape == (h, w)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
        assert len(scene.gts) >= cfg.objects_per_scene[0]
        for i, g in enumerate(scene.gts):
            x1, y1, x2, y2 = g.box.corners()
            assert 0 <= x1 and x2 <= w and 0 <= y1 and y2 <= h
            assert 1 <= g.class_label <= cfg.num_classes
            for other in scene.gts[i + 1:]:
                assert iou(g.box, other.box) <= cfg.max_gt_overlap


def test_class_balance_near_uniform():
    cfg = SynthConfig(seed=21, objects_per_scene=(2, 3))
    counts = collections.Counter()
    total = 0
    scenes = generate_dataset(cfg, 250)
    for s in scenes:
        for g in s.gts:
            counts[g.class_label] += 1
            total += 1
    assert total >= 500
    uniform = total / cfg.num_classes
    for c in range(1, cfg.num_classes + 1):
        assert abs(counts[c] - uniform) <= 0.2 * uniform


def test_similar_classes_share_shape_but_differ_in_fill():
    # Classes in one similarity group render the same footprint at different
    # intensities: same box and shape must produce masks that differ only in
    # the filled value.
    cfg = SynthConfig(seed=0, noise_sigma=0.0)
    from griddet.synth import _class_style
    s1, f1 = _class_style(cfg, 1)
    s2, f2 = _class_style(cfg, 2)
    s3, f3 = _class_style(cfg, 3)
    assert s1 == s2 and f1 != f2
    assert s1 != s3


def test_invalid_similarity_groups_rejected():
    with pytest.raises(ValueError):
        SynthConfig(num_classes=4, class_similarity_groups=((1, 2), (3,)))
    with pytest.raises(ValueError):
        SynthConfig(num_classes=2, class_similarity_groups=((1, 1), (2,)))


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(objects_per_scene=(3, 1))
    with pytest.raises(ValueError):
        SynthConfig(size_range=(0.0, 0.5))
    with pytest.raises(ValueError):
        generate_dataset(SynthConfig(), 0)


def test_placement_failure_when_objects_cannot_fit():
    cfg = SynthConfig(seed=0, objects_per_scene=(3, 3),
                      size_range=(0.9, 0.95), max_gt_overlap=0.0,
                      max_place_tries=20)
    with pytest.raises(PlacementFailureError, match=(
            r"^scene 0: could not place object \d/3 in 20 tries, with "
            r"synth\.size_range \[0\.9, 0\.95\], synth\.max_gt_overlap 0\.0 "
            r"and synth\.max_place_tries 20$")):
        generate_scene(cfg, 0)


def test_manifest_round_trip_procedural(tmp_path):
    cfg = SynthConfig(seed=17)
    scenes = generate_dataset(cfg, 4)
    path = tmp_path / "manifest.json"
    save_manifest(path, cfg, scenes)
    loaded_cfg, loaded = load_manifest(path)
    assert loaded_cfg == cfg
    for a, b in zip(scenes, loaded):
        assert np.array_equal(a.image, b.image)
        assert a.gts == b.gts
        assert a.scene_id == b.scene_id


def test_reading_ground_truth_builds_one_box_per_record(tmp_path,
                                                       monkeypatch):
    cfg = SynthConfig(seed=17, objects_per_scene=(2, 3))
    scenes = generate_dataset(cfg, 4)
    path = tmp_path / "manifest.json"
    save_manifest(path, cfg, scenes)
    built = []

    def count(self, init=Box.__post_init__):
        built.append(self)
        init(self)
    monkeypatch.setattr(Box, "__post_init__", count)
    gts = load_ground_truth(path)
    assert gts == {s.scene_id: s.gts for s in scenes}
    # The record's checked Box is the one returned.
    assert [id(g.box) for s in scenes for g in gts[s.scene_id]] == \
        list(map(id, built))


@pytest.mark.parametrize("images_file", ["images.f64", ""],
                         ids=["a_file", "empty"])
def test_manifest_rejects_an_image_dump(tmp_path, images_file):
    cfg = SynthConfig(seed=17)
    path = tmp_path / "manifest.json"
    save_manifest(path, cfg, generate_dataset(cfg, 3))
    doc = json.loads(path.read_text())
    assert doc["images_file"] is None
    (tmp_path / "images.f64").write_bytes(bytes(8 * 3 * 128 * 128))
    path.write_text(json.dumps({**doc, "images_file": images_file}))
    for read in (load_manifest, load_ground_truth):
        with pytest.raises(ValueError, match=re.escape(
                f"manifest {path}: images_file must be null, since images "
                f"regenerate from the config, got {images_file!r}")):
            read(path)


def test_manifest_rejects_unknown_version(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"format_version": 99, "config": {}, "scenes": []}\n')
    with pytest.raises(ValueError):
        load_manifest(path)


def test_manifest_rejects_unknown_config_key(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"format_version": 1, "config": {"seeed": 3}, '
                    '"scenes": []}\n')
    with pytest.raises(ValueError, match=r"manifest .*\.config: .*seeed"):
        load_manifest(path)
