import dataclasses
import json
import functools
import math
import operator
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import griddet
from griddet import pipeline, synth
from griddet.boxes import Box
from griddet.cli import main
from griddet.config import (ExperimentConfig, load_config, save_config)
from griddet.evaluate import (DetRecord, evaluate_detections, format_report,
                              fp_breakdown, read_detection_dump,
                              write_detection_dump)
from griddet.features import FEATURE_DIM
from griddet.grid import GridSpec, generate_grid
from griddet.model import (CHECKPOINT_MAGIC, TrainConfig, load_checkpoint,
                           make_classifier, make_regressor, save_checkpoint)
from griddet.pipeline import (ablation_means, cmd_ablation, cmd_detect,
                              cmd_eval, cmd_generate, cmd_train,
                              format_ablation_table, run_ablation)
from griddet.records import to_plain
from griddet.synth import MANIFEST_VERSION, SynthConfig, load_manifest


# An integer too large for a float: 400 digits.
BIG = 10 ** 399
# A list depth that JSON parses and a record's checks cannot recurse through.
DEEP = sys.getrecursionlimit() * 2 // 3


def tiny_config(**overrides) -> ExperimentConfig:
    """A configuration small enough for full pipeline runs inside tests."""
    base = dict(
        synth=SynthConfig(seed=3, image_size=(48, 48)),
        grid_train=GridSpec((2, 4), (0.8, 0.6)),
        grid_test=GridSpec((2, 4), (0.6, 0.4)),
        train=TrainConfig(seed=3, n_iter_per_stage=5),
        n_train=3, n_test=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def test_config_yaml_round_trip(tmp_path):
    cfg = tiny_config(s_test=4, mode="1step", nms_iou=0.4)
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("bogus_key: 1\n")
    with pytest.raises(ValueError):
        load_config(path)


# (YAML text, section, key): each must fail as a ValueError naming both.
MALFORMED_CONFIGS = {
    "train_typo": ("train:\n  n_iter_per_stag: 5\n", "train",
                   "n_iter_per_stag"),
    "synth_unknown_key": ("synth:\n  bogus: 1\n", "synth", "bogus"),
    "grid_test_no_overlaps": ("grid_test:\n  scales: [2, 4]\n", "grid_test",
                              "overlaps"),
    "train_not_mapping": ("train: 5\n", "train", "train"),
    "train_fg_bg_ratio_negative": ("train:\n  fg_bg_ratio: -1\n", "train",
                                   "fg_bg_ratio must be > 0, got -1"),
    "train_bg_threshold_one": ("train:\n  bg_threshold: 1.0\n", "train",
                               "bg_threshold must be in [0, 1), got 1.0"),
    "train_seed_a_float": ("train:\n  seed: 1.5\n", "train",
                           "seed must be a non-negative integer, got 1.5"),
    "train_seed_a_bool": ("train:\n  seed: true\n", "train",
                          "seed must be a non-negative integer, got True"),
    "synth_seed_negative": ("synth:\n  seed: -1\n", "synth",
                            "seed must be a non-negative integer, got -1"),
    # TrainConfig checks the values its training buffers are sized from.
    "train_samples_per_image_a_float": (
        "train:\n  samples_per_image_per_step: 1.5\n", "train",
        "samples_per_image_per_step must be a positive integer, got 1.5"),
    "train_images_per_batch_a_float": (
        "train:\n  images_per_batch: 2.5\n", "train",
        "images_per_batch must be a positive integer, got 2.5"),
    "train_n_iter_per_stage_a_float": (
        "train:\n  n_iter_per_stage: 1.5\n", "train",
        "n_iter_per_stage must be a positive integer, got 1.5"),
    "train_hidden_sizes_zero": (
        "train:\n  hidden_sizes: [0]\n", "train",
        "hidden_sizes must be a tuple of positive integers, got (0,)"),
    "train_hidden_sizes_a_string": (
        "train:\n  hidden_sizes: ab\n", "train",
        "hidden_sizes must be a tuple of positive integers, got 'ab'"),
    "train_hidden_sizes_negative": (
        "train:\n  hidden_sizes: [-3]\n", "train",
        "hidden_sizes must be a tuple of positive integers, got (-3,)"),
    "train_max_bg_per_scene_negative": (
        "train:\n  max_bg_per_scene: -1\n", "train",
        "max_bg_per_scene must be a non-negative integer, got -1"),
    # A rate or threshold that is not a number is named, not compared.
    "train_learning_rate_a_string": ("train:\n  learning_rate: x\n", "train",
                                     "learning_rate must be > 0, got 'x'"),
    "train_momentum_a_string": ("train:\n  momentum: x\n", "train",
                                "momentum must be in [0, 1), got 'x'"),
    "train_fg_bg_ratio_a_string": ("train:\n  fg_bg_ratio: x\n", "train",
                                   "fg_bg_ratio must be > 0, got 'x'"),
    "train_bg_threshold_a_string": ("train:\n  bg_threshold: x\n", "train",
                                    "bg_threshold must be in [0, 1), got 'x'"),
    # SynthConfig checks every field before scenes are generated.
    "synth_num_classes_a_float": (
        "synth:\n  num_classes: 1.5\n", "synth",
        "num_classes must be a positive integer, got 1.5"),
    "synth_image_size_a_string": (
        "synth:\n  image_size: ab\n", "synth",
        "image_size must be two positive integers, got 'ab'"),
    "synth_image_size_zero": (
        "synth:\n  image_size: [0, 0]\n", "synth",
        "image_size must be two positive integers, got (0, 0)"),
    "synth_objects_per_scene_empty": (
        "synth:\n  objects_per_scene: []\n", "synth",
        "objects_per_scene must be two non-negative integers in order, "
        "got ()"),
    "synth_objects_per_scene_a_float": (
        "synth:\n  objects_per_scene: [1.5, 2]\n", "synth",
        "objects_per_scene must be two non-negative integers in order, "
        "got (1.5, 2)"),
    "synth_size_range_a_string": (
        "synth:\n  size_range: x\n", "synth",
        "size_range must be two numbers within (0, 1], in order, got 'x'"),
    "synth_noise_sigma_a_string": (
        "synth:\n  noise_sigma: x\n", "synth",
        "noise_sigma must be a number >= 0, got 'x'"),
    "synth_max_gt_overlap_a_string": (
        "synth:\n  max_gt_overlap: x\n", "synth",
        "max_gt_overlap must be a number in [0, 1], got 'x'"),
    "synth_max_place_tries_zero": (
        "synth:\n  max_place_tries: 0\n", "synth",
        "max_place_tries must be a positive integer, got 0"),
    # Detection settings, at the top level ("" names no section).
    "score_threshold_null": (
        "score_threshold: null\n", "",
        "score_threshold must be a number in [0, 1], got None"),
    "s_test_a_float": ("s_test: 1.5\n", "",
                       "s_test must be a non-negative integer, got 1.5"),
    "nms_iou_a_string": ("nms_iou: x\n", "",
                         "nms_iou must be a number in [0, 1], got 'x'"),
    "iou_match_above_one": ("iou_match: 1.5\n", "",
                            "iou_match must be a number in [0, 1], got 1.5"),
    # Every field is checked against its type hint, with or without a range.
    "n_train_a_string": ("n_train: x\n", "",
                         "n_train must be a positive integer, got 'x'"),
    "n_test_zero": ("n_test: 0\n", "",
                    "n_test must be a positive integer, got 0"),
    "output_dir_an_int": ("output_dir: 5\n", "",
                          "output_dir must be a string, got 5"),
    "synth_class_similarity_groups_an_int": (
        "synth:\n  class_similarity_groups: 5\n", "synth",
        "class_similarity_groups must be a partition of 1..4, got 5"),
    "synth_class_similarity_groups_a_string_class": (
        "synth:\n  class_similarity_groups: [[1, x], [3, 4]]\n", "synth",
        "class_similarity_groups must be a partition of 1..4, "
        "got ((1, 'x'), (3, 4))"),
    "synth_class_similarity_groups_a_float_class": (
        "synth:\n  class_similarity_groups: [[1.0, 2], [3, 4]]\n", "synth",
        "class_similarity_groups must be a partition of 1..4, "
        "got ((1.0, 2), (3, 4))"),
    "grid_test_scales_a_string": (
        "grid_test:\n  scales: [x, 5]\n  overlaps: [0.5, 0.0]\n",
        "grid_test", "scales must be a non-empty tuple of positive integers, "
        "got ('x', 5)"),
    "grid_test_scales_a_bool": (
        "grid_test:\n  scales: [true, 5, 10]\n  overlaps: [0.7, 0.5, 0.0]\n",
        "grid_test", "scales must be a non-empty tuple of positive integers, "
        "got (True, 5, 10)"),
    "synth_noise_sigma_too_large_for_a_float": (
        f"synth:\n  noise_sigma: {BIG}\n", "synth",
        f"noise_sigma must be a number >= 0, got {BIG}"),
    "grid_test_overlaps_a_string": (
        "grid_test:\n  scales: [2, 5, 10]\n  overlaps: [x, 0.5, 0.0]\n",
        "grid_test", "overlaps must be one number in [0, 1) per scale, "
        "got ('x', 0.5, 0.0)"),
}


def _section_prefix(path, section) -> str:
    """How an error names a config section: the file, then ".section", or
    ":" for a top-level field."""
    return f"config file {path}" + (f".{section}" if section else ":")


@pytest.mark.parametrize("text, section, key", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
def test_config_errors_name_section_and_key(tmp_path, text, section, key):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_config(path)
    message = str(info.value)
    assert _section_prefix(path, section) in message
    assert key in message


@pytest.mark.parametrize("text, section, key", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
def test_cli_generate_reports_malformed_config(tmp_path, capsys, text,
                                               section, key):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert _section_prefix(path, section) in lines[0] and key in lines[0]
    assert not (tmp_path / "d").exists()


def _checkpoint_text(regressor_sizes, classifier_sizes, num_classes=4,
                     extractor=None) -> str:
    """A checkpoint of zero-valued models, as text (the zeros are NULs)."""
    shapes = []
    for sizes in (regressor_sizes, classifier_sizes):
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            shapes += [[fan_in, fan_out], [fan_out]]
    header = {"config": {}, "mode": "gcnn", "num_classes": num_classes,
              "extractor": extractor or {
                  "extra_filters": [], "include_box_coords": True,
                  "include_gradients": True, "pool_h": 6, "pool_w": 6},
              "stage": 3, "regressor_sizes": regressor_sizes,
              "classifier_sizes": classifier_sizes, "arrays": shapes}
    return (CHECKPOINT_MAGIC.decode() + json.dumps(header) + "\n"
            + "\0" * 8 * sum(math.prod(s) for s in shapes))


DETECT_ARGV = ["detect", "--checkpoint", "{f}", "--dataset", "{d}/none.json",
               "--out", "{d}/out"]
# detect with {f} as its config: the config is read before any other file.
DETECT_CONFIG_ARGV = ["detect", "--config", "{f}", "--checkpoint",
                      "{d}/none.ckpt", "--dataset", "{d}/none.json", "--out",
                      "{d}/out"]

# (file name, contents, CLI arguments with {f} for the file and {d} for its
# directory, word the error must contain): one malformed file per reader.
MALFORMED_FILES = {
    "config_yaml_syntax": (
        "c.yaml", "train: [\n",
        ["generate", "--config", "{f}", "--out", "{d}/out"], "YAML"),
    "config_not_utf8": (
        "c.yaml", b'mode: "\xff\xfe"\n',
        ["generate", "--config", "{f}", "--out", "{d}/out"], "invalid YAML"),
    # Deeper than PyYAML's composer can recurse.
    "config_nested_too_deeply": (
        "c.yaml", "train:\n  hidden_sizes: " + "[" * 600 + "]" * 600 + "\n",
        ["generate", "--config", "{f}", "--out", "{d}/out"],
        " is nested too deeply"),
    "config_score_threshold_null_at_detect": (
        "c.yaml", "score_threshold: null\n", DETECT_CONFIG_ARGV,
        "score_threshold must be a number in [0, 1], got None"),
    "config_s_test_a_float_at_detect": (
        "c.yaml", "s_test: 1.5\n", DETECT_CONFIG_ARGV,
        "s_test must be a non-negative integer, got 1.5"),
    "config_nms_iou_a_string_at_detect": (
        "c.yaml", "nms_iou: x\n", DETECT_CONFIG_ARGV,
        "nms_iou must be a number in [0, 1], got 'x'"),
    "config_iou_match_above_one_at_detect": (
        "c.yaml", "iou_match: 1.5\n", DETECT_CONFIG_ARGV,
        "iou_match must be a number in [0, 1], got 1.5"),
    "config_samples_per_image_a_float_at_train": (
        "c.yaml", "train:\n  samples_per_image_per_step: 1.5\n",
        ["train", "--config", "{f}", "--dataset", "{d}/none.json", "--out",
         "{d}/m.ckpt"],
        "samples_per_image_per_step must be a positive integer, got 1.5"),
    "config_learning_rate_too_large_for_a_float_at_train": (
        "c.yaml", f"train:\n  learning_rate: {BIG}\n",
        ["train", "--config", "{f}", "--dataset", "{d}/none.json", "--out",
         "{d}/m.ckpt"],
        f".train: learning_rate must be > 0, got {BIG}"),
    "checkpoint_without_arrays": (
        "m.ckpt", CHECKPOINT_MAGIC.decode() + json.dumps(
            {"regressor_sizes": [112, 16], "classifier_sizes": [112, 5]})
        + "\n", DETECT_ARGV,
        " header: missing keys ['config', 'mode', 'num_classes', 'extractor', "
        "'stage', 'arrays']"),
    "checkpoint_classifier_of_too_many_classes": (
        "m.ckpt", _checkpoint_text([112, 16], [112, 6]), DETECT_ARGV,
        "classifier maps 112 inputs to 6 outputs, expected 112 to 5"),
    "checkpoint_input_size_not_the_feature_size": (
        "m.ckpt", _checkpoint_text([50, 16], [50, 5]), DETECT_ARGV,
        "regressor maps 50 inputs to 16 outputs, expected 112 to 16"),
    "checkpoint_foreign_extractor_record": (
        "m.ckpt", _checkpoint_text([112, 16], [112, 5], extractor={
            "extra_filters": [[[1.0]]], "include_box_coords": True,
            "include_gradients": True, "pool_h": 6, "pool_w": 6}),
        DETECT_ARGV,
        " header: extractor must be the feature layout {'extra_filters': [], "
        "'include_box_coords': True, 'include_gradients': True, 'pool_h': 6, "
        "'pool_w': 6}, got {'extra_filters': [[[1.0]]], "
        "'include_box_coords': True, 'include_gradients': True, 'pool_h': 6, "
        "'pool_w': 6}"),
    "manifest_images_file_not_a_string": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "images_file": 5, "scenes": []}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "images_file must be null, since images regenerate from the config, "
        "got 5"),
    "manifest_without_scenes": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {}}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "scenes"),
    "manifest_not_json": (
        "m.json", "not json",
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "not JSON"),
    "manifest_not_an_object": (
        "m.json", "[1, 2]",
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        " must be a mapping, got list"),
    "manifest_scenes_not_a_list": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": 5}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes must be a list, got int"),
    "manifest_gt_not_an_object": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0,
                                          "gts": [1]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[0].gts[0] must be a mapping, got int"),
    "manifest_gt_of_zero_width": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0, "gts": [
                                  {"cx": 4, "cy": 4, "w": 0, "h": 1,
                                   "class_label": 1}]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "box sides must be positive"),
    "manifest_scene_id_not_a_number": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": "x", "seed": 0,
                                          "gts": []}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[0]: scene_id must be a non-negative integer, got 'x'"),
    "manifest_scene_id_a_float": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 1.5, "seed": 0,
                                          "gts": []}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[0]: scene_id must be a non-negative integer, got 1.5"),
    "manifest_scene_id_negative": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": -1, "seed": 0,
                                          "gts": []}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[0]: scene_id must be a non-negative integer, got -1"),
    "manifest_seed_a_bool": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": True,
                                          "gts": []}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[0]: seed must be a non-negative integer, got True"),
    "manifest_config_nested_too_deeply": (
        "m.json", '{"format_version": 1, "scenes": [], "config": '
                  '{"image_size": ' + "[" * DEEP + "]" * DEEP + "}}",
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        " is nested too deeply"),
    "manifest_without_training_scenes": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": []}),
        ["train", "--dataset", "{f}", "--out", "{d}/m.ckpt"],
        "no scenes to train on"),
    "manifest_class_above_num_classes": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 7, "seed": 0, "gts": [
                                  {"cx": 8, "cy": 8, "w": 6, "h": 6,
                                   "class_label": 9}]}]}),
        ["train", "--dataset", "{f}", "--out", "{d}/m.ckpt"],
        "scene_id 7 has class 9, outside 1..num_classes 4"),
    "manifest_class_above_num_classes_at_eval": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 7, "seed": 0, "gts": [
                                  {"cx": 8, "cy": 8, "w": 6, "h": 6,
                                   "class_label": 9}]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "scene_id 7 has class 9, outside 1..num_classes 4"),
    "manifest_gt_coordinate_a_boolean": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0, "gts": [
                                  {"cx": True, "cy": 8, "w": 6, "h": 6,
                                   "class_label": 1}]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[0].gts[0]: cx must be a number, got True"),
    "manifest_gt_coordinate_too_large_for_a_float": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0, "gts": [
                                  {"cx": BIG, "cy": 8, "w": 6, "h": 6,
                                   "class_label": 1}]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        f".scenes[0].gts[0]: cx must be a number, got {BIG}"),
    "manifest_gt_class_a_float": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0, "gts": [
                                  {"cx": 8, "cy": 8, "w": 6, "h": 6,
                                   "class_label": 1.5}]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[0].gts[0]: class_label must be an integer, got 1.5"),
    "manifest_scene_id_repeated": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0, "gts": []},
                                         {"scene_id": 0, "seed": 0, "gts": []}
                                         ]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        ".scenes[1]: scene_id must be unique, got 0"),
    "dump_record_without_class": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": 0, "score": 0.5, "box": [4, 4, 2, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "class"),
    "dump_box_of_three_numbers": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": 0, "class": 1, "score": 0.5, "box": [4, 4, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 2: box must be 4 numbers"),
    "dump_box_value_a_boolean": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": 0, "class": 1, "score": 0.5, '
                   '"box": [true, 4, 2, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 2: box must be 4 numbers"),
    "dump_box_value_too_large_for_a_float": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": 0, "class": 1, "score": 0.5, '
                   f'"box": [4, {BIG}, 2, 2]}}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        f" line 2: box must be 4 numbers (cx, cy, w, h), got (4, {BIG}, 2, 2)"),
    "dump_box_of_zero_width": (
        "d.jsonl", '{"format_version": 1}\n\n'
                   '{"image_id": 0, "class": 1, "score": 0.5, "box": [4, 4, 0, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 3: box sides must be positive"),
    "dump_ids_booleans": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": true, "class": true, "score": 0.5, '
                   '"box": [4, 4, 2, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        " line 2: image_id must be an integer, got True"),
    "dump_score_a_boolean": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": 1, "class": 1, "score": false, '
                   '"box": [4, 4, 2, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 2: score must be a finite number"),
    "dump_score_too_large_for_a_float": (
        "d.jsonl", '{"format_version": 1}\n'
                   f'{{"image_id": 1, "class": 1, "score": {BIG}, '
                   '"box": [4, 4, 2, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        f" line 2: score must be a finite number, got {BIG}"),
    "dump_score_not_a_number": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": 0, "class": 1, "score": "x", "box": [4, 4, 2, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 2: score must be a finite number"),
    "dump_line_not_json": (
        "d.jsonl", '{"format_version": 1}\n{"image_id": 0, "class": 1,\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        " line 2 is not JSON: Expecting property name enclosed in double "
        "quotes"),
}


@pytest.mark.parametrize("name, text, argv, word", MALFORMED_FILES.values(),
                         ids=MALFORMED_FILES.keys())
def test_cli_reports_malformed_file(tmp_path, capsys, name, text, argv, word):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    write_detection_dump(tmp_path / "empty.jsonl", [])
    rc = main([a.format(f=path, d=tmp_path) for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0] and word in lines[0]


def _corrupt_checkpoint(path, edit):
    """Write a small checkpoint to path, then rewrite its header and blob
    with edit(header dict, blob) -> (header bytes, blob)."""
    rng = np.random.default_rng(0)
    save_checkpoint(path, make_regressor(3, (2,), 1, rng),
                    make_classifier(3, (2,), 1, rng), config=TrainConfig(),
                    mode="gcnn", num_classes=1, stage=3)
    _, header, blob = path.read_bytes().split(b"\n", 2)
    header, blob = edit(json.loads(header), blob)
    path.write_bytes(CHECKPOINT_MAGIC + header + b"\n" + blob)


def _dropping_last_array(header, blob):
    *header["arrays"], last = header["arrays"]
    return json.dumps(header).encode(), blob[:-8 * math.prod(last)]


def _transposing_first_array(header, blob):
    header["arrays"][0].reverse()
    return json.dumps(header).encode(), blob


def _with(**changes):
    """An edit that sets header keys and keeps the blob."""
    return lambda h, b: (json.dumps({**h, **changes}).encode(), b)


# (edit as in _corrupt_checkpoint, words the error must contain). The
# regressor is 3 -> 2 -> 4 and the classifier 3 -> 2 -> 2: 8 arrays of 34
# parameters, 272 bytes.
ARRAYS_MUST_BE = (" header: arrays must be the parameter shapes ((3, 2), (2,), (2, 4), (4,), (3, 2), (2,), (2, 2), (2,)) of "
                  "regressor_sizes and classifier_sizes, ")
MALFORMED_CHECKPOINTS = {
    "trailing_bytes": (lambda h, b: (json.dumps(h).encode(), b + bytes(8)),
                       "parameter blob has 280 bytes, expected 272 for 34"),
    "truncated": (lambda h, b: (json.dumps(h).encode(), b[:-8]),
                  "parameter blob has 264 bytes, expected 272 for 34"),
    "header_not_json": (lambda h, b: (b"{oops", b), "header is not JSON"),
    "header_not_an_object": (lambda h, b: (b"[]", b),
                             " header must be a mapping, got list"),
    "shape_not_sizes": (_with(arrays=[[-1]]),
                        ARRAYS_MUST_BE + "got ((-1,),)"),
    "too_few_arrays": (_dropping_last_array, ARRAYS_MUST_BE
                       + "got ((3, 2), (2,), (2, 4), (4,), (3, 2), (2,), "
                       "(2, 2))"),
    "wrong_shape": (_transposing_first_array, ARRAYS_MUST_BE
                    + "got ((2, 3), (2,), (2, 4), (4,), (3, 2), (2,), "
                    "(2, 2), (2,))"),
    "sizes_too_large_for_arrays": (
        _with(regressor_sizes=[112, 10 ** 12]),
        " header: arrays must be the parameter shapes ((112, 1000000000000), "
        "(1000000000000,), (3, 2), (2,), (2, 2), (2,)) of regressor_sizes and "
        "classifier_sizes, got ((3, 2), (2,), (2, 4), (4,), (3, 2), (2,), (2, 2), (2,))"),
    "sizes_and_arrays_too_large_for_blob": (
        _with(regressor_sizes=[112, 10 ** 12],
              arrays=[[112, 10 ** 12], [10 ** 12], [3, 2], [2], [2, 2], [2]]),
        "parameter blob has 272 bytes, expected 904000000000112"),
    "sizes_of_one_layer": (
        _with(regressor_sizes=[112]),
        " header: regressor_sizes must be a list of at least two positive "
        "integers, got (112,)"),
    "sizes_with_a_zero": (
        _with(classifier_sizes=[112, 0]),
        " header: classifier_sizes must be a list of at least two positive "
        "integers, got (112, 0)"),
    "sizes_with_a_string": (
        _with(regressor_sizes=[112, "x"]),
        " header: regressor_sizes must be a list of at least two positive "
        "integers, got (112, 'x')"),
}


@pytest.mark.parametrize("edit, words", MALFORMED_CHECKPOINTS.values(),
                         ids=MALFORMED_CHECKPOINTS.keys())
def test_cli_detect_reports_malformed_checkpoint(tmp_path, capsys, edit,
                                                 words):
    path = tmp_path / "m.ckpt"
    _corrupt_checkpoint(path, edit)
    rc = main(["detect", "--checkpoint", str(path), "--dataset",
               str(tmp_path / "none.json"), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"checkpoint {path}" in lines[0] and words in lines[0]


# Any JSON value, to put in place of one header value.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_checkpoint_returns_or_names_the_file(tmp_path, data):
    path = tmp_path / "m.ckpt"
    rng = np.random.default_rng(0)
    save_checkpoint(path, make_regressor(FEATURE_DIM, (2,), 1, rng),
                    make_classifier(FEATURE_DIM, (2,), 1, rng),
                    config=TrainConfig(), mode="gcnn", num_classes=1, stage=3)
    raw = path.read_bytes()
    magic, header, blob = raw.split(b"\n", 2)
    kind = data.draw(st.sampled_from(["truncate", "flip", "swap"]))
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "flip":
        # In the magic, the header or the first parameters: a flip further
        # into the blob only changes one parameter's value.
        at = data.draw(st.integers(0, len(magic) + len(header) + 16))
        flipped = raw[at] ^ data.draw(st.integers(1, 255))
        raw = raw[:at] + bytes([flipped]) + raw[at + 1:]
    else:
        doc = json.loads(header)
        section = data.draw(st.sampled_from(["", "config"]))
        values = doc[section] if section else doc
        values[data.draw(st.sampled_from(sorted(values)))] = data.draw(
            JSON_VALUES)
        raw = magic + b"\n" + json.dumps(doc).encode() + b"\n" + blob
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)


def _leaves(plain, path=()):
    """The path of every value in a plain config that is not a mapping:
    scalars, lists and list items."""
    if isinstance(plain, dict):
        for key, value in plain.items():
            yield from _leaves(value, path + (key,))
        return
    yield path
    if isinstance(plain, list):
        for i, value in enumerate(plain):
            yield from _leaves(value, path + (i,))


def _cut_or_flip(data, raw: bytes, kind: str) -> bytes:
    """raw cut short ("truncate") or with one byte changed ("flip")."""
    at = data.draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) \
        + raw[at + 1:]


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_generate_runs_or_names_the_config_file(tmp_path, capsys,
                                                    monkeypatch, data):
    # No scene is rendered, whatever the config asks for.
    monkeypatch.setattr(pipeline, "generate_dataset", lambda *a, **k: [])
    plain = to_plain(tiny_config())
    kind = data.draw(st.sampled_from(["truncate", "flip", "swap"]))
    if kind == "swap":
        *parents, last = data.draw(st.sampled_from(list(_leaves(plain))))
        functools.reduce(operator.getitem, parents, plain)[last] = data.draw(
            JSON_VALUES)
    raw = yaml.safe_dump(plain).encode()
    if kind != "swap":
        # A flip to a byte in 0x80-0xff leaves the file not UTF-8.
        raw = _cut_or_flip(data, raw, kind)
    path = tmp_path / "c.yaml"
    path.write_bytes(raw)
    rc = main(["generate", "--config", str(path), "--out",
               str(tmp_path / "d")])
    lines = capsys.readouterr().err.splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc == 1 and len(lines) == 1, lines
        assert lines[0].startswith("error:")
        assert f"config file {path}" in lines[0]


def _json_lines(raw: bytes) -> list:
    """The JSON documents of a manifest (one) or a dump (one per line)."""
    return [json.loads(line) for line in raw.splitlines()] \
        if raw.startswith(b'{"format_version"') else [json.loads(raw)]


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_eval_runs_or_names_the_manifest_or_dump(tmp_path, capsys, data):
    config = tiny_config().synth
    scenes = synth.generate_dataset(config, 2)
    manifest, dump = tmp_path / "m.json", tmp_path / "d.jsonl"
    synth.save_manifest(manifest, config, scenes)
    write_detection_dump(dump, [
        DetRecord(s.scene_id, g.class_label, 0.5 + 0.1 * i, g.box)
        for s in scenes for i, g in enumerate(s.gts)]
        + [DetRecord(0, 1, 0.25, Box(8, 8, 4, 4))])
    path = data.draw(st.sampled_from([manifest, dump]))
    raw = path.read_bytes()
    kind = data.draw(st.sampled_from(["truncate", "flip", "swap"]))
    if kind != "swap":
        raw = _cut_or_flip(data, raw, kind)
    else:
        docs = _json_lines(raw)
        # Any value but the list of documents itself, a whole document
        # included.
        *parents, last = data.draw(st.sampled_from(list(_leaves(docs))[1:]))
        functools.reduce(operator.getitem, parents, docs)[last] = data.draw(
            JSON_VALUES)
        raw = "".join(json.dumps(doc) + "\n" for doc in docs).encode()
    path.write_bytes(raw)
    rc = main(["eval", "--detections", str(dump), "--dataset", str(manifest)])
    lines = capsys.readouterr().err.splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc == 1 and len(lines) == 1, lines
        assert lines[0].startswith("error:") and str(path) in lines[0]


def test_cli_reports_an_allocation_too_large_in_one_line(tmp_path):
    # Run with a 2 GB address space in a child process: without the limit, a
    # request for hundreds of GiB can succeed under overcommit.
    path = tmp_path / "c.yaml"
    path.write_text("synth:\n  image_size: [100000, 100000]\n")
    limit = 2_000_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "griddet.cli", "generate", "--config",
         str(path), "--n-train", "1", "--n-test", "1", "--out",
         str(tmp_path / "d")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(griddet.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: out of memory: ")
    assert "allocate" in lines[0]


@pytest.mark.parametrize("label", [0, -3, 9])
def test_cli_eval_rejects_detection_class_out_of_range(tmp_path, capsys,
                                                       label):
    _, test_path = cmd_generate(tiny_config(), 3, 2, str(tmp_path))
    dump = tmp_path / "d.jsonl"
    write_detection_dump(dump, [DetRecord(3, 1, 0.5, Box(8, 8, 4, 4)),
                                DetRecord(4, label, 0.9, Box(8, 8, 4, 4))])
    rc = main(["eval", "--detections", str(dump), "--dataset", test_path])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"detection dump {dump}" in lines[0]
    assert f"image_id 4 has class {label}, outside 1..num_classes 4" \
        in lines[0]


def test_cli_detect_rejects_checkpoint_of_other_class_count(tmp_path,
                                                           capsys):
    rng = np.random.default_rng(0)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, make_regressor(FEATURE_DIM, (2,), 4, rng),
                    make_classifier(FEATURE_DIM, (2,), 4, rng),
                    config=TrainConfig(), mode="gcnn", num_classes=4, stage=3)
    cfg_path = tmp_path / "c.yaml"
    save_config(tiny_config(synth=SynthConfig(
        seed=3, image_size=(48, 48), num_classes=2,
        class_similarity_groups=((1,), (2,)))), cfg_path)
    # The dataset does not exist: the check comes before any scene loads.
    rc = main(["detect", "--config", str(cfg_path), "--checkpoint", str(ckpt),
               "--dataset", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert (f"checkpoint {ckpt}: trained for num_classes 4, but the config "
            f"has num_classes 2") in lines[0]
    assert not (tmp_path / "out").exists()


def test_cli_eval_rejects_an_image_dump(tmp_path, capsys):
    _, test_path = cmd_generate(tiny_config(), 3, 2, str(tmp_path))
    doc = json.loads(read_bytes(test_path))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**doc, "images_file": "images.f64"}))
    (tmp_path / "images.f64").write_bytes(bytes(8 * 2 * 48 * 48))
    write_detection_dump(tmp_path / "empty.jsonl", [])
    rc = main(["eval", "--detections", str(tmp_path / "empty.jsonl"),
               "--dataset", str(path)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"manifest {path}: images_file must be null" in lines[0]
    assert "got 'images.f64'" in lines[0]


def test_generate_idempotent_byte_equal(tmp_path):
    cfg = tiny_config()
    a, b = cmd_generate(cfg, 3, 2, str(tmp_path / "run1"))
    a2, b2 = cmd_generate(cfg, 3, 2, str(tmp_path / "run2"))
    assert read_bytes(a) == read_bytes(a2)
    assert read_bytes(b) == read_bytes(b2)


def test_generate_rejects_empty_split(tmp_path):
    with pytest.raises(ValueError):
        cmd_generate(tiny_config(), 0, 2, str(tmp_path))


def test_generate_manifest_regenerates_scenes(tmp_path):
    cfg = tiny_config()
    train_path, _ = cmd_generate(cfg, 3, 2, str(tmp_path))
    _, scenes = load_manifest(train_path)
    assert len(scenes) == 3
    assert [s.scene_id for s in scenes] == [0, 1, 2]


def test_train_stage_boundaries_and_equal_compute(tmp_path):
    cfg = tiny_config()
    train_path, _ = cmd_generate(cfg, 3, 2, str(tmp_path))
    _, _, log_gcnn = cmd_train(dataclasses.replace(cfg, mode="gcnn"),
                               train_path, str(tmp_path / "g.ckpt"))
    assert len(log_gcnn.stage_boundaries) == cfg.train.s_train
    _, _, log_1step = cmd_train(dataclasses.replace(cfg, mode="1step"),
                                train_path, str(tmp_path / "o.ckpt"))
    assert len(log_1step.stage_boundaries) == 1
    expected = cfg.train.s_train * cfg.train.n_iter_per_stage
    assert log_gcnn.total_iterations == expected
    assert log_1step.total_iterations == expected


def test_train_checkpoints_byte_identical(tmp_path):
    cfg = tiny_config()
    train_path, _ = cmd_generate(cfg, 3, 2, str(tmp_path))
    cmd_train(cfg, train_path, str(tmp_path / "a.ckpt"))
    cmd_train(cfg, train_path, str(tmp_path / "b.ckpt"))
    assert read_bytes(tmp_path / "a.ckpt") == read_bytes(tmp_path / "b.ckpt")


def test_train_writes_loss_log(tmp_path):
    cfg = tiny_config()
    train_path, _ = cmd_generate(cfg, 3, 2, str(tmp_path))
    log_path = tmp_path / "loss.json"
    cmd_train(cfg, train_path, str(tmp_path / "m.ckpt"), log_path=str(log_path))
    doc = json.loads(log_path.read_text())
    assert len(doc["entries"]) == cfg.train.s_train * cfg.train.n_iter_per_stage
    assert doc["stage_boundaries"][0] == 0


def test_detect_outputs_and_determinism(tmp_path):
    cfg = tiny_config(s_test=2)
    train_path, test_path = cmd_generate(cfg, 3, 2, str(tmp_path))
    ckpt = str(tmp_path / "m.ckpt")
    cmd_train(cfg, train_path, ckpt)
    det1, traj1 = cmd_detect(cfg, ckpt, test_path, str(tmp_path / "d1"))
    det2, traj2 = cmd_detect(cfg, ckpt, test_path, str(tmp_path / "d2"))
    assert read_bytes(det1) == read_bytes(det2)
    assert read_bytes(traj1) == read_bytes(traj2)
    dets = read_detection_dump(det1)
    traj_lines = [json.loads(line) for line in open(traj1)]
    # One record per (surviving detection, step 0..s_test).
    assert len(traj_lines) == len(dets) * (cfg.s_test + 1)
    for rec in traj_lines:
        assert 0 <= rec["step"] <= cfg.s_test


def test_detect_completes_with_extreme_regressor_outputs(tmp_path,
                                                        monkeypatch):
    cfg = tiny_config(s_test=3)
    train_path, test_path = cmd_generate(cfg, 3, 2, str(tmp_path))
    ckpt = str(tmp_path / "m.ckpt")
    cmd_train(cfg, train_path, ckpt)
    values = np.array([800.0, -800.0, np.inf, -np.inf, np.nan, 0.5, -0.25])

    def extreme_fns(regressor, classifier):
        def regress(feats, boxes, grid_indices):
            n = len(boxes) * cfg.synth.num_classes * 4
            return values[np.arange(n) % len(values)].reshape(len(boxes), -1, 4)

        def classify(feats, boxes, grid_indices):
            return np.tile([0.1] + [0.9 / cfg.synth.num_classes]
                           * cfg.synth.num_classes, (len(boxes), 1))
        return regress, classify

    monkeypatch.setattr(pipeline, "model_fns", extreme_fns)
    det_path, traj_path = cmd_detect(cfg, ckpt, test_path, str(tmp_path / "d"))
    w, h = cfg.synth.image_size
    records = [json.loads(line) for line in open(traj_path)]
    assert records and len(read_detection_dump(det_path)) * 4 == len(records)
    for rec in records:
        cx, cy, bw, bh = rec["box"]
        assert all(math.isfinite(v) for v in rec["box"]) and bw > 0 and bh > 0
        assert -1e-9 <= cx - bw / 2 and cx + bw / 2 <= w + 1e-9
        assert -1e-9 <= cy - bh / 2 and cy + bh / 2 <= h + 1e-9


def test_detect_s_test_zero_dumps_unmoved_grid_boxes(tmp_path):
    cfg = tiny_config()
    train_path, test_path = cmd_generate(cfg, 3, 2, str(tmp_path))
    ckpt = str(tmp_path / "m.ckpt")
    cmd_train(cfg, train_path, ckpt)
    det_path, _ = cmd_detect(cfg, ckpt, test_path, str(tmp_path / "d0"),
                             s_test=0)
    w, h = cfg.synth.image_size
    grid = {(b.cx, b.cy, b.w, b.h) for b in generate_grid(cfg.grid_test, w, h)}
    for d in read_detection_dump(det_path):
        assert (d.box.cx, d.box.cy, d.box.w, d.box.h) in grid


def test_eval_cross_checks_library_map(tmp_path, monkeypatch):
    cfg = tiny_config(s_test=2)
    train_path, test_path = cmd_generate(cfg, 3, 2, str(tmp_path))
    ckpt = str(tmp_path / "m.ckpt")
    cmd_train(cfg, train_path, ckpt)
    det_path, _ = cmd_detect(cfg, ckpt, test_path, str(tmp_path / "d"))
    renders = []
    generate_scene = synth.generate_scene
    monkeypatch.setattr(synth, "generate_scene",
                        lambda *args: renders.append(args) or
                        generate_scene(*args))
    report_path = tmp_path / "report.txt"
    per_class, map_value, breakdown, report = cmd_eval(
        cfg, det_path, test_path, report_path=str(report_path))
    # Scoring reads ground truth only: it renders no image.
    assert renders == []
    _, scenes = load_manifest(test_path)
    assert len(renders) == 2
    gts = {s.scene_id: s.gts for s in scenes}
    detections = read_detection_dump(det_path)
    ref_per_class, ref_map = evaluate_detections(
        detections, gts, cfg.synth.num_classes, cfg.iou_match)
    assert per_class == ref_per_class
    assert map_value == ref_map
    assert report == format_report(ref_per_class, ref_map, fp_breakdown(
        detections, gts, cfg.synth.class_similarity_groups, cfg.iou_match))
    assert f"mAP = {map_value:.4f}" in report
    assert report_path.read_text() == report


def test_eval_empty_dump_zero_map(tmp_path):
    cfg = tiny_config()
    _, test_path = cmd_generate(cfg, 3, 2, str(tmp_path))
    det_path = tmp_path / "empty.jsonl"
    det_path.write_text('{"format_version": 1}\n')
    _, map_value, _, _ = cmd_eval(cfg, str(det_path), test_path)
    assert map_value == 0.0


def test_ablation_row_count_and_artifacts(tmp_path):
    cfg = tiny_config(s_test=3)
    rows = cmd_ablation(cfg, [0], str(tmp_path), n_train=3, n_test=2)
    assert len(rows) == 3 * 3 * 1  # methods x step counts x seeds
    means = ablation_means(rows)
    assert set(k[0] for k in means) == {"gcnn", "1step", "ifrcnn"}
    table = format_ablation_table(rows)
    assert "gcnn" in table and "s=3" in table
    doc = json.loads((tmp_path / "ablation.json").read_text())
    assert len(doc["rows"]) == len(rows)
    assert (tmp_path / "ablation_table.txt").read_text() == table


def test_ablation_methods_share_total_compute(tmp_path):
    cfg = tiny_config(s_test=1)
    rows = run_ablation(cfg, [0], n_train=3, n_test=2)
    iters = {r["method"]: r["total_iterations"] for r in rows}
    assert len(set(iters.values())) == 1


def _no_data(*args, **kwargs):
    raise AssertionError("generated data")


def test_cli_ablation_rejects_s_test_zero_before_generating(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "generate_dataset", _no_data)
    cfg_path = str(tmp_path / "config.yaml")
    save_config(tiny_config(s_test=0), cfg_path)
    rc = main(["ablation", "--config", cfg_path, "--seeds", "0",
               "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and "s_test >= 1, got 0" in lines[0]


@pytest.mark.parametrize("seeds", ["", ","])
def test_cli_ablation_rejects_empty_seed_list(tmp_path, capsys, monkeypatch,
                                              seeds):
    monkeypatch.setattr(pipeline, "generate_dataset", _no_data)
    rc = main(["ablation", "--seeds", seeds, "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and "seeds must list at least one seed" in lines[0]
    assert not (tmp_path / "out" / "ablation.json").exists()


# (arguments before --out, words the one error line must contain).
BAD_SEEDS = {
    "seeds_not_integers": (["ablation", "--seeds", "x"],
                           "--seeds must be comma-separated integers, "
                           "got 'x'"),
    "seeds_with_a_float": (["ablation", "--seeds", "0,1.5"],
                           "--seeds must be comma-separated integers, "
                           "got '0,1.5'"),
    "seeds_negative": (["ablation", "--seeds", "-1"],
                       "seed must be a non-negative integer, got -1"),
    "seeds_negative_after_a_good_one": (
        ["ablation", "--seeds", "0,-1"],
        "seed must be a non-negative integer, got -1"),
    "seed_negative": (["generate", "--seed", "-1"],
                      "seed must be a non-negative integer, got -1"),
    "seed_negative_at_ablation": (
        ["ablation", "--seed", "-1", "--seeds", "0"],
        "seed must be a non-negative integer, got -1"),
}


@pytest.mark.parametrize("argv, words", BAD_SEEDS.values(),
                         ids=BAD_SEEDS.keys())
def test_cli_rejects_bad_seeds_before_generating(tmp_path, capsys,
                                                 monkeypatch, argv, words):
    monkeypatch.setattr(pipeline, "generate_dataset", _no_data)
    rc = main(argv + ["--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert words in lines[0]
    assert not (tmp_path / "out" / "ablation.json").exists()


@pytest.mark.parametrize("flag", ["--n-train", "--n-test"])
@pytest.mark.parametrize("command", ["generate", "ablation"])
def test_cli_zero_scene_count_is_rejected(tmp_path, capsys, monkeypatch,
                                          command, flag):
    monkeypatch.setattr(pipeline, "generate_dataset", _no_data)
    cfg_path = str(tmp_path / "config.yaml")
    save_config(tiny_config(s_test=1), cfg_path)
    argv = [command, "--config", cfg_path, flag, "0",
            "--out", str(tmp_path / "out")]
    rc = main(argv + (["--seeds", "0"] if command == "ablation" else []))
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    name = flag[2:].replace("-", "_")
    assert len(lines) == 1 and f"{name} must be >= 1, got 0" in lines[0]
    assert not (tmp_path / "out" / "train_manifest.json").exists()
    assert not (tmp_path / "out" / "ablation.json").exists()


def test_cli_train_mode_reaches_the_checkpoint(tmp_path):
    cfg_path = str(tmp_path / "config.yaml")
    save_config(tiny_config(), cfg_path)
    train_path, _ = cmd_generate(tiny_config(), 3, 2, str(tmp_path))
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", "--config", cfg_path, "--mode", "1step",
                 "--dataset", train_path, "--out", ckpt]) == 0
    assert load_checkpoint(ckpt)[2]["mode"] == "1step"


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = str(tmp_path / "config.yaml")
    save_config(tiny_config(s_test=1), cfg_path)
    out = str(tmp_path / "data")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", "--config", cfg_path, "--out", ckpt,
                 "--dataset", os.path.join(out, "train_manifest.json")]) == 0
    det_dir = str(tmp_path / "det")
    assert main(["detect", "--config", cfg_path, "--checkpoint", ckpt,
                 "--dataset", os.path.join(out, "test_manifest.json"),
                 "--out", det_dir]) == 0
    assert main(["eval", "--config", cfg_path,
                 "--detections", os.path.join(det_dir, "detections.jsonl"),
                 "--dataset", os.path.join(out, "test_manifest.json")]) == 0
    captured = capsys.readouterr()
    assert "mAP =" in captured.out


def test_cli_init_config_and_reload(tmp_path):
    path = str(tmp_path / "default.yaml")
    assert main(["init-config", "--out", path]) == 0
    assert load_config(path) == ExperimentConfig()


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    rc = main(["train", "--dataset", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg_path = str(tmp_path / "config.yaml")
    save_config(tiny_config(), cfg_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["generate", "--config", cfg_path, "--out", out_a,
                 "--seed", "1"]) == 0
    assert main(["generate", "--config", cfg_path, "--out", out_b,
                 "--seed", "2"]) == 0
    a = (tmp_path / "a" / "train_manifest.json").read_text()
    b = (tmp_path / "b" / "train_manifest.json").read_text()
    assert a != b
