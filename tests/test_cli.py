import dataclasses
import json
import math
import os

import numpy as np
import pytest

from griddet import pipeline
from griddet.cli import main
from griddet.config import (ExperimentConfig, load_config, save_config)
from griddet.evaluate import (DetRecord, evaluate_detections,
                              read_detection_dump, write_detection_dump)
from griddet.features import ExtractorConfig
from griddet.grid import GridSpec, generate_grid
from griddet.model import (CHECKPOINT_MAGIC, TrainConfig, make_classifier,
                           make_regressor, save_checkpoint)
from griddet.pipeline import (ablation_means, cmd_ablation, cmd_detect,
                              cmd_eval, cmd_generate, cmd_train,
                              format_ablation_table, run_ablation)
from griddet.synth import (MANIFEST_VERSION, SynthConfig, generate_dataset,
                           load_manifest, save_manifest)


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
}


@pytest.mark.parametrize("text, section, key", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
def test_config_errors_name_section_and_key(tmp_path, text, section, key):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_config(path)
    message = str(info.value)
    assert f"config file {path}.{section}" in message
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
    assert f".{section}" in lines[0] and key in lines[0]
    assert not (tmp_path / "d").exists()


# (file name, contents, CLI arguments with {f} for the file and {d} for its
# directory, word the error must contain): one malformed file per reader.
MALFORMED_FILES = {
    "config_yaml_syntax": (
        "c.yaml", "train: [\n",
        ["generate", "--config", "{f}", "--out", "{d}/out"], "YAML"),
    "checkpoint_without_arrays": (
        "m.ckpt", CHECKPOINT_MAGIC.decode() + "{}\n",
        ["detect", "--checkpoint", "{f}", "--dataset", "{d}/none.json",
         "--out", "{d}/out"], "arrays"),
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
        "not a JSON object"),
    "manifest_scenes_not_a_list": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": 5}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "scenes is not a list"),
    "manifest_gt_not_an_object": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0,
                                          "gts": [1]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "scene 0 is malformed"),
    "manifest_gt_of_zero_width": (
        "m.json", json.dumps({"format_version": MANIFEST_VERSION, "config": {},
                              "scenes": [{"scene_id": 0, "seed": 0, "gts": [
                                  {"cx": 4, "cy": 4, "w": 0, "h": 1,
                                   "class_label": 1}]}]}),
        ["eval", "--detections", "{d}/empty.jsonl", "--dataset", "{f}"],
        "box sides must be positive"),
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
    "dump_box_of_zero_width": (
        "d.jsonl", '{"format_version": 1}\n\n'
                   '{"image_id": 0, "class": 1, "score": 0.5, "box": [4, 4, 0, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 3: box sides must be positive"),
    "dump_score_not_a_number": (
        "d.jsonl", '{"format_version": 1}\n'
                   '{"image_id": 0, "class": 1, "score": "x", "box": [4, 4, 2, 2]}\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 2: score must be a finite number"),
    "dump_line_not_json": (
        "d.jsonl", '{"format_version": 1}\n{"image_id": 0, "class": 1,\n',
        ["eval", "--detections", "{f}", "--dataset", "{d}/none.json"],
        "line 2: not valid JSON"),
}


@pytest.mark.parametrize("name, text, argv, word", MALFORMED_FILES.values(),
                         ids=MALFORMED_FILES.keys())
def test_cli_reports_malformed_file(tmp_path, capsys, name, text, argv, word):
    path = tmp_path / name
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
                    mode="gcnn", num_classes=1,
                    extractor_config=ExtractorConfig(), stage=3)
    _, header, blob = path.read_bytes().split(b"\n", 2)
    header, blob = edit(json.loads(header), blob)
    path.write_bytes(CHECKPOINT_MAGIC + header + b"\n" + blob)


def _dropping_last_array(header, blob):
    *header["arrays"], last = header["arrays"]
    return json.dumps(header).encode(), blob[:-8 * math.prod(last)]


def _transposing_first_array(header, blob):
    header["arrays"][0].reverse()
    return json.dumps(header).encode(), blob


# (edit as in _corrupt_checkpoint, words the error must contain). The
# regressor is 3 -> 2 -> 4 and the classifier 3 -> 2 -> 2: 8 arrays.
MALFORMED_CHECKPOINTS = {
    "trailing_bytes": (lambda h, b: (json.dumps(h).encode(), b + bytes(8)),
                       "8 trailing bytes"),
    "truncated": (lambda h, b: (json.dumps(h).encode(), b[:-8]),
                  "truncated: array 7 needs 16 bytes, 8 left"),
    "header_not_json": (lambda h, b: (b"{oops", b), "header is not JSON"),
    "header_not_an_object": (lambda h, b: (b"[]", b), "not a JSON object"),
    "shape_not_sizes": (lambda h, b: (json.dumps({**h, "arrays": [[-1]]})
                                      .encode(), b), "not a list of sizes"),
    "too_few_arrays": (_dropping_last_array, "expected 4 arrays, got 3"),
    "wrong_shape": (_transposing_first_array,
                    "array 0: expected shape (3, 2), got (2, 3)"),
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


def test_cli_eval_reports_image_blob_of_wrong_size(tmp_path, capsys):
    synth = SynthConfig(seed=3, image_size=(16, 16))
    path = tmp_path / "m.json"
    save_manifest(path, synth, generate_dataset(synth, 2), images_file="m.bin")
    blob = tmp_path / "m.bin"
    blob.write_bytes(blob.read_bytes()[:100])
    write_detection_dump(tmp_path / "empty.jsonl", [])
    rc = main(["eval", "--detections", str(tmp_path / "empty.jsonl"),
               "--dataset", str(path)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"manifest {path}" in lines[0]
    assert "has 100 bytes, expected 2 scenes x 16 x 16" in lines[0]


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
    _, _, log_gcnn = cmd_train(cfg, train_path, str(tmp_path / "g.ckpt"),
                               mode="gcnn")
    assert len(log_gcnn.stage_boundaries) == cfg.train.s_train
    _, _, log_1step = cmd_train(cfg, train_path, str(tmp_path / "o.ckpt"),
                                mode="1step")
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


def test_eval_cross_checks_library_map(tmp_path):
    cfg = tiny_config(s_test=2)
    train_path, test_path = cmd_generate(cfg, 3, 2, str(tmp_path))
    ckpt = str(tmp_path / "m.ckpt")
    cmd_train(cfg, train_path, ckpt)
    det_path, _ = cmd_detect(cfg, ckpt, test_path, str(tmp_path / "d"))
    report_path = tmp_path / "report.txt"
    per_class, map_value, breakdown, report = cmd_eval(
        cfg, det_path, test_path, report_path=str(report_path))
    _, scenes = load_manifest(test_path)
    gts = {s.scene_id: s.gts for s in scenes}
    ref_per_class, ref_map = evaluate_detections(
        read_detection_dump(det_path), gts, cfg.synth.num_classes,
        cfg.iou_match)
    assert per_class == ref_per_class
    assert map_value == ref_map
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
