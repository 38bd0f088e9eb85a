import dataclasses

import pytest

from griddet.config import ExperimentConfig
from griddet.grid import GridSpec
from griddet.model import TrainConfig
from griddet.records import from_plain, to_plain
from griddet.synth import SynthConfig


def test_plain_form_uses_field_names_and_lists():
    plain = to_plain(ExperimentConfig())
    assert set(plain) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert plain["grid_test"] == {"scales": [2, 5, 10],
                                  "overlaps": [0.7, 0.5, 0.0]}
    assert plain["train"]["hidden_sizes"] == [48]
    assert plain["synth"]["class_similarity_groups"] == [[1, 2], [3, 4]]


def test_arrays_become_lists_and_come_back_as_tuples():
    groups = ((1, 3), (2, 4, 5))
    plain = to_plain(SynthConfig(num_classes=5,
                                 class_similarity_groups=groups))
    assert plain["class_similarity_groups"] == [[1, 3], [2, 4, 5]]
    back = from_plain(SynthConfig, plain, "synth")
    assert back.class_similarity_groups == groups


def test_missing_fields_take_defaults():
    cfg = from_plain(ExperimentConfig, {"train": {"s_train": 2}}, "cfg")
    assert cfg == dataclasses.replace(
        ExperimentConfig(), train=TrainConfig(s_train=2))


@pytest.mark.parametrize("cls, plain, message", [
    (TrainConfig, {"s_trian": 2}, r"^cfg: unknown keys \['s_trian'\]$"),
    (GridSpec, {"scales": [2]}, r"^cfg: missing keys \['overlaps'\]$"),
    (ExperimentConfig, {"synth": [1]}, r"^cfg\.synth must be a mapping"),
    (ExperimentConfig, {"mode": "bogus"}, r"^cfg: mode must be one of"),
    (TrainConfig, {"s_train": "3"}, r"^cfg: "),
])
def test_malformed_input_is_a_value_error_naming_the_section(cls, plain,
                                                             message):
    with pytest.raises(ValueError, match=message):
        from_plain(cls, plain, "cfg")
