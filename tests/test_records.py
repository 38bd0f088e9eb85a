import dataclasses

import pytest

from griddet.config import ExperimentConfig
from griddet.grid import GridSpec
from griddet.model import TrainConfig
from griddet.records import (POSITIVE_INT, _hints, check_fields, conforms,
                             from_plain, to_plain)
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


INTS = tuple[int, ...]
GROUPS = tuple[tuple[int, ...], ...]


@pytest.mark.parametrize("value, hint, ok", [
    (3, int, True), (True, int, False), (3.0, int, False), ("3", int, False),
    (3, float, True), (2.5, float, True), (False, float, False),
    (None, float, False), ("x", str, True), (5, str, False),
    (SynthConfig(), SynthConfig, True), ({}, SynthConfig, False),
    ((), INTS, True), ((1, 2, 3), INTS, True), ((1, True), INTS, False),
    ([1, 2], INTS, False), ((1, 2.0), INTS, False),
    ((1, 2), tuple[int, int], True), ((1,), tuple[int, int], False),
    ((1, 2, 3), tuple[int, int], False), ((1, 2.5), tuple[int, float], True),
    ((2.5, 1), tuple[int, float], False),
    (((1, 2), (3,)), GROUPS, True), (((1, 2), 3), GROUPS, False),
    (((1, 2), (3, "x")), GROUPS, False), ((1, 2), GROUPS, False),
])
def test_conforms(value, hint, ok):
    assert conforms(value, hint) is ok


@dataclasses.dataclass
class _Record:
    count: int = 1
    name: str = ""
    groups: GROUPS = ()

    def __post_init__(self):
        check_fields(self, {"count": POSITIVE_INT})


@pytest.mark.parametrize("fields, message", [
    # A rule's test sees only a value of its type: "x" >= 1 never runs.
    ({"count": "x"}, "count must be a positive integer, got 'x'"),
    ({"count": 0}, "count must be a positive integer, got 0"),
    ({"name": 5}, "name must be a string, got 5"),
    ({"groups": ((1,), 2)},
     "groups must be a tuple of tuples of integers, got ((1,), 2)"),
])
def test_check_fields_names_the_field_its_rule_or_its_type(fields, message):
    with pytest.raises(ValueError) as info:
        _Record(**fields)
    assert str(info.value) == message


def test_empty_values_of_the_right_type_are_valid():
    assert _Record(name="", groups=((1, 2), ())).name == ""
    assert ExperimentConfig(output_dir="").output_dir == ""


def test_type_hints_resolve_once_per_class():
    ExperimentConfig()
    misses = _hints.cache_info().misses
    for _ in range(3):
        dataclasses.replace(ExperimentConfig(), output_dir="elsewhere")
    assert _hints.cache_info().misses == misses
