import dataclasses
import sys

import pytest

from griddet.config import ExperimentConfig
from griddet.grid import GridSpec
from griddet.model import TrainConfig
from griddet.records import (POSITIVE_INT, _fields, check_fields, conforms,
                             from_json, from_plain, to_plain)
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
    # An int is a float only if a float can hold it.
    (2 ** 1023, float, True), (10 ** 400, float, False),
    (-10 ** 400, float, False), (10 ** 400, int, True),
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
    misses = _fields.cache_info().misses
    for _ in range(3):
        dataclasses.replace(ExperimentConfig(), output_dir="elsewhere")
    assert _fields.cache_info().misses == misses


@dataclasses.dataclass(frozen=True)
class _Item:
    label: int = dataclasses.field(metadata={"key": "class"})
    score: float = 0.0

    def __post_init__(self):
        check_fields(self, {"label": POSITIVE_INT})


@dataclasses.dataclass(frozen=True)
class _Batch:
    items: tuple[_Item, ...]


def test_a_metadata_key_names_the_field_in_plain_form_and_in_errors():
    plain = to_plain(_Item(3, 0.5))
    assert plain == {"class": 3, "score": 0.5}
    assert from_plain(_Item, plain, "r") == _Item(3, 0.5)
    with pytest.raises(ValueError, match=r"^r: unknown keys \['label'\]$"):
        from_plain(_Item, {"label": 3}, "r")
    with pytest.raises(ValueError, match=r"^r: missing keys \['class'\]$"):
        from_plain(_Item, {}, "r")
    with pytest.raises(ValueError) as info:
        from_plain(_Item, {"class": 0}, "r")
    assert str(info.value) == "r: class must be a positive integer, got 0"


def test_a_tuple_of_records_is_built_item_by_item():
    batch = from_plain(_Batch, {"items": [{"class": 1},
                                          {"class": 2, "score": 0.5}]}, "r")
    assert batch == _Batch((_Item(1), _Item(2, 0.5)))
    assert to_plain(batch) == {"items": [{"class": 1, "score": 0.0},
                                         {"class": 2, "score": 0.5}]}
    assert from_plain(_Batch, {"items": []}, "r") == _Batch(())


@pytest.mark.parametrize("items, message", [
    (5, "r.items must be a list, got int"),
    ({"class": 1}, "r.items must be a list, got dict"),
    ([{"class": 1}, 7], "r.items[1] must be a mapping, got int"),
    ([{"class": 1}, {"class": True}],
     "r.items[1]: class must be a positive integer, got True"),
])
def test_a_malformed_tuple_of_records_names_the_item(items, message):
    with pytest.raises(ValueError) as info:
        from_plain(_Batch, {"items": items}, "r")
    assert str(info.value) == message


def test_from_json_reads_text_or_bytes():
    text = '{"items": [{"class": 4}]}'
    assert from_json(_Batch, text, "r") == _Batch((_Item(4),))
    assert from_json(_Batch, text.encode(), "r") == _Batch((_Item(4),))


@pytest.mark.parametrize("text", ["", "{", "[1,]", "{'items': []}",
                                  b"\xff{}", "[" * 10 ** 5 + "]" * 10 ** 5])
def test_from_json_names_text_that_is_not_json(text):
    with pytest.raises(ValueError, match=r"^r is not JSON: "):
        from_json(_Batch, text, "r")


def test_from_json_names_a_record_nested_too_deeply_to_build():
    # Deep enough for the record's checks, not for the JSON parser.
    depth = sys.getrecursionlimit() * 2 // 3
    text = '{"items": [{"class": 1, "score": ' + "[" * depth + "]" * depth
    with pytest.raises(ValueError) as info:
        from_json(_Batch, text + "}]}", "r")
    assert str(info.value) == "r is nested too deeply"
