"""The plain form of config dataclasses, shared by YAML configs, checkpoint
headers and dataset manifests.

A dataclass becomes a dict keyed by field name; tuples become lists. Reading
back rebuilds nested dataclasses from the field types, turns lists into tuples
(configs hold no lists), gives missing fields their defaults, and rejects
anything else with a ValueError naming the section. check_fields names a
config field of the wrong type or range before it can fail deep in numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import typing


def to_plain(obj):
    """Dicts, lists and scalars for a dataclass or tuple, recursively."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_plain(v) for v in obj]
    return obj


def is_int(value) -> bool:
    """Whether a plain value is an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a plain value is an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_hints = functools.cache(typing.get_type_hints)  # resolved once per class
_WORDS = {int: "an integer", float: "a number", str: "a string"}


def conforms(value, hint) -> bool:
    """Whether a value has the type ``hint``: int and float as is_int and
    is_number say, tuples element by element, other classes by isinstance."""
    if hint is int or hint is float:
        return (is_int if hint is int else is_number)(value)
    args = typing.get_args(hint)
    if not args:
        return isinstance(value, hint)
    if not isinstance(value, tuple):
        return False
    if args[1:] == (...,):
        return all(conforms(v, args[0]) for v in value)
    return len(value) == len(args) and all(map(conforms, value, args))


def _words(hint) -> str:
    """A type hint in words, such as "a tuple of tuples of integers"."""
    args = typing.get_args(hint)
    if args[1:] == (...,):
        _, noun, *rest = _words(args[0]).split(" ", 2)
        return " ".join(["a tuple of", noun + "s", *rest])
    return _WORDS.get(hint, f"a {hint.__name__}")


POSITIVE_INT = (lambda v: v >= 1, "a positive integer")
NON_NEGATIVE_INT = (lambda v: v >= 0, "a non-negative integer")
UNIT_NUMBER = (lambda v: 0 <= v <= 1, "a number in [0, 1]")


def check_fields(obj, rules: dict):
    """Raise a ValueError naming the first field of dataclass ``obj`` whose
    value is not of its hinted type or fails its rule: ``rules`` maps a field
    to (test, rule in words), and a test sees only values of the right type."""
    for name, hint in _hints(type(obj)).items():
        value = getattr(obj, name)
        test, words = rules.get(name, (None, None))
        if not (conforms(value, hint) and (test is None or test(value))):
            raise ValueError(
                f"{name} must be {words or _words(hint)}, got {value!r}")


def _tuples(value):
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def from_plain(cls, d, where: str):
    """Build ``cls`` from its plain form; ``where`` names the section in errors,
    e.g. ``config file c.yaml``, and nested sections append ``.field``."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a mapping, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = [key for key in d if key not in fields]
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    missing = [name for name, f in fields.items() if name not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    types = _hints(cls)
    kwargs = {name: from_plain(types[name], value, f"{where}.{name}")
              if dataclasses.is_dataclass(types[name]) else _tuples(value)
              for name, value in d.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
