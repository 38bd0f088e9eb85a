"""One plain form for every record griddet writes and reads back: YAML
configs, dataset manifests, checkpoint headers and detection dump lines.

A record is a dataclass whose type hints, and the rules its __post_init__
gives check_fields, say what a valid value is. Its plain form is a dict
keyed by field name, or by the field's ``key`` metadata; tuples become
lists. Reading back rebuilds nested records from the field types, turns
lists into tuples, gives missing fields their defaults, and rejects
anything else with one ValueError naming the file and the record, such as
``manifest m.json.scenes[0].gts[1]: cx must be a number, got True``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing


_args = functools.cache(typing.get_args)


@functools.cache
def _fields(cls) -> tuple:
    """(name, plain key, type hint, required, record class) per field of a
    record class, resolved once per class. The record class is that of a
    nested record or of the items of a tuple of records, else None."""
    hints = typing.get_type_hints(cls)
    table = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        item = _args(hint)[0] if _args(hint)[1:] == (...,) else hint
        table.append((f.name, f.metadata.get("key", f.name), hint,
                      f.default is dataclasses.MISSING
                      and f.default_factory is dataclasses.MISSING,
                      item if dataclasses.is_dataclass(item) else None))
    return tuple(table)


def to_plain(obj):
    """Dicts, lists and scalars for a record or tuple, recursively."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj):
        return {key: to_plain(getattr(obj, name))
                for name, key, *_ in _fields(type(obj))}
    if isinstance(obj, (tuple, list)):
        return [to_plain(v) for v in obj]
    return obj


_WORDS = {int: "an integer", float: "a number", str: "a string"}


def conforms(value, hint) -> bool:
    """Whether a value has the type ``hint``: an int is not a bool, a float
    is an int or a float that a float can hold, tuples go element by
    element, other classes by isinstance."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, float) or (
            conforms(value, int) and abs(value) <= sys.float_info.max)
    args = _args(hint)
    if not args:
        return isinstance(value, hint)
    if not isinstance(value, tuple):
        return False
    if args[1:] == (...,):
        return all(conforms(v, args[0]) for v in value)
    return len(value) == len(args) and all(map(conforms, value, args))


def _words(hint) -> str:
    """A type hint in words, such as "a tuple of tuples of integers"."""
    args = _args(hint)
    if args[1:] == (...,):
        _, noun, *rest = _words(args[0]).split(" ", 2)
        return " ".join(["a tuple of", noun + "s", *rest])
    return _WORDS.get(hint, f"a {hint.__name__}")


class ConfigValueError(ValueError):
    """A valid config value a command cannot use: the CLI names the file."""


POSITIVE_INT = (lambda v: v >= 1, "a positive integer")
NON_NEGATIVE_INT = (lambda v: v >= 0, "a non-negative integer")
UNIT_NUMBER = (lambda v: 0 <= v <= 1, "a number in [0, 1]")


def check_fields(obj, rules: dict):
    """Raise a ValueError naming the first field of record ``obj`` whose
    value is not of its hinted type or fails its rule: ``rules`` maps a field
    to (test or None, rule in words), and a test sees only values of the
    right type."""
    for name, key, hint, *_ in _fields(type(obj)):
        value = getattr(obj, name)
        test, words = rules.get(name, (None, None))
        if not (conforms(value, hint) and (test is None or test(value))):
            raise ValueError(
                f"{key} must be {words or _words(hint)}, got {value!r}")


def _tuples(value):
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def _records(cls, hint, value, where: str):
    """A field of type ``hint``, a record ``cls`` or a tuple of them, from
    its plain form."""
    if hint is cls:
        return from_plain(cls, value, where)
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {type(value).__name__}")
    return tuple(from_plain(cls, v, f"{where}[{i}]")
                 for i, v in enumerate(value))


def from_plain(cls, d, where: str):
    """Build record ``cls`` from its plain form; ``where`` names the record
    in errors, e.g. ``config file c.yaml``, and nested records append
    ``.key``, or ``.key[i]`` for the items of a tuple of records."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a mapping, got {type(d).__name__}")
    fields = _fields(cls)
    keys = {key for _, key, *_ in fields}
    unknown = [key for key in d if key not in keys]
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    missing = [key for _, key, _, required, _ in fields
               if required and key not in d]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    kwargs = {name: _tuples(d[key]) if record is None
              else _records(record, hint, d[key], f"{where}.{key}")
              for name, key, hint, _, record in fields if key in d}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def from_json(cls, text, where: str):
    """Build record ``cls`` from JSON text or bytes, as from_plain does."""
    try:
        plain = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where} is not JSON: {exc}") from None
    try:
        return from_plain(cls, plain, where)
    except RecursionError:
        raise ValueError(f"{where} is nested too deeply") from None
