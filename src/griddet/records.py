"""The plain form of config dataclasses, shared by YAML configs, checkpoint
headers and dataset manifests.

A dataclass becomes a dict keyed by field name; tuples become lists. Reading
back rebuilds nested dataclasses from the field types, turns lists into tuples
(configs hold no lists), gives missing fields their defaults, and rejects
anything else with a ValueError naming the section.
"""

from __future__ import annotations

import dataclasses
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
    """Whether a plain value is an integer: bool is an int subclass, but
    true is not a number."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a plain value is an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    types = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in d.items():
        if dataclasses.is_dataclass(types[name]):
            kwargs[name] = from_plain(types[name], value, f"{where}.{name}")
        else:
            kwargs[name] = _tuples(value)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
