"""One constructor for the frozen records the one-point paths build."""

from __future__ import annotations

_new = object.__new__


def record(cls, /, **fields):
    """An instance of the frozen dataclass cls with the given fields, built
    by one __dict__ update instead of one frozen object.__setattr__ per
    field: it equals, hashes and reprs like cls(**fields), and
    dataclasses.asdict and dataclasses.replace work on it.

    fields must name every field, defaults included (a missing one would
    read the class default but be absent from vars()).  No __post_init__
    runs, so cls must have none, or the caller must vouch for the check it
    skips."""
    obj = _new(cls)
    obj.__dict__.update(fields)
    return obj
