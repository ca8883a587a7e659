"""Shared exception types, and the key check that turns a malformed config
object into a ConfigError."""

import dataclasses


class ConfigError(ValueError):
    """Invalid configuration or arguments; maps to CLI exit code 2."""


class ShapeError(ValueError):
    """Array shape does not match what an operation requires."""


class NonFiniteError(FloatingPointError):
    """A computation produced or received NaN/Inf where finite values are required."""


def dataclass_kwargs(cls, d, where: str) -> dict:
    """A copy of `d` to build dataclass `cls` from. ConfigError names `where`
    and the keys when `d` is not an object, has a key that is not a field of
    `cls`, or lacks a field that has no default."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(d) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    return dict(d)
