"""Shared exception types, and the key and type checks that turn a malformed
config object into a ConfigError."""

import dataclasses
import types
import typing


class ConfigError(ValueError):
    """Invalid configuration or arguments; maps to CLI exit code 2."""


class ShapeError(ValueError):
    """Array shape does not match what an operation requires."""


class NonFiniteError(FloatingPointError):
    """A computation produced or received NaN/Inf where finite values are required."""


def dataclass_kwargs(cls, d, where: str) -> dict:
    """A copy of `d` to build dataclass `cls` from. ConfigError names `where`
    and the keys when `d` is not an object, has a key that is not a field of
    `cls`, lacks a field that has no default, or holds a value of the wrong
    type (see check_type)."""
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
    for name, value in d.items():
        check_type(cls, name, value, f"{where}: key {name!r}")
    return dict(d)


def check_type(cls, name: str, value, where: str) -> None:
    """ConfigError naming `where` and the expected type unless `value`, read
    from a JSON document, fits the annotation of field `name` of dataclass
    `cls`: an int (not a bool), a number, a bool, a string, a list of such
    values (of the annotated length for a tuple), an object for a nested
    dataclass, or null where the field is optional."""
    hint = typing.get_type_hints(cls)[name]
    if not _fits(value, hint):
        raise ConfigError(f"{where}: expected {_describe(hint)}, got {value!r}")


_SCALARS = {bool: ("a bool", "bools"), int: ("an int", "ints"),
            float: ("a number", "numbers"), str: ("a string", "strings"),
            type(None): ("null", "nulls")}


def _fits(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin in (list, tuple):
        return isinstance(value, (list, tuple)) and (
            all(_fits(v, args[0]) for v in value) if origin is list
            else len(value) == len(args) and all(map(_fits, value, args)))
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _describe(hint, plural: bool = False) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_describe(a, plural) for a in args)
    if origin in (list, tuple):
        count = f"{len(args)} " if origin is tuple else ""
        return f"a list of {count}{_describe(args[0], plural=True)}"
    if dataclasses.is_dataclass(hint):
        return "an object"
    return _SCALARS[hint][plural]
