"""Field checks shared by the catalog, workload and classical-profile parsers.

A :class:`Checker` holds what one document's parse has in common: the error
type it raises, strict or lenient mode, and the lenient-mode warnings.  Its
:meth:`Checker.record` wraps one JSON object, rejecting (strict) or
collecting (lenient) keys outside the declared set; the :class:`Record`
getters then read one field each, checking presence, type, finiteness,
bounds and enum choices.  Every message names the record and the field.

An absent field takes the getter's ``default``; with no default it is
required.  A field whose default is ``None`` also accepts an explicit JSON
``null``; elsewhere ``null`` fails the type check.

:func:`json_of` writes a record back in the layout whose keys :func:`keys_of` gives.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import NoReturn

from .units import as_float

#: Default of a getter whose field must be present.
REQUIRED = object()


def decode(document: str, name: str, error: type[ValueError]) -> object:
    """The JSON value of ``document``; a syntax error raises ``error`` naming ``name`` and the position."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise error(f"{name}: {exc.msg} (line {exc.lineno}, column {exc.colno})") from exc


class Checker:
    """Error type, strictness and collected warnings of one document's parse."""

    __slots__ = ("error", "strict", "warnings")

    def __init__(self, error: type[ValueError], strict: bool):
        self.error = error
        self.strict = strict
        self.warnings: list[str] = []

    def record(self, raw: object, name: str, keys: frozenset[str], prefix: str = "") -> Record:
        """Wrap the JSON object ``raw`` and handle its keys outside ``keys``."""
        if not isinstance(raw, dict):
            raise self.error(f"{name}: expected a JSON object, got {type(raw).__name__}")
        if not keys.issuperset(raw):
            for key in sorted(raw.keys() - keys):
                if self.strict:
                    raise self.error(f"{name}: unknown field '{prefix}{key}'")
                self.warnings.append(f"{name}: ignoring unknown field '{prefix}{key}'")
        return Record(self, raw, name, prefix)


class Record:
    """One JSON object of a document; each getter reads and checks one field."""

    __slots__ = ("checker", "raw", "name", "prefix")

    def __init__(self, checker: Checker, raw: dict, name: str, prefix: str):
        self.checker = checker
        self.raw = raw
        self.name = name
        self.prefix = prefix

    def fail(self, key: str, message: str) -> NoReturn:
        raise self.checker.error(f"{self.name}: field '{self.prefix}{key}' {message}")

    def _get(self, key: str, default: object) -> object:
        value = self.raw.get(key, default)
        if value is REQUIRED:
            raise self.checker.error(f"{self.name}: missing required field '{self.prefix}{key}'")
        return value

    def _finite(self, key: str, value: int | float) -> float:
        result = as_float(value)
        if not math.isfinite(result):
            self.fail(key, f"must be finite, got {value!r}")
        return result

    def text(self, key: str, default: object = REQUIRED, *, nonempty: bool = False):
        value = self._get(key, default)
        if value is default:
            return value
        if not isinstance(value, str):
            self.fail(key, f"must be a string, got {value!r}")
        if nonempty and not value:
            self.fail(key, "must be non-empty")
        return value

    def number(self, key: str, default: object = REQUIRED, *, gt=None, ge=None, lt=None, le=None):
        """A finite number as a float.

        Bounds are open (``gt``, ``lt``) or closed (``ge``, ``le``); an upper
        bound comes with a lower one.
        """
        value = self._get(key, default)
        if value is default:
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(key, f"must be a number, got {value!r}")
        result = self._finite(key, value)
        if (
            (gt is not None and not result > gt)
            or (ge is not None and not result >= ge)
            or (lt is not None and not result < lt)
            or (le is not None and not result <= le)
        ):
            self.fail(key, f"must be {_bounds_text(gt, ge, lt, le)}, got {result}")
        return result

    def integer(self, key: str, default: object = REQUIRED, *, minimum: int | None = None, floats: bool = False):
        """An int at or above ``minimum``; with ``floats``, an integral finite float too."""
        value = self._get(key, default)
        if value is default:
            return value
        if floats and isinstance(value, float) and self._finite(key, value).is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(key, f"must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            self.fail(key, f"must be >= {minimum}, got {value}")
        return value

    def flag(self, key: str, default: object = REQUIRED):
        value = self._get(key, default)
        if value is not default and not isinstance(value, bool):
            self.fail(key, f"must be a boolean, got {value!r}")
        return value

    def choice(self, key: str, kind: type[enum.Enum], default: object = REQUIRED):
        """The member of the enum ``kind`` whose value the field holds."""
        value = self._get(key, default)
        if value is default:
            return value
        try:
            return kind(value)
        except ValueError:
            self.fail(key, f"must be one of {[m.value for m in kind]}, got {value!r}")

    def items(self, key: str, default: object = REQUIRED):
        value = self._get(key, default)
        if value is not default and not isinstance(value, list):
            self.fail(key, "must be a list")
        return value

    def record(self, key: str, keys: frozenset[str]) -> Record:
        """The optional nested object ``key``; an absent one reads as ``{}``."""
        value = self.raw.get(key, {})
        if not isinstance(value, dict):
            self.fail(key, f"must be an object, got {value!r}")
        return self.checker.record(value, self.name, keys, prefix=f"{self.prefix}{key}.")


def keys_of(cls: type) -> frozenset[str]:
    """The keys of a JSON object whose fields are those of the dataclass ``cls``."""
    return frozenset(field.name for field in dataclasses.fields(cls))


def json_of(record: object) -> dict:
    """The JSON object of the dataclass instance ``record``, as its parser reads it.

    Fields appear in declaration order; enums are written as their values,
    tuples of records as lists, and a field holding ``None`` is left out.
    """
    out = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = [json_of(item) for item in value]
        if value is not None:
            out[field.name] = value
    return out


def _bounds_text(gt, ge, lt, le) -> str:
    if lt is None and le is None:
        return f"> {gt}" if gt is not None else f">= {ge}"
    low = f"({gt}" if gt is not None else f"[{ge}"
    high = f"{lt})" if lt is not None else f"{le}]"
    return f"in {low}, {high}"
