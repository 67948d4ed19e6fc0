"""Field checks shared by the catalog, workload and classical-profile parsers.

A :class:`Record` wraps one JSON object of a document.  Made, it rejects
(strict mode) or warns of (lenient mode, an :class:`InputWarning`) keys
outside the declared set; its getters then read one field each, checking
presence, type, finiteness, bounds and enum choices, and raise the parse's
error type with a message that names the record and the field.

An absent field takes the getter's ``default``; with no default it is
required.  A field whose default is ``None`` also accepts an explicit JSON
``null``; elsewhere ``null`` fails the type check.  Each getter tests the
exact JSON type of the value first; any other value is the default or fails.
"""

from __future__ import annotations

import enum
import json
import math
import warnings

from .units import as_float

#: Default of a getter whose field must be present.
REQUIRED = object()


def decode(document: str, name: str, error: type[ValueError]) -> object:
    """The JSON value of ``document``; a syntax error raises ``error`` naming ``name`` and the position."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise error(f"{name}: {exc.msg} (line {exc.lineno}, column {exc.colno})") from exc


class InputWarning(UserWarning):
    """An input field that lenient mode ignores; strict mode raises it as an error."""


class Record:
    """One JSON object ``raw`` of a document, called ``name`` in the ``error`` messages it raises.

    A key outside ``keys`` raises (``strict``) or warns; each getter then reads
    and checks one field.  ``prefix`` names the fields of a nested object."""

    __slots__ = ("raw", "name", "error", "strict", "prefix")

    def __init__(self, raw: object, name: str, keys: frozenset[str], error: type[ValueError], strict: bool, prefix=""):
        if not isinstance(raw, dict):
            raise error(f"{name}: expected a JSON object, got {type(raw).__name__}")
        if not keys.issuperset(raw):
            for key in sorted(raw.keys() - keys):
                if strict:
                    raise error(f"{name}: unknown field '{prefix}{key}'")
                warnings.warn(f"{name}: ignoring unknown field '{prefix}{key}'", InputWarning, stacklevel=2)
        self.raw = raw
        self.name = name
        self.error = error
        self.strict = strict
        self.prefix = prefix

    def fail(self, key: str, message: str) -> NoReturn:
        raise self.error(f"{self.name}: field '{self.prefix}{key}' {message}")

    def _default(self, key: str, default: object) -> object:
        """The value of an absent field: its default, unless the field is required."""
        if default is REQUIRED:
            raise self.error(f"{self.name}: missing required field '{self.prefix}{key}'")
        return default

    def text(self, key: str, default: object = REQUIRED, *, nonempty: bool = False):
        """A string that UTF-8 can encode: a JSON ``\\ud800`` escape gives a lone surrogate, which it cannot."""
        value = self.raw.get(key, default)
        if type(value) is str:
            if nonempty and not value:
                self.fail(key, "must be non-empty")
            if not value.isascii():
                try:
                    value.encode()
                except UnicodeEncodeError:
                    self.fail(key, f"must not hold a lone surrogate, got {value!r}")
            return value
        if value is default:
            return self._default(key, default)
        self.fail(key, f"must be a string, got {value!r}")

    def number(self, key: str, default: object = REQUIRED, *, gt=None, ge=None, lt=None, le=None):
        """A finite number as a float.

        Bounds are open (``gt``, ``lt``) or closed (``ge``, ``le``); an upper
        bound comes with a lower one.  A float ``default`` must lie within them.
        """
        value = self.raw.get(key, default)
        if type(value) is float:
            result = value
        elif type(value) is int:
            result = as_float(value)
        elif value is default:
            return self._default(key, default)
        else:
            self.fail(key, f"must be a number, got {value!r}")
        if not math.isfinite(result):
            self.fail(key, f"must be finite, got {value!r}")
        if (
            (gt is not None and not result > gt)
            or (ge is not None and not result >= ge)
            or (lt is not None and not result < lt)
            or (le is not None and not result <= le)
        ):
            self.fail(key, f"must be {_bounds_text(gt, ge, lt, le)}, got {result}")
        return result

    def integer(self, key: str, default: object = REQUIRED, *, minimum: int | None = None, floats: bool = False):
        """An int at or above ``minimum``; with ``floats``, a quantity a float must hold: an
        integral finite float reads as its int, and an int beyond float range fails as not finite."""
        value = self.raw.get(key, default)
        if type(value) is int or floats and type(value) is float:
            if floats:  # an int beyond float range is not finite; a finite int is integral
                number = as_float(value)
                if not math.isfinite(number):
                    self.fail(key, f"must be finite, got {value!r}")
                if not number.is_integer():
                    self.fail(key, f"must be an integer, got {value!r}")
                value = int(value)
        elif value is default:
            return self._default(key, default)
        else:
            self.fail(key, f"must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            self.fail(key, f"must be >= {minimum}, got {value}")
        return value

    def flag(self, key: str, default: object = REQUIRED):
        value = self.raw.get(key, default)
        if type(value) is bool:
            return value
        if value is default:
            return self._default(key, default)
        self.fail(key, f"must be a boolean, got {value!r}")

    def choice(self, key: str, kind: type[enum.Enum], default: object = REQUIRED):
        """The member of the enum ``kind`` whose value the field holds."""
        value = self.raw.get(key, default)
        if type(value) is str:
            member = kind._value2member_map_.get(value)
            if member is not None:
                return member
        elif value is default:
            return self._default(key, default)
        self.fail(key, f"must be one of {[m.value for m in kind]}, got {value!r}")

    def items(self, key: str, default: object = REQUIRED):
        value = self.raw.get(key, default)
        if type(value) is list:
            return value
        if value is default:
            return self._default(key, default)
        self.fail(key, "must be a list")

    def record(self, key: str, keys: frozenset[str]) -> Record:
        """The optional nested object ``key``; an absent one reads as ``{}``."""
        value = self.raw.get(key, {})
        if not isinstance(value, dict):
            self.fail(key, f"must be an object, got {value!r}")
        return Record(value, self.name, keys, self.error, self.strict, f"{self.prefix}{key}.")


def json_of(record: tuple) -> dict:
    """The JSON object of the named-tuple record ``record``, as its parser reads it.

    Fields appear in declaration order; enums are written as their values,
    records as objects, other tuples (of records) as lists, and a field
    holding ``None`` is left out.
    """
    out = {}
    for name, value in zip(record._fields, record):
        if isinstance(value, enum.Enum):
            value = value.value
        elif hasattr(value, "_fields"):  # a record is a tuple too: test for it first
            value = json_of(value)
        elif isinstance(value, tuple):
            value = [json_of(item) for item in value]
        if value is not None:
            out[name] = value
    return out


def _bounds_text(gt, ge, lt, le) -> str:
    if lt is None and le is None:
        return f"> {gt}" if gt is not None else f">= {ge}"
    low = f"({gt}" if gt is not None else f"[{ge}"
    high = f"{lt})" if lt is not None else f"{le}]"
    return f"in {low}, {high}"
