"""Field checks shared by the catalog, workload and classical-profile parsers.

A :class:`Checker` holds what one document's parse has in common: the error
type it raises and strict or lenient mode.  Its :meth:`Checker.record` wraps
one JSON object, rejecting (strict) or warning of (lenient, an
:class:`InputWarning`) keys outside the declared set; the :class:`Record`
getters then read one field each, checking presence, type, finiteness,
bounds and enum choices.  Every message names the record and the field.

An absent field takes the getter's ``default``; with no default it is
required.  A field whose default is ``None`` also accepts an explicit JSON
``null``; elsewhere ``null`` fails the type check.

Each getter first tries a fast test on the exact JSON type: an ASCII
``str``, a finite ``float``, an ``int`` at or above the minimum, a ``bool``,
or a ``str`` found in the enum's value map.  The fast test accepts only values
that the full check accepts, and gives what the full check would give;
every other value (absent, ``null``, a wrong type, an int in a float field,
an int below the minimum) goes on to the full check, which raises its own
message.  A number's bounds are checked after either path.

:func:`json_of` writes a record back in the layout whose keys :func:`keys_of` gives.
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


class Checker:
    """Error type and strictness of one document's parse."""

    __slots__ = ("error", "strict")

    def __init__(self, error: type[ValueError], strict: bool):
        self.error = error
        self.strict = strict

    def record(self, raw: object, name: str, keys: frozenset[str], prefix: str = "") -> Record:
        """Wrap the JSON object ``raw`` and handle its keys outside ``keys``."""
        if not isinstance(raw, dict):
            raise self.error(f"{name}: expected a JSON object, got {type(raw).__name__}")
        if not keys.issuperset(raw):
            for key in sorted(raw.keys() - keys):
                if self.strict:
                    raise self.error(f"{name}: unknown field '{prefix}{key}'")
                warnings.warn(f"{name}: ignoring unknown field '{prefix}{key}'", InputWarning, stacklevel=2)
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

    def _default(self, key: str, default: object) -> object:
        """The value of an absent field: its default, unless the field is required."""
        if default is REQUIRED:
            raise self.checker.error(f"{self.name}: missing required field '{self.prefix}{key}'")
        return default

    def _finite(self, key: str, value: int | float) -> float:
        result = as_float(value)
        if not math.isfinite(result):
            self.fail(key, f"must be finite, got {value!r}")
        return result

    def text(self, key: str, default: object = REQUIRED, *, nonempty: bool = False):
        """A string that UTF-8 can encode: a JSON ``\\ud800`` escape gives a lone surrogate, which it cannot."""
        value = self.raw.get(key, default)
        if type(value) is str and (value or not nonempty) and value.isascii():
            return value
        if value is default:
            return self._default(key, default)
        if not isinstance(value, str):
            self.fail(key, f"must be a string, got {value!r}")
        if nonempty and not value:
            self.fail(key, "must be non-empty")
        try:
            value.encode()
        except UnicodeEncodeError:
            self.fail(key, f"must not hold a lone surrogate, got {value!r}")
        return value

    def number(self, key: str, default: object = REQUIRED, *, gt=None, ge=None, lt=None, le=None):
        """A finite number as a float.

        Bounds are open (``gt``, ``lt``) or closed (``ge``, ``le``); an upper
        bound comes with a lower one.  A float ``default`` must lie within them.
        """
        result = self.raw.get(key, default)
        if type(result) is not float or not math.isfinite(result):
            if result is default:
                return self._default(key, default)
            if isinstance(result, bool) or not isinstance(result, (int, float)):
                self.fail(key, f"must be a number, got {result!r}")
            result = self._finite(key, result)
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
        if type(value) is int and (minimum is None or value >= minimum) and not floats:
            return value
        if value is default:
            return self._default(key, default)
        if floats and type(value) in (int, float) and self._finite(key, value).is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
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
        if value is default:
            return self._default(key, default)
        try:
            return kind(value)
        except ValueError:
            self.fail(key, f"must be one of {[m.value for m in kind]}, got {value!r}")

    def items(self, key: str, default: object = REQUIRED):
        value = self.raw.get(key, default)
        if value is default:
            return self._default(key, default)
        if not isinstance(value, list):
            self.fail(key, "must be a list")
        return value

    def record(self, key: str, keys: frozenset[str]) -> Record:
        """The optional nested object ``key``; an absent one reads as ``{}``."""
        value = self.raw.get(key, {})
        if not isinstance(value, dict):
            self.fail(key, f"must be an object, got {value!r}")
        return self.checker.record(value, self.name, keys, prefix=f"{self.prefix}{key}.")


def keys_of(cls: type) -> frozenset[str]:
    """The keys of a JSON object whose fields are those of the named-tuple record ``cls``."""
    return frozenset(cls._fields)


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
