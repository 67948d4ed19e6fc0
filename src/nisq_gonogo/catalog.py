"""Hardware catalog: QPU and classical-reference data model, JSON parsing,
validation, and the bundled dataset.

Catalog files are UTF-8 JSON documents::

    {
      "schema_version": 1,
      "qpus": [
        {
          "id": "example-qpu",
          "modality": "superconducting",
          "qubit_count": 72,
          "two_qubit_error_median": 0.006,
          "two_qubit_error_stddev": 0.002,        # optional, omit if unreported
          "two_qubit_gate_time": 1e-7,            # seconds
          "readout_time": 1e-6,                   # seconds
          "reset_time": 1e-6,                     # seconds
          "connectivity": "grid-4",
          "power_components": [
            {"label": "pulse tubes", "unit_power_w": 10000, "count": 9, "per_qubit": false}
          ],
          "status": "available",
          "source_note": "where these numbers come from"
        }
      ],
      "classical_refs": [
        {"id": "dgx-rack", "description": "...", "power_draw": 30000,
         "memory_capacity": 2199023255552, "tier_hint": "hpc"}
      ]
    }

Fidelities are stored as error-rate probabilities, never percentages;
``units.format_fidelity_percent`` converts for display.  Unknown keys are
rejected in strict mode and warned of (``fields.InputWarning``) in lenient
mode.  A parsed ``Catalog`` is immutable and safe to share across threads.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import re
from collections import namedtuple

from .feasibility import EmulationTier
from .fields import Record, decode, json_of

SCHEMA_VERSION = 1

_CONNECTIVITY_CLASSES = ("all-to-all", "grid-4", "heavy-hex", "linear")
_CLUSTER_RE = re.compile(r"^cluster-[1-9][0-9]*$")

_TIER_LABELS = tuple(tier.label for tier in EmulationTier)


class CatalogError(ValueError):
    """Base class for catalog parsing and validation failures."""


class CatalogSyntaxError(CatalogError):
    """Malformed JSON; the message gives the position."""


class CatalogValidationError(CatalogError):
    """A record violated an invariant; message names the record and field."""


class Modality(str, enum.Enum):
    SUPERCONDUCTING = "superconducting"
    TRAPPED_ION = "trapped-ion"
    NEUTRAL_ATOM = "neutral-atom"
    PHOTONIC = "photonic"
    SPIN = "spin"
    OTHER = "other"


class QpuStatus(str, enum.Enum):
    AVAILABLE = "available"
    ANNOUNCED = "announced"
    PROJECTED = "projected"


PowerComponent = namedtuple("PowerComponent", ("label", "unit_power_w", "count", "per_qubit"), defaults=(1, False))
PowerComponent.__doc__ = """One contributor to a QPU's steady-state power draw.

Fields: ``label`` (str); ``unit_power_w`` (float, watts per unit); ``count``
(int, default 1); ``per_qubit`` (bool, default false): when true, the
effective count is the QPU's qubit count.
"""

QpuSpec = namedtuple(
    "QpuSpec",
    (
        "id", "modality", "qubit_count", "two_qubit_error_median", "two_qubit_gate_time", "readout_time",
        "reset_time", "connectivity", "status", "source_note", "two_qubit_error_stddev", "power_components",
    ),
    defaults=(None, ()),
)
QpuSpec.__doc__ = """One hardware platform, as transcribed from public figures.

Fields: ``id`` (str); ``modality`` (:class:`Modality`); ``qubit_count``
(int); ``two_qubit_error_median`` (float, an error probability, not a
percentage); ``two_qubit_gate_time``, ``readout_time`` and ``reset_time``
(float, seconds); ``connectivity`` (str); ``status`` (:class:`QpuStatus`);
``source_note`` (str); ``two_qubit_error_stddev`` (float, or None when
unreported); ``power_components`` (tuple of :class:`PowerComponent`).
"""

ClassicalRefSpec = namedtuple(
    "ClassicalRefSpec", ("id", "description", "power_draw", "memory_capacity", "tier_hint"), defaults=(None,)
)
ClassicalRefSpec.__doc__ = """A classical machine used as the comparison side of estimates.

Fields: ``id`` and ``description`` (str); ``power_draw`` (float, watts);
``memory_capacity`` (int, bytes); ``tier_hint`` (str, an emulation tier
label, or None).
"""

_CatalogFields = namedtuple("_CatalogFields", ("qpus", "classical_refs"), defaults=((),))


class Catalog(_CatalogFields):
    """The QPUs and classical references of one catalog.

    Fields: ``qpus`` (tuple of :class:`QpuSpec`); ``classical_refs`` (tuple
    of :class:`ClassicalRefSpec`, default empty).

    Each id names one entry: a repeated qpu id, or a repeated classical-ref
    id, raises :class:`CatalogValidationError` here and in ``_make`` and
    ``_replace``, so a catalog parsed or built in code is one that
    ``serialize_catalog`` writes and ``parse_catalog`` reads back.
    """

    __slots__ = ()

    def __new__(
        cls,
        qpus: tuple[QpuSpec, ...],
        classical_refs: tuple[ClassicalRefSpec, ...] = (),
    ) -> Catalog:
        for label, entries in (("qpus", qpus), ("classical_refs", classical_refs)):
            seen: set[str] = set()
            for entry in entries:
                if entry.id in seen:
                    raise CatalogValidationError(f"catalog: duplicate id {entry.id!r} in {label}")
                seen.add(entry.id)
        return tuple.__new__(cls, (qpus, classical_refs))

    @classmethod
    def _make(cls, iterable) -> Catalog:  # ``_replace`` builds through it
        return cls(*iterable)

    def get_qpu(self, qpu_id: str) -> QpuSpec:
        return _lookup(self.qpus, qpu_id, "qpu")

    def get_classical_ref(self, ref_id: str) -> ClassicalRefSpec:
        return _lookup(self.classical_refs, ref_id, "classical ref")


def _lookup(entries, entry_id: str, kind: str):
    for entry in entries:
        if entry.id == entry_id:
            return entry
    known = ", ".join(e.id for e in entries)
    raise CatalogError(f"unknown {kind} id {entry_id!r} (catalog has: {known})")


_POWER_COMPONENT_KEYS = frozenset(PowerComponent._fields)
_QPU_KEYS = frozenset(QpuSpec._fields)
_CLASSICAL_REF_KEYS = frozenset(ClassicalRefSpec._fields)
_CATALOG_KEYS = frozenset({"schema_version", "qpus", "classical_refs"})


def _parse_power_component(raw: object, record: str, strict: bool) -> PowerComponent:
    fields = Record(raw, record, _POWER_COMPONENT_KEYS, CatalogValidationError, strict)
    count = fields.integer("count", None, minimum=0)
    return PowerComponent(
        label=fields.text("label"),
        unit_power_w=fields.number("unit_power_w", ge=0),
        count=1 if count is None else count,
        per_qubit=bool(fields.flag("per_qubit", None)),
    )


def _parse_qpu(raw: object, strict: bool) -> QpuSpec:
    preliminary = raw.get("id", "<missing id>") if isinstance(raw, dict) else "<qpu>"
    record = f"qpu '{preliminary}'"
    fields = Record(raw, record, _QPU_KEYS, CatalogValidationError, strict)

    qpu_id = fields.text("id", nonempty=True)
    modality = fields.choice("modality", Modality)
    qubit_count = fields.integer("qubit_count", minimum=1)
    error_median = fields.number("two_qubit_error_median", gt=0, lt=1)
    stddev = fields.number("two_qubit_error_stddev", None, ge=0)
    gate_time = fields.number("two_qubit_gate_time", gt=0)
    readout_time = fields.number("readout_time", ge=0)
    reset_time = fields.number("reset_time", ge=0)

    connectivity = fields.text("connectivity")
    if connectivity not in _CONNECTIVITY_CLASSES and not _CLUSTER_RE.match(connectivity):
        fields.fail(
            "connectivity",
            f"must be one of {list(_CONNECTIVITY_CLASSES)} or 'cluster-<k>', got {connectivity!r}",
        )

    components = tuple(
        _parse_power_component(item, f"{record} power component #{i}", strict)
        for i, item in enumerate(fields.items("power_components", None) or ())
    )

    return QpuSpec(
        id=qpu_id,
        modality=modality,
        qubit_count=qubit_count,
        two_qubit_error_median=error_median,
        two_qubit_error_stddev=stddev,
        two_qubit_gate_time=gate_time,
        readout_time=readout_time,
        reset_time=reset_time,
        connectivity=connectivity,
        power_components=components,
        status=fields.choice("status", QpuStatus),
        source_note=fields.text("source_note"),
    )


def _parse_classical_ref(raw: object, strict: bool) -> ClassicalRefSpec:
    preliminary = raw.get("id", "<missing id>") if isinstance(raw, dict) else "<classical ref>"
    fields = Record(raw, f"classical ref '{preliminary}'", _CLASSICAL_REF_KEYS, CatalogValidationError, strict)
    ref_id = fields.text("id", nonempty=True)
    description = fields.text("description")
    power = fields.number("power_draw", gt=0)
    memory = fields.integer("memory_capacity", minimum=1, floats=True)
    tier = fields.text("tier_hint", None)
    if tier is not None and tier not in _TIER_LABELS:
        fields.fail("tier_hint", f"must be one of {list(_TIER_LABELS)}, got {tier!r}")
    return ClassicalRefSpec(id=ref_id, description=description, power_draw=power, memory_capacity=memory, tier_hint=tier)


def parse_catalog(document: str, *, strict: bool = True) -> Catalog:
    """Parse and validate a catalog document.

    Strict mode (default) rejects unknown fields; lenient mode warns of each
    with an :class:`~nisq_gonogo.fields.InputWarning`.  Raises
    :class:`CatalogSyntaxError` on malformed JSON and
    :class:`CatalogValidationError` on invariant violations, naming the
    offending record and field.
    """
    raw = decode(document, "catalog", CatalogSyntaxError)
    fields = Record(raw, "catalog", _CATALOG_KEYS, CatalogValidationError, strict)
    version = fields.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise CatalogValidationError(f"catalog: unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    qpus = tuple(_parse_qpu(item, strict) for item in fields.items("qpus"))
    refs = tuple(_parse_classical_ref(item, strict) for item in fields.items("classical_refs", None) or ())
    return Catalog(qpus, refs)


def serialize_catalog(catalog: Catalog) -> str:
    """Serialize to the same JSON document format ``parse_catalog`` accepts.

    Round-trip stable: the result re-parses to a structurally equal Catalog.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "qpus": [json_of(q) for q in catalog.qpus],
        "classical_refs": [json_of(r) for r in catalog.classical_refs],
    }
    return json.dumps(doc, indent=2) + "\n"


@functools.lru_cache(maxsize=1)
def bundled_catalog() -> Catalog:
    """The compiled-in hardware dataset (validated at load time)."""
    with open(os.path.join(os.path.dirname(__file__), "data", "catalog.json"), encoding="utf-8") as file:
        return parse_catalog(file.read(), strict=True)
