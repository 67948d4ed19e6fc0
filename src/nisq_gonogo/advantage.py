"""Five-axis quantum-vs-classical comparison: space, speed, quality,
energetic, cost.

Speed, energy, and cost are lower-is-better; quality is higher-is-better; a
relative parity band keeps noise-level differences from flipping verdicts.
The space axis compares the quantum state-space footprint (bytes for an
exact statevector of the data register) against the classical machine's
memory capacity, with no band.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .catalog import Catalog
from .feasibility import statevector_memory
from .fields import Record, decode

DEFAULT_PARITY_BAND = 0.05

AXES = ("space", "speed", "quality", "energetic", "cost")


class Outcome(str, enum.Enum):
    ADVANTAGE = "advantage"
    PARITY = "parity"
    DISADVANTAGE = "disadvantage"
    NOT_EVALUATED = "not-evaluated"


# a member read from its enum class costs about 200 ns on 3.10 and 3.11
_ADVANTAGE, _PARITY, _DISADVANTAGE, _NOT_EVALUATED = Outcome

_SolutionProfileFields = namedtuple(
    "_SolutionProfileFields", ("runtime_s", "energy_j", "cost", "quality", "memory_bytes")
)


class SolutionProfile(_SolutionProfileFields):
    """One side of a comparison.  Optional axes are skipped when absent.

    Fields: ``runtime_s`` (float, seconds); ``energy_j`` (float, joules, or
    None); ``cost`` and ``quality`` (float or None); ``memory_bytes`` (int or
    float, bytes, or None).

    ``memory_bytes`` is the memory the solution needs: a classical machine's
    capacity requirement, or the statevector-equivalent footprint of a
    quantum register (see :func:`quantum_profile`): an exact int up to 1019
    qubits and ``math.inf`` beyond, which ranks above every finite memory
    (the CLI reads none beyond float range) and level with an ``inf`` one.
    """

    __slots__ = ()

    def __new__(
        cls,
        runtime_s: float,
        energy_j: float | None = None,
        cost: float | None = None,
        quality: float | None = None,
        memory_bytes: int | float | None = None,
    ) -> SolutionProfile:
        # Runtime and energy may be inf: a quantum budget beyond float range is unbounded.
        if not 0.0 < runtime_s <= math.inf:
            raise ValueError(f"runtime_s must be > 0, got {runtime_s}")
        if energy_j is not None and not 0.0 <= energy_j <= math.inf:
            raise ValueError(f"energy_j must be >= 0, got {energy_j}")
        for name, value in (("cost", cost), ("quality", quality)):
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if memory_bytes is not None and not memory_bytes >= 0:
            raise ValueError(f"memory_bytes must be >= 0, got {memory_bytes}")
        return tuple.__new__(cls, (runtime_s, energy_j, cost, quality, memory_bytes))

    @classmethod
    def _make(cls, iterable) -> SolutionProfile:  # ``_replace`` builds through it
        return cls(*iterable)


_PROFILE_KEYS = frozenset(SolutionProfile._fields) | {"classical_ref"}


def parse_classical_profile(document: str, catalog: Catalog, *, strict: bool = True) -> tuple[SolutionProfile, list[str]]:
    """Parse a classical solution profile: a JSON object of :class:`SolutionProfile` fields.

    An optional ``classical_ref`` names a catalog entry whose power draw times
    ``runtime_s`` stands in for an absent ``energy_j``, and whose memory
    capacity for an absent ``memory_bytes``; each such stand-in adds a note.
    Returns the profile and those notes.  Strict mode (default) rejects
    unknown fields; lenient mode warns of each with an
    :class:`~nisq_gonogo.fields.InputWarning`.  Raises ``ValueError``.
    """
    raw = decode(document, "classical profile", ValueError)
    fields = Record(raw, "classical profile", _PROFILE_KEYS, ValueError, strict)
    runtime_s = fields.number("runtime_s", gt=0)
    ref_id = fields.text("classical_ref", None)
    ref = None if ref_id is None else catalog.get_classical_ref(ref_id)
    energy_j = fields.number("energy_j", None, ge=0)
    memory = fields.integer("memory_bytes", None, minimum=0, floats=True)
    notes = []
    if energy_j is None and ref is not None:
        energy_j = ref.power_draw * runtime_s
        notes.append(f"classical energy derived from '{ref.id}' power draw x runtime")
    if memory is None and ref is not None:
        memory = ref.memory_capacity
        notes.append(f"classical memory capacity taken from '{ref.id}'")
    cost, quality = fields.number("cost", None, ge=0), fields.number("quality", None, ge=0)
    profile = SolutionProfile(runtime_s, energy_j, cost, quality, memory)
    return profile, notes


def quantum_profile(
    runtime_s: float,
    *,
    qubits: int,
    energy_j: float | None = None,
    cost: float | None = None,
    quality: float | None = None,
) -> SolutionProfile:
    """Profile for the quantum side; the space footprint is the exact
    statevector size of its ``qubits``-qubit register."""
    return SolutionProfile(runtime_s, energy_j, cost, quality, statevector_memory(qubits))


AdvantageReport = namedtuple("AdvantageReport", (*AXES, "notes"), defaults=((),))
AdvantageReport.__doc__ = """Per-axis outcome of a comparison, quantum side first.

Fields: ``space``, ``speed``, ``quality``, ``energetic`` and ``cost``
(:class:`Outcome`); ``notes`` (tuple of str, default empty).  Its
``axes()`` maps each axis name to its outcome.
"""
AdvantageReport.axes = lambda report: dict(zip(AXES, report))


def _lower_is_better(q: float | None, c: float | None, band: float) -> Outcome:
    if q is None or c is None:
        return _NOT_EVALUATED
    if q < (1.0 - band) * c:
        return _ADVANTAGE
    if c < (1.0 - band) * q:
        return _DISADVANTAGE
    return _PARITY


def _strict_compare(q: int | None, c: int | None) -> Outcome:
    if q is None or c is None:
        return _NOT_EVALUATED
    if q > c:
        return _ADVANTAGE
    if q < c:
        return _DISADVANTAGE
    return _PARITY


def classify(
    quantum: SolutionProfile,
    classical: SolutionProfile,
    *,
    parity_band: float = DEFAULT_PARITY_BAND,
) -> AdvantageReport:
    """Classify ``quantum`` against ``classical`` along the five axes.

    Swapping the two profiles maps advantage to disadvantage and leaves
    parity and not-evaluated fixed; rescaling both sides of any axis by the
    same positive constant leaves the report unchanged.
    """
    if not 0.0 <= parity_band < 1.0:
        raise ValueError(f"parity_band must be in [0, 1), got {parity_band}")
    space = _strict_compare(quantum.memory_bytes, classical.memory_bytes)
    speed = _lower_is_better(quantum.runtime_s, classical.runtime_s, parity_band)
    energetic = _lower_is_better(quantum.energy_j, classical.energy_j, parity_band)
    cost = _lower_is_better(quantum.cost, classical.cost, parity_band)
    # higher-is-better is the mirrored comparison
    quality = _lower_is_better(classical.quality, quantum.quality, parity_band)

    notes: tuple[str, ...] = ()
    if space is _ADVANTAGE and energetic is _ADVANTAGE:
        notes = (
            "space and energetic advantage together: the reference classical "
            "machine cannot hold the full state, so the energy win may extend "
            "to any classical configuration of this class",
        )
    return tuple.__new__(AdvantageReport, (space, speed, quality, energetic, cost, notes))
