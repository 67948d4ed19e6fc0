import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_gonogo.advantage import (
    AXES,
    AdvantageReport,
    Outcome,
    SolutionProfile,
    classify,
    parse_classical_profile,
    quantum_profile,
)
from nisq_gonogo.catalog import bundled_catalog
from nisq_gonogo.feasibility import statevector_memory


def test_profile_validation():
    with pytest.raises(ValueError):
        SolutionProfile(runtime_s=0.0)
    with pytest.raises(ValueError):
        SolutionProfile(runtime_s=1.0, energy_j=-1.0)
    for bad in (float("nan"), float("-inf"), -1.0):
        with pytest.raises(ValueError):
            SolutionProfile(runtime_s=bad)
        with pytest.raises(ValueError):
            SolutionProfile(runtime_s=1.0, energy_j=bad)
        with pytest.raises(ValueError, match=f"^memory_bytes must be >= 0, got {bad}$"):
            SolutionProfile(runtime_s=1.0, memory_bytes=bad)
    for name in ("cost", "quality"):
        with pytest.raises(ValueError):
            SolutionProfile(runtime_s=1.0, **{name: float("inf")})
    # an unbounded quantum budget: runtime and energy may be inf
    assert SolutionProfile(runtime_s=float("inf"), energy_j=float("inf")).runtime_s == float("inf")


def test_quantum_profile_of_a_huge_register_holds_no_huge_int():
    tracemalloc.start()
    try:
        profile = quantum_profile(1.0, qubits=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert profile.memory_bytes == math.inf
    assert classify(profile, SolutionProfile(runtime_s=1.0, memory_bytes=10**400)).space is Outcome.ADVANTAGE


def test_quantum_profile_uses_statevector_footprint():
    profile = quantum_profile(10.0, qubits=50)
    assert profile.memory_bytes == statevector_memory(50) == 2**54


def test_space_advantage_beyond_classical_memory():
    quantum = quantum_profile(10.0, qubits=50)
    classical = SolutionProfile(runtime_s=10.0, memory_bytes=10**12)  # 1 TB
    assert classify(quantum, classical).space is Outcome.ADVANTAGE


def test_space_disadvantage_for_small_registers():
    quantum = quantum_profile(10.0, qubits=20)  # 16 MiB state space
    classical = SolutionProfile(runtime_s=10.0, memory_bytes=8 * 10**9)  # 8 GB
    assert classify(quantum, classical).space is Outcome.DISADVANTAGE


def test_identical_profiles_are_parity_everywhere():
    profile = SolutionProfile(runtime_s=5.0, energy_j=2.0, cost=1.0, quality=0.9, memory_bytes=1024)
    report = classify(profile, profile)
    assert all(outcome is Outcome.PARITY for outcome in report.axes().values())


def test_absent_inputs_are_not_evaluated():
    quantum = SolutionProfile(runtime_s=10.0)
    classical = SolutionProfile(runtime_s=1.0)
    report = classify(quantum, classical)
    assert report.speed is Outcome.DISADVANTAGE
    assert report.space is Outcome.NOT_EVALUATED
    assert report.energetic is Outcome.NOT_EVALUATED
    assert report.cost is Outcome.NOT_EVALUATED
    assert report.quality is Outcome.NOT_EVALUATED


def test_tenfold_energy_ratio_is_an_advantage():
    quantum = SolutionProfile(runtime_s=100.0, energy_j=3_000.0 * 100.0)
    classical = SolutionProfile(runtime_s=100.0, energy_j=30_000.0 * 100.0)
    report = classify(quantum, classical)
    assert report.energetic is Outcome.ADVANTAGE
    assert report.speed is Outcome.PARITY


def test_quality_is_higher_better():
    better = SolutionProfile(runtime_s=1.0, quality=0.99)
    worse = SolutionProfile(runtime_s=1.0, quality=0.50)
    assert classify(better, worse).quality is Outcome.ADVANTAGE
    assert classify(worse, better).quality is Outcome.DISADVANTAGE


def test_differences_inside_band_are_parity():
    a = SolutionProfile(runtime_s=100.0)
    b = SolutionProfile(runtime_s=103.0)  # 3% apart, inside the 5% band
    assert classify(a, b).speed is Outcome.PARITY
    assert classify(a, b, parity_band=0.01).speed is Outcome.ADVANTAGE


def test_the_parity_band_lies_in_zero_to_one():
    same = SolutionProfile(runtime_s=1.0)
    for band in (0.0, math.nextafter(1.0, 0.0)):
        assert classify(same, same, parity_band=band).speed is Outcome.PARITY
    for band in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="^" + re.escape(f"parity_band must be in [0, 1), got {band}") + "$"):
            classify(same, same, parity_band=band)


def test_supremacy_note_when_space_and_energy_co_occur():
    quantum = quantum_profile(10.0, qubits=60, energy_j=1.0)
    classical = SolutionProfile(runtime_s=10.0, energy_j=100.0, memory_bytes=10**12)
    report = classify(quantum, classical)
    assert report.space is Outcome.ADVANTAGE and report.energetic is Outcome.ADVANTAGE
    assert report.notes


_values = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
_optional = st.one_of(st.none(), _values)


@st.composite
def profiles(draw):
    return SolutionProfile(
        runtime_s=draw(_values),
        energy_j=draw(st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1e9, allow_nan=False))),
        cost=draw(_optional),
        quality=draw(_optional),
        memory_bytes=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**80))),
    )


_FLIP = {
    Outcome.ADVANTAGE: Outcome.DISADVANTAGE,
    Outcome.DISADVANTAGE: Outcome.ADVANTAGE,
    Outcome.PARITY: Outcome.PARITY,
    Outcome.NOT_EVALUATED: Outcome.NOT_EVALUATED,
}


def _off_band_edge(x: float | None, y: float | None, band: float = 0.05) -> bool:
    """True when the pair is not within float noise of a band boundary."""
    if x is None or y is None:
        return True
    return (
        abs(x - (1.0 - band) * y) > 1e-9 * max(x, y)
        and abs(y - (1.0 - band) * x) > 1e-9 * max(x, y)
    )


_RATIO_INPUTS = ("runtime_s", "energy_j", "cost", "quality")


def _scaled(p: SolutionProfile, k: float) -> SolutionProfile:
    """``p`` with its ratio inputs times ``k``; memory stays in integer bytes."""
    return SolutionProfile(
        runtime_s=p.runtime_s * k,
        energy_j=None if p.energy_j is None else p.energy_j * k,
        cost=None if p.cost is None else p.cost * k,
        quality=None if p.quality is None else p.quality * k,
        memory_bytes=p.memory_bytes,
    )


@settings(max_examples=300, deadline=None)
@given(profiles(), profiles())
def test_antisymmetry(a, b):
    forward = classify(a, b)
    backward = classify(b, a)
    for axis in AXES:
        assert getattr(backward, axis) is _FLIP[getattr(forward, axis)], axis


@settings(max_examples=300, deadline=None)
@given(profiles(), profiles(), st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_scale_invariance(a, b, k):
    # A pair sitting exactly on a band edge may legitimately move by one ulp when
    # rescaled; scale invariance concerns everything else.  A plain test, not
    # assume, so that a fixed draw can run this body outside Hypothesis.
    if not all(_off_band_edge(getattr(a, name), getattr(b, name)) for name in _RATIO_INPUTS):
        return
    base = classify(a, b)
    rescaled = classify(_scaled(a, k), _scaled(b, k))
    # memory is left unscaled (integer bytes); the ratio axes must not move
    for axis in ("speed", "quality", "energetic", "cost"):
        assert getattr(rescaled, axis) is getattr(base, axis), axis


def test_a_classical_profile_takes_absent_energy_and_memory_from_its_reference():
    catalog = bundled_catalog()
    ref = catalog.get_classical_ref("nvidia-dgx-rack")
    profile, notes = parse_classical_profile('{"runtime_s": 100, "classical_ref": "nvidia-dgx-rack"}', catalog)
    assert profile == SolutionProfile(100, ref.power_draw * 100, None, None, ref.memory_capacity)
    assert notes == [
        "classical energy derived from 'nvidia-dgx-rack' power draw x runtime",
        "classical memory capacity taken from 'nvidia-dgx-rack'",
    ]
    document = '{"runtime_s": 2, "energy_j": 3, "memory_bytes": 4.0, "cost": 5, "quality": 0.5, "classical_ref": "nvidia-dgx-rack"}'
    assert parse_classical_profile(document, catalog) == (SolutionProfile(2, 3, 5, 0.5, 4), [])
