"""Lap counting, sign changes, the L1 bound, and the diagnostics CSV schema.

The lap counter is checked against a brute-force reversal count on random
walks before any structured cases rely on it, and against the walk over
every sample (``oracles.hysteresis_walk``) on inputs built to sit at its
edges: plateaus, ties, jitter at the threshold and tiny scales.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstab import (
    DiagnosticsSeries,
    lap_number,
    primitive,
    sign_changes,
    weighted_energy,
)
from oracles import hysteresis_walk


def brute_force_laps(samples):
    """Count strict direction reversals of the sample sequence."""
    diffs = np.diff(np.asarray(samples, float))
    signs = np.sign(diffs[diffs != 0.0])
    if signs.size == 0:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# lap numbers


def test_lap_number_matches_brute_force_on_random_walks():
    rng = np.random.default_rng(17)
    for trial in range(10):
        walk = np.cumsum(rng.standard_normal(rng.integers(5, 60)))
        expected = brute_force_laps(walk)
        got = lap_number(walk)
        assert got == expected, f"trial {trial}: lap {got} vs brute force {expected}"


def test_lap_number_structured_cases():
    assert lap_number(np.zeros(16)) == 0
    assert lap_number(np.linspace(0, 1, 16)) == 0
    x = np.linspace(np.pi / 2, np.pi / 2 + 4 * np.pi, 400)
    assert lap_number(np.sin(x)) == 3, "two full periods peak to peak have four laps"
    bump = np.exp(-np.linspace(-3, 3, 101) ** 2)
    assert lap_number(bump) == 1
    assert lap_number(np.array([1.0, -1.0, 1.0])) == 1, "down run + up run = one reversal"


def test_lap_number_hysteresis_ignores_jitter():
    # a plateau with up to 3 ulps of noise: exact comparison sees reversals,
    # the 10 eps |v|_inf threshold sees none
    rng = np.random.default_rng(2)
    plateau = 1.0 + np.finfo(float).eps * rng.integers(0, 4, 200)
    assert brute_force_laps(plateau) > 0
    assert lap_number(plateau) == 0


STEPS = st.lists(st.floats(-1.0, 1.0), max_size=120)
EPS = np.finfo(float).eps


def noisy_sinusoid(n, periods, phase, seed):
    x = np.linspace(0.0, 2 * np.pi * periods, n) + phase
    return np.sin(x) + 1e-15 * np.random.default_rng(seed).standard_normal(n)


def threshold_jitter(base, moves, near_zero):
    # moves of 0, 1/2, 1 and 3/2 gaps, the gap being 10 eps |base|, each off by
    # up to two parts in 2**50 to land just inside or outside the threshold;
    # about base itself, or about zero after a first sample that sets |v|_inf
    halves, nudges = np.array(moves, dtype=float).reshape(-1, 2).T
    jitter = halves * (5 * EPS * abs(base)) * (1 + nudges * 2.0**-50)
    return np.concatenate([[base], jitter]) if near_zero else base + jitter


LAP_CASES = {
    "random_walk": STEPS.map(np.cumsum),
    "rounded_walk": STEPS.map(lambda steps: np.round(np.cumsum(steps), 1)),
    "integer_steps": st.lists(st.integers(-2, 2), max_size=120).map(
        lambda steps: np.cumsum(steps).astype(float)),
    "noisy_sinusoid": st.builds(noisy_sinusoid, st.integers(3, 400), st.floats(0.25, 6.0),
                                st.floats(0.0, 6.3), st.integers(0, 2**32 - 1)),
    "threshold_jitter": st.builds(
        threshold_jitter, st.sampled_from([1.0, 3.0, -2.0, 1e-8]),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=60),
        st.booleans()),
    "tiny_scale": STEPS.map(lambda steps: 1e-300 * np.cumsum(steps)),
    # anchor + gap overflows next to the largest double, where the oracle's
    # numpy scalars warn and Python floats do not
    "short": st.lists(st.floats(-1e300, 1e300), max_size=3).map(np.array),
}


def with_end_plateaus(values, head, tail):
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return v
    return np.concatenate([np.full(head, v[0]), v, np.full(tail, v[-1])])


@pytest.mark.parametrize("kind", sorted(LAP_CASES))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_lap_number_equals_the_walk_over_every_sample(kind, data):
    v = with_end_plateaus(data.draw(LAP_CASES[kind]), data.draw(st.integers(0, 4)),
                          data.draw(st.integers(0, 4)))
    assert lap_number(v) == hysteresis_walk(v)


def test_lap_number_commits_only_beyond_the_gap():
    # |v|_inf = 1 makes the gap 10 eps exactly; from the anchor 0 a rise of
    # exactly the gap commits nothing, one of the gap times 1 + 2**-50 does
    gap = 10 * EPS
    for rise, laps in ((gap, 0), (gap * (1 + 2.0**-50), 1)):
        for v in ([1.0, 0.0, rise], [1.0, 0.0, 0.0, rise / 2, rise, rise]):
            assert lap_number(np.array(v)) == hysteresis_walk(v) == laps


def test_lap_number_on_the_smallest_inputs():
    for n in range(4):
        for values in (np.arange(n, dtype=float), np.zeros(n), (-1.0) ** np.arange(n)):
            assert lap_number(values) == hysteresis_walk(values)
    assert lap_number(np.array([1.0, -1.0, 1.0])) == 1
    assert lap_number(np.array([1.0, -1.0])) == 0


def test_lap_number_rejects_non_finite_samples():
    with pytest.raises(ValueError):
        lap_number(np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# sign changes


def test_sign_changes_cases():
    assert sign_changes(np.array([1.0, -1.0, 1.0])) == 2
    assert sign_changes(np.array([1.0, 0.0, -1.0])) == 1, "zeros must not count as crossings"
    assert sign_changes(np.zeros(8)) == 0
    assert sign_changes(np.array([-2.0, -1.0, -3.0])) == 0
    assert sign_changes(np.array([0.5])) == 0


def test_sign_changes_empty_raises():
    with pytest.raises(ValueError):
        sign_changes(np.array([]))


# ---------------------------------------------------------------------------
# energies and the L1 bound


def test_weighted_energy_formula_and_validation():
    w = np.array([1.0, 2.0, 0.5])
    v = np.array([1.0, -1.0, 2.0])
    assert weighted_energy(w, v, 0.1) == pytest.approx(0.1 * (1 + 2 + 2), rel=1e-14)
    with pytest.raises(ValueError):
        weighted_energy(np.array([1.0, -1.0, 0.5]), v, 0.1)
    with pytest.raises(ValueError):
        weighted_energy(w[:2], v, 0.1)


def test_l1_bound_holds_for_a_dipole():
    h = 1 / 64
    x = (np.arange(256) + 0.5) * h
    u = np.exp(-((x - 1.0) ** 2) / 0.05) - np.exp(-((x - 3.0) ** 2) / 0.05)
    u -= u.mean()
    V = primitive(u, h)
    l1 = h * np.abs(u).sum()
    bound = 2 * (lap_number(V) + 1) * np.abs(V).max()
    assert l1 <= bound + 1e-9, f"L1 {l1:.4f} vs bound {bound:.4f}"


# ---------------------------------------------------------------------------
# the diagnostics series and its CSV round trip


EXPECTED_COLUMNS = (
    "t", "l1_dist", "l2_dist", "linf_V", "l2_V", "weighted_energy",
    "total_eta", "dissipation", "l1_pi", "nash_ratio", "lap_number",
    "sign_changes", "mass_offset",
)


def test_column_schema_is_the_documented_contract():
    assert DiagnosticsSeries.columns == EXPECTED_COLUMNS


def test_series_append_and_column_access():
    series = DiagnosticsSeries()
    series.append(0.0, {"l1_dist": 0.5, "lap_number": 3})
    series.append(1.0, {"l1_dist": 0.25})
    assert len(series.rows) == 2
    assert np.array_equal(series.column("t"), [0.0, 1.0])
    assert np.array_equal(series.column("l1_dist"), [0.5, 0.25])
    assert series.column("lap_number")[0] == 3
    assert np.isnan(series.column("lap_number")[1]), "unset columns must be NaN"


def test_series_rejects_unknown_columns_and_time_reversal():
    series = DiagnosticsSeries()
    series.append(0.0, {})
    with pytest.raises(KeyError):
        series.append(1.0, {"entropy": 1.0})
    with pytest.raises(ValueError):
        series.append(0.0, {})
    with pytest.raises(KeyError):
        series.column("entropy")


def test_csv_round_trip_is_byte_identical(tmp_path):
    # every cell parses back to the double it was written from, bit for bit
    series = DiagnosticsSeries()
    series.append(0.0, {"l1_dist": 1 / 3, "lap_number": 2, "sign_changes": 5,
                        "nash_ratio": float("inf"), "mass_offset": -1e-17})
    series.append(0.5, {"l1_dist": 0.1234567890123456789, "total_eta": 2e-300})
    path = tmp_path / "a.csv"
    series.to_csv(path)
    text = path.read_text()
    assert text.endswith("\n")
    header, *lines = text[:-1].split("\n")
    assert tuple(header.split(",")) == EXPECTED_COLUMNS
    assert len(lines) == len(series.rows)
    for line, row in zip(lines, series.rows):
        cells = line.split(",")
        assert len(cells) == len(EXPECTED_COLUMNS), line
        for name, cell in zip(EXPECTED_COLUMNS, cells):
            if np.isnan(row[name]):
                assert cell == "nan", (name, cell)
            else:
                assert np.float64(cell).tobytes() == np.float64(row[name]).tobytes(), (name, cell)
    assert lines[0].split(",")[EXPECTED_COLUMNS.index("nash_ratio")] == "inf"
    assert lines[1].split(",")[EXPECTED_COLUMNS.index("l2_dist")] == "nan"


def test_csv_serializes_count_columns_as_integers(tmp_path):
    series = DiagnosticsSeries()
    series.append(0.0, {"lap_number": 4, "sign_changes": 2})
    path = tmp_path / "counts.csv"
    series.to_csv(path)
    row = path.read_text().splitlines()[1].split(",")
    by_name = dict(zip(EXPECTED_COLUMNS, row))
    assert by_name["lap_number"] == "4"
    assert by_name["sign_changes"] == "2"
