"""Lap counting, sign changes, the L1 bound, and the diagnostics CSV schema.

The lap counter is checked against a brute-force reversal count on random
walks before any structured cases rely on it.
"""

import numpy as np
import pytest

from convstab import (
    DiagnosticsSeries,
    lap_number,
    primitive,
    sign_changes,
    weighted_energy,
)


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
    assert len(series) == 2
    assert np.array_equal(series.times, [0.0, 1.0])
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
    series = DiagnosticsSeries()
    series.append(0.0, {"l1_dist": 1 / 3, "lap_number": 2, "sign_changes": 5,
                        "nash_ratio": float("inf"), "mass_offset": -1e-17})
    series.append(0.5, {"l1_dist": 0.1234567890123456789, "total_eta": 2e-300})
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    series.to_csv(first)
    back = DiagnosticsSeries.from_csv(first)
    back.to_csv(second)
    assert first.read_bytes() == second.read_bytes(), "write/read/write must reproduce bytes"
    assert np.array_equal(back.column("l1_dist"), series.column("l1_dist"))
    assert back.column("nash_ratio")[0] == float("inf")
    assert np.isnan(back.column("l2_dist")).all()


def test_csv_serializes_count_columns_as_integers(tmp_path):
    series = DiagnosticsSeries()
    series.append(0.0, {"lap_number": 4, "sign_changes": 2})
    path = tmp_path / "counts.csv"
    series.to_csv(path)
    row = path.read_text().splitlines()[1].split(",")
    by_name = dict(zip(EXPECTED_COLUMNS, row))
    assert by_name["lap_number"] == "4"
    assert by_name["sign_changes"] == "2"


def test_from_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "junk.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        DiagnosticsSeries.from_csv(bad)
    truncated = tmp_path / "short.csv"
    truncated.write_text(",".join(EXPECTED_COLUMNS) + "\n1.0,2.0\n")
    with pytest.raises(ValueError):
        DiagnosticsSeries.from_csv(truncated)
