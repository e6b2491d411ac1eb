"""Run-level measurements: lap numbers, sign changes, norms, CSV time series.

The lap number of a sampled profile counts strict direction reversals of the
piecewise-linear interpolant: 0 for monotone data, 1 for a single hump, 3 for
two full sine periods.  For the primitive of the perturbation it is
non-increasing along monotone parabolic evolutions, which makes it a cheap
structural check that the scheme has not manufactured oscillations, and it
feeds the bound |u - bg|_L1 <= 2 (m + 1) sup|V|.  Floating-point plateaus
would register as reversals under exact comparison, so the walk only commits
to a new direction once the data has moved by a hysteresis threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = [
    "DiagnosticsSeries",
    "lap_number",
    "sign_changes",
    "weighted_energy",
]


def _as_samples(samples) -> np.ndarray:
    v = np.asarray(samples, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected 1-d samples, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("samples must be finite")
    return v


def _hysteresis(v: np.ndarray) -> float:
    """The reversal threshold 10 eps |v|_inf."""
    return 10.0 * np.finfo(float).eps * float(np.abs(v).max())


def lap_number(samples) -> int:
    """Number of strict direction reversals of the sampled profile.

    Walk the samples tracking the running extremum since the last committed
    direction; a move of more than the hysteresis against the current
    direction commits a reversal.  Sub-threshold wiggles are collapsed into
    the surrounding run, so monotone-up-to-roundoff data counts as monotone.
    """
    v = _as_samples(samples)
    if v.size < 3:
        return 0
    gap = _hysteresis(v)

    direction = 0  # +1 rising, -1 falling, 0 undecided
    anchor = v[0]  # running extremum in the current direction
    reversals = 0
    for value in v[1:]:
        if direction == 0:
            if value > anchor + gap:
                direction = 1
                anchor = value
            elif value < anchor - gap:
                direction = -1
                anchor = value
        elif direction == 1:
            if value > anchor:
                anchor = value
            elif value < anchor - gap:
                reversals += 1
                direction = -1
                anchor = value
        else:
            if value < anchor:
                anchor = value
            elif value > anchor + gap:
                reversals += 1
                direction = 1
                anchor = value
    return reversals


def sign_changes(samples) -> int:
    """Transitions between values above and below the hysteresis dead band."""
    v = _as_samples(samples)
    if v.size < 1:
        raise ValueError("sign_changes needs at least one sample")
    band = _hysteresis(v)
    signs = np.sign(v) * (np.abs(v) > band)
    live = signs[signs != 0]
    if live.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(live) != 0))


def weighted_energy(weight: np.ndarray, values: np.ndarray, h: float) -> float:
    """h sum_i weight_i values_i^2 with a strictly positive weight."""
    values = np.asarray(values, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if values.shape != weight.shape:
        raise ValueError(
            f"shape mismatch: weight {weight.shape} vs values {values.shape}"
        )
    if not np.all(weight > 0):
        raise ValueError("weight must be strictly positive everywhere")
    return float(h * np.sum(weight * values**2))


_COLUMNS = (
    "t",
    "l1_dist",
    "l2_dist",
    "linf_V",
    "l2_V",
    "weighted_energy",
    "total_eta",
    "dissipation",
    "l1_pi",
    "nash_ratio",
    "lap_number",
    "sign_changes",
    "mass_offset",
)

_INTEGER_COLUMNS = ("lap_number", "sign_changes")


def _format_value(name: str, value: float) -> str:
    if name in _INTEGER_COLUMNS and np.isfinite(value):
        return repr(int(value))
    return repr(value)


@dataclass
class DiagnosticsSeries:
    """Fixed-schema time series written to / read from CSV byte-for-byte.

    Columns a run does not populate are stored as NaN; values serialize via
    repr() (shortest round-trip form), so write/read/write reproduces the
    file exactly.
    """

    rows: List[Dict[str, float]] = field(default_factory=list)

    columns = _COLUMNS

    def append(self, t: float, values: Dict[str, float]) -> None:
        unknown = set(values) - set(_COLUMNS)
        if unknown:
            raise KeyError(f"unknown diagnostic columns: {sorted(unknown)}")
        t = float(t)
        if self.rows and t <= self.rows[-1]["t"]:
            raise ValueError(
                f"snapshot times must increase: got {t} after {self.rows[-1]['t']}"
            )
        row = {name: float("nan") for name in _COLUMNS}
        row["t"] = t
        for key, val in values.items():
            row[key] = float(val)
        self.rows.append(row)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise KeyError(f"unknown diagnostic column: {name}")
        return np.array([row[name] for row in self.rows], dtype=float)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, path) -> None:
        lines = [",".join(_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_format_value(name, row[name]) for name in _COLUMNS))
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "DiagnosticsSeries":
        with open(path, "r", newline="") as handle:
            lines = [line for line in handle.read().split("\n") if line]
        if not lines or tuple(lines[0].split(",")) != _COLUMNS:
            raise ValueError(f"{path} does not look like a diagnostics series")
        series = cls()
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != len(_COLUMNS):
                raise ValueError(f"malformed diagnostics row: {line!r}")
            series.rows.append(
                {name: float(part) for name, part in zip(_COLUMNS, parts)}
            )
        return series
