"""Every output file: its name and its bit-stable CSV layout.

`write_scan`, `write_lmax` and `write_nath` write
``scan_<scenario>_<tag>.csv``, ``lmax_<scenario>.csv`` and
``nath_<scenario>.csv`` into a directory and return the path; the `scan`,
`lmax` and `nath` commands write through them, and each figure runs those
commands.  A scan's tag reads back as its pulse count (`scan_tag`), so two
scans share a file name only when they share the pulse count, which
`check_scan_names` refuses.  Floats are serialized with 17 significant
digits so recorded parameters re-evaluate to the recorded rate exactly;
identical inputs produce byte-identical files.  A scan row is one
`OptimizationResult`, as `scans.scan_distance` returns them: its key
columns come from the best point.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from . import _kernels
from .optimize import OptimizationResult
from .params import Scenario
from .rates import budget_fields

# fixed, documented column orders (README: "CSV columns"); every scan file
# starts with the common columns, the key columns first
_KEY = ("scenario", "L_km", "n_pulses")
_COMMON = _KEY + ("rate", "no_key")

# the columns not read from the best point, or its budget, by their own name
_DERIVED = {
    "rate": lambda r: r.best_rate,
    "no_key": lambda r: r.best_rate <= 0.0,
    "mu": lambda r: r.breakdown.mu,
    "mu_s": lambda r: r.breakdown.mu,
    "mu_d": lambda r: r.breakdown.mu_decoy,
    # the asymptotic protocol fixes p_s, the finite one optimizes it
    "p_s": lambda r: (r.best_point.p_s if r.best_point.scenario.finite
                      else _kernels.ASYMPTOTIC_P_S),
    # the sifted key's share sacrificed to error estimation
    "r_sample": lambda r: r.best_point.m_e / r.breakdown.sifted,
    "n_raw": lambda r: r.breakdown.n_raw,
    "key_length": lambda r: r.best_rate * r.best_point.n_pulses,
}


def fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.17g}"


def columns_for(scenario: Scenario) -> tuple[str, ...]:
    if scenario.uses_decoy:
        block = ("lam_s", "lam_d", "delta", "mu_s", "mu_d", "p_s")
        if scenario.finite:
            block += ("p_d", "p_v")
    else:
        block = ("lam", "delta", "mu")
    if scenario.finite:
        block += (("m_e", "r_sample") + budget_fields(scenario)
                  + ("n_raw", "key_length"))
    return _COMMON + block


def _value(record: OptimizationResult, column: str) -> float:
    derived = _DERIVED.get(column)
    if derived is not None:
        return derived(record)
    if column.startswith("eps_"):
        return getattr(record.best_point.budget, column)
    return getattr(record.best_point, column)


class ScanNameCollisionError(ValueError):
    """Two scans of one run would write the same file."""


def scan_tag(n_pulses: float) -> str:
    """``inf``, or the shortest ``5e10``-style tag that reads back as
    ``float(n_pulses)``, the value the file holds: ``5e10`` for 5e10,
    ``5.4e10`` for 5.4e10, ``1e17`` for the int 10**17 + 1."""
    n_pulses = float(n_pulses)
    if math.isinf(n_pulses):
        return "inf"
    digits = 0
    while float(tag := f"{n_pulses:.{digits}e}".replace("+", "")) != n_pulses:
        digits += 1
    return tag


def _scan_name(scenario: Scenario, n_pulses: float) -> str:
    return f"scan_{scenario.value}_{scan_tag(n_pulses)}.csv"


def check_scan_names(scenario: Scenario,
                     pulse_counts: Iterable[float]) -> None:
    """Raise `ScanNameCollisionError` if two of the scans would write one
    file, before any of them runs."""
    seen = set()
    for na in pulse_counts:
        name = _scan_name(scenario, na)
        if name in seen:
            raise ScanNameCollisionError(
                f"pulse count {scan_tag(na)} is given twice: both scans "
                f"would write {name}")
        seen.add(name)


def write_scan(out_dir, records: Sequence[OptimizationResult]) -> Path:
    """``scan_<scenario>_<tag>.csv``: one `scans.scan_distance` at one pulse
    count, tagged by `scan_tag`.  Each optimizer result is one row of the
    scenario's columns (`columns_for`), keyed by its best point; all share
    one scenario."""
    pulse_counts = {r.best_point.n_pulses for r in records}
    if len(pulse_counts) != 1:
        raise ValueError(f"a scan file holds one pulse count, got "
                         f"{sorted(pulse_counts)}")
    scenarios = {r.best_point.scenario.value for r in records}
    if len(scenarios) > 1:
        raise ValueError(f"a file holds one scenario, got {sorted(scenarios)}")
    scenario = records[0].best_point.scenario
    columns = columns_for(scenario)[len(_KEY):]
    lines = [",".join(_KEY + columns)]
    for r in records:
        p = r.best_point
        lines.append(",".join(
            [p.scenario.value, fmt(p.distance_km), fmt(p.n_pulses)]
            + [fmt(_value(r, column)) for column in columns]))
    path = Path(out_dir) / _scan_name(scenario, pulse_counts.pop())
    _dump(path, lines)
    return path


def write_lmax(out_dir, scenario: Scenario,
               rows: Iterable[tuple[float, float]], threshold: float) -> Path:
    """``lmax_<scenario>.csv``: one ``(n_pulses, lmax_km)`` row each."""
    lines = ["scenario,n_pulses,log10_n_pulses,threshold,lmax_km"]
    for na, lmax in rows:
        log_na = math.log10(na) if math.isfinite(na) else math.inf
        lines.append(",".join([scenario.value, fmt(na), fmt(log_na),
                               fmt(threshold), fmt(lmax)]))
    path = Path(out_dir) / f"lmax_{scenario.value}.csv"
    _dump(path, lines)
    return path


def write_nath(out_dir, scenario: Scenario, threshold: float,
               na_threshold: float) -> Path:
    """``nath_<scenario>.csv``: the pulse-count threshold."""
    path = Path(out_dir) / f"nath_{scenario.value}.csv"
    _dump(path, ["scenario,threshold,na_threshold", ",".join(
        [scenario.value, fmt(threshold), fmt(na_threshold)])])
    return path


def _dump(path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
