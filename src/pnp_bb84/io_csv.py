"""Bit-stable CSV emission for scan records.

Floats are serialized with 17 significant digits so recorded parameters
re-evaluate to the recorded rate exactly; identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from . import _kernels
from .params import Scenario
from .rates import budget_fields
from .scans import ScanRecord

# fixed, documented column orders (README: "CSV columns"); every file starts
# with the key columns, a scan file continues with the common ones
_KEY = ("scenario", "L_km", "n_pulses")
_COMMON = _KEY + ("rate", "no_key")

# the columns not read from the point, or its budget, by their own name
_DERIVED = {
    "rate": lambda r: r.rate,
    "no_key": lambda r: r.no_key,
    "mu": lambda r: r.mu,
    "mu_s": lambda r: r.mu,
    "mu_d": lambda r: r.mu_decoy,
    # the mean-photon file keeps its column for the no-decoy scenarios
    "mu_decoy": lambda r: math.nan if r.mu_decoy is None else r.mu_decoy,
    # the asymptotic protocol fixes p_s, the finite one optimizes it
    "p_s": lambda r: (r.point.p_s if r.scenario.finite
                      else _kernels.ASYMPTOTIC_P_S),
    "r_sample": lambda r: r.sample_fraction,
    "n_raw": lambda r: r.breakdown.n_raw,
    "key_length": lambda r: r.key_length,
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


def _value(record: ScanRecord, column: str) -> float:
    derived = _DERIVED.get(column)
    if derived is not None:
        return derived(record)
    if column.startswith("eps_"):
        return getattr(record.point.budget, column)
    return getattr(record.point, column)


def _write_table(path, records: Iterable[ScanRecord],
                 columns: Sequence[str]) -> None:
    """The key columns and ``columns`` of every record, one row each."""
    lines = [",".join(_KEY + tuple(columns))]
    for r in records:
        lines.append(",".join(
            [r.scenario.value, fmt(r.distance_km), fmt(r.n_pulses)]
            + [fmt(_value(r, column)) for column in columns]))
    _dump(path, lines)


def write_records(path, records: Sequence[ScanRecord]) -> None:
    """One file per scenario column contract; all records must share it.

    A file mixing scenarios (the figure rate files, which mix a finite and
    an asymptotic key) carries the common columns only.
    """
    if not records:
        raise ValueError("no records to write")
    if len({r.scenario for r in records}) > 1:
        columns = _COMMON
    else:
        columns = columns_for(records[0].scenario)
    _write_table(path, records, columns[len(_KEY):])


def write_sampling_fractions(path, records: Iterable[ScanRecord]) -> None:
    _write_table(path, [r for r in records if r.sample_fraction is not None],
                 ("r_sample",))


def write_mean_photon(path, records: Iterable[ScanRecord]) -> None:
    _write_table(path, records, ("mu", "mu_decoy"))


def write_class_probabilities(path, records: Iterable[ScanRecord]) -> None:
    _write_table(path, [r for r in records if r.point.p_s is not None],
                 ("p_s", "p_d", "p_v"))


def write_lmax_rows(path, rows: Iterable[tuple], threshold: float) -> None:
    lines = ["scenario,n_pulses,log10_n_pulses,threshold,lmax_km"]
    for scenario, na, lmax in rows:
        log_na = math.log10(na) if math.isfinite(na) else math.inf
        lines.append(",".join([scenario.value, fmt(na), fmt(log_na),
                               fmt(threshold), fmt(lmax)]))
    _dump(path, lines)


def write_nath_row(path, scenario: Scenario, threshold: float,
                   na_threshold: float) -> None:
    _dump(path, ["scenario,threshold,na_threshold", ",".join(
        [scenario.value, fmt(threshold), fmt(na_threshold)])])


def _dump(path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
