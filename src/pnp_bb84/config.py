"""Flat key-value run configuration: the experiment record for a CLI run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Optional

from .numerics import check_integer, check_range
from .params import BoundConventions, PhysicalParams, Scenario


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


_PHYS_KEYS = tuple(f.name for f in fields(PhysicalParams))
_CONVENTION_KEYS = tuple(f.name for f in fields(BoundConventions))
_RUN_FLOAT_KEYS = ("lmin_km", "lmax_km", "lstep_km", "threshold")
# at 0.05 s or more per solve, a grid this long already takes over 14 h
_MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs; unspecified fields keep library defaults."""

    phys: PhysicalParams = field(default_factory=PhysicalParams)
    conventions: BoundConventions = field(default_factory=BoundConventions)
    scenario: Optional[Scenario] = None
    na_list: tuple[float, ...] = ()
    lmin_km: float = 0.0
    lmax_km: float = 130.0
    lstep_km: float = 2.0
    threshold: float = 1e-9
    seed: int = 0  # no effect; kept because perfbench/workloads.py passes it
    out_dir: str = "."

    def __post_init__(self) -> None:
        try:
            for name in ("lmin_km", "lmax_km", "threshold"):
                check_range(name, getattr(self, name), 0.0, math.inf,
                            hi_open=True)
            check_range("lstep_km", self.lstep_km, 0.0, math.inf, True, True)
            for value in self.na_list:
                check_range("na", value, 0.0, math.inf, lo_open=True)
            check_integer("seed", self.seed, 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def l_grid(self) -> list[float]:
        if self.lmax_km < self.lmin_km:
            raise ConfigError("lmax_km must be at least lmin_km")
        steps = (self.lmax_km - self.lmin_km) / self.lstep_km + 1e-9
        # counted before the list is built: a huge grid would exhaust memory
        if not steps < _MAX_GRID_POINTS:
            raise ConfigError(f"the distance grid has more than "
                              f"{_MAX_GRID_POINTS} points; raise lstep_km or "
                              f"narrow the range")
        n = int(math.floor(steps))
        return [self.lmin_km + i * self.lstep_km for i in range(n + 1)]


def _parse_float(key: str, text: str, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key}: malformed number {text!r}")


def parse_na_list(text: str) -> tuple[float, ...]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("inf", "infinite"):
            values.append(math.inf)
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise ConfigError(f"na: malformed number {token!r}")
    return tuple(values)


def config_entries(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, lower-case key, value) of each ``key = value`` line."""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got "
                              f"{raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {line_no}: {key}: empty value")
        yield line_no, key, value


def parse_config(text: str) -> RunConfig:
    """Parse a flat ``key = value`` document into a RunConfig.

    Lines may carry ``#`` comments; unknown keys are rejected with their line
    number, and every physical constraint is enforced at parse time.
    """
    phys_kw: dict[str, float] = {}
    conv_kw: dict[str, str] = {}
    run_kw: dict[str, object] = {}
    for line_no, key, value in config_entries(text):
        if key in _PHYS_KEYS:
            phys_kw[key] = _parse_float(key, value, line_no)
        elif key in _CONVENTION_KEYS:
            conv_kw[key] = value
        elif key in _RUN_FLOAT_KEYS:
            run_kw[key] = _parse_float(key, value, line_no)
        elif key == "scenario":
            try:
                run_kw["scenario"] = Scenario(value)
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: unknown scenario {value!r}; expected one "
                    f"of {[s.value for s in Scenario]}")
        elif key == "na":
            run_kw["na_list"] = parse_na_list(value)
        elif key == "seed":  # no effect; perfbench/workloads.py passes it
            try:
                run_kw["seed"] = int(value)
            except ValueError:
                raise ConfigError(f"line {line_no}: seed: malformed integer "
                                  f"{value!r}")
        elif key == "out_dir":
            run_kw["out_dir"] = value
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    try:
        phys = PhysicalParams(**phys_kw)
        conventions = BoundConventions(**conv_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(phys=phys, conventions=conventions, **run_kw)


def serialize_config(config: RunConfig) -> str:
    """Emit a document that parses back to the same configuration."""
    lines = []
    for key in _PHYS_KEYS:
        lines.append(f"{key} = {getattr(config.phys, key):.17g}")
    for key in _CONVENTION_KEYS:
        lines.append(f"{key} = {getattr(config.conventions, key)}")
    if config.scenario is not None:
        lines.append(f"scenario = {config.scenario.value}")
    if config.na_list:
        tokens = ("inf" if math.isinf(v) else f"{v:.17g}" for v in config.na_list)
        lines.append(f"na = {','.join(tokens)}")
    for key in _RUN_FLOAT_KEYS:
        lines.append(f"{key} = {getattr(config, key):.17g}")
    lines.append(f"seed = {config.seed}")
    lines.append(f"out_dir = {config.out_dir}")
    return "\n".join(lines) + "\n"


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Overlay non-None CLI flag values onto a parsed configuration."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **updates)
