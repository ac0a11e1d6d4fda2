"""Flat key-value run configuration: the experiment record for a CLI run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

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
    """Everything a CLI run needs.  A run key left None was set by no flag
    or config line; the command that reads it supplies the default."""

    phys: PhysicalParams = field(default_factory=PhysicalParams)
    conventions: BoundConventions = field(default_factory=BoundConventions)
    scenario: Optional[Scenario] = None
    na_list: Optional[tuple[float, ...]] = None
    lmin_km: Optional[float] = None
    lmax_km: Optional[float] = None
    lstep_km: Optional[float] = None
    threshold: Optional[float] = None
    seed: int = 0  # no effect; kept because perfbench/workloads.py passes it
    out_dir: str = "."

    def __post_init__(self) -> None:
        try:
            for name in _RUN_FLOAT_KEYS:
                if getattr(self, name) is not None:
                    check_range(name, getattr(self, name), 0.0, math.inf,
                                lo_open=name == "lstep_km", hi_open=True)
            if self.na_list == ():
                raise ValueError("na: no pulse count given")
            for value in self.na_list or ():
                check_range("na", value, 1.0, math.inf)
            check_integer("seed", self.seed, 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def run_keys(self) -> list[str]:
        """The run keys that a flag or config line set."""
        values = {"scenario": self.scenario, "na": self.na_list,
                  **{key: getattr(self, key) for key in _RUN_FLOAT_KEYS}}
        return [key for key, value in values.items() if value is not None]

    def l_grid(self) -> list[float]:
        # an unset end or step takes the default: 0-130 km in 2-km steps
        lmin, lmax, lstep = (default if value is None else value
                             for value, default in ((self.lmin_km, 0.0),
                                                    (self.lmax_km, 130.0),
                                                    (self.lstep_km, 2.0)))
        if lmax < lmin:
            raise ConfigError("lmax_km must be at least lmin_km")
        steps = (lmax - lmin) / lstep + 1e-9
        # counted before the list is built: a huge grid would exhaust memory
        if not steps < _MAX_GRID_POINTS:
            raise ConfigError(f"the distance grid has more than "
                              f"{_MAX_GRID_POINTS} points; raise lstep_km or "
                              f"narrow the range")
        n = int(math.floor(steps))
        return [lmin + i * lstep for i in range(n + 1)]


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


def parse_config(text: str) -> RunConfig:
    """Parse a flat ``key = value`` document into a RunConfig.

    Lines may carry ``#`` comments; unknown keys are rejected with their line
    number, and every physical constraint is enforced at parse time.
    """
    phys_kw: dict[str, float] = {}
    conv_kw: dict[str, str] = {}
    run_kw: dict[str, object] = {}
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
    """Emit a document that parses back to the same configuration; an
    ``out_dir`` that no config line holds (empty, or with a ``#``, a line
    break or surrounding whitespace) raises ConfigError."""
    out_dir = config.out_dir
    if "#" in out_dir or out_dir.strip().splitlines() != [out_dir]:
        raise ConfigError(f"out_dir {out_dir!r} does not fit on a config "
                          f"line, which holds no empty value, '#', line "
                          f"break or surrounding whitespace")
    lines = []
    for key in _PHYS_KEYS:
        lines.append(f"{key} = {getattr(config.phys, key):.17g}")
    for key in _CONVENTION_KEYS:
        lines.append(f"{key} = {getattr(config.conventions, key)}")
    if config.scenario is not None:
        lines.append(f"scenario = {config.scenario.value}")
    if config.na_list is not None:
        tokens = ("inf" if math.isinf(v) else f"{v:.17g}" for v in config.na_list)
        lines.append(f"na = {','.join(tokens)}")
    lines += [f"{key} = {getattr(config, key):.17g}" for key in _RUN_FLOAT_KEYS
              if getattr(config, key) is not None]
    lines.append(f"seed = {config.seed}")
    lines.append(f"out_dir = {out_dir}")
    return "\n".join(lines) + "\n"
