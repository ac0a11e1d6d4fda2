"""Command-line entry point: scan | lmax | nath | figure."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional

from . import io_csv, scans
from .config import ConfigError, RunConfig, parse_config, parse_na_list
from .optimize import InfeasibleProblemError
from .params import Scenario
from .scans import find_lmax, find_na_threshold, scan_distance


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 1, like
    every other bad input, instead of a usage block and exit code 2.  The
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ConfigError(message)


# every flag, with its add_argument keywords
_FLAGS = {
    "--config": dict(type=Path, help="key = value configuration file"),
    "--scenario": dict(type=str, choices=[s.value for s in Scenario]),
    "--na": dict(type=str, help="comma-separated pulse counts; 'inf' allowed"),
    "--lmin": dict(dest="lmin_km", type=float),
    "--lmax-km": dict(dest="lmax_km", type=float),
    "--lstep": dict(dest="lstep_km", type=float),
    "--threshold": dict(type=float),
    # no effect; kept because perfbench/workloads.py passes it
    "--seed": dict(type=int),
    "--out": dict(dest="out_dir", type=str),
}

_SCAN_FLAGS = ("--na", "--lmin", "--lmax-km", "--lstep")

# each subcommand's help and the flags it reads; any other flag is a usage
# error
_COMMANDS = {
    "scan": ("optimized rate over a distance grid",
             ("--scenario",) + _SCAN_FLAGS),
    "lmax": ("maximal secure distance", ("--scenario", "--na", "--threshold")),
    "nath": ("pulse-count threshold for a positive secure distance",
             ("--scenario", "--threshold")),
}


class _Figure(NamedTuple):
    """A summary figure: its ``command`` run once per scenario, in order."""

    help: str
    flags: tuple[str, ...]  # as under _COMMANDS
    command: str            # "scan" or "lmax"
    scenarios: tuple[Scenario, ...]
    pulse_counts: tuple[float, ...]  # the finite-key runs' default --na
    l_top: Optional[float] = None    # a scan figure's top if no grid key


_FIGURES = {
    "fig2": _Figure("no-decoy rate scans, finite and asymptotic key",
                    _SCAN_FLAGS, "scan",
                    (Scenario.NO_DECOY_FINITE, Scenario.NO_DECOY_INFINITE),
                    (5e10, 1e11, 1e12, 1e14), 44.0),
    "fig3": _Figure("maximal secure distance over the pulse count, all "
                    "scenarios", ("--na", "--threshold"), "lmax",
                    tuple(Scenario),
                    tuple(10.0 ** (8.0 + 0.25 * i) for i in range(33))),
    "fig5": _Figure("decoy rate scans, finite and asymptotic key",
                    _SCAN_FLAGS, "scan",
                    (Scenario.DECOY_FINITE, Scenario.DECOY_INFINITE),
                    (5e10, 1e11, 1e12, 1e14, 1e16), 130.0),
}


def _add_flags(parser: argparse.ArgumentParser,
               flags: tuple[str, ...]) -> None:
    # every command and figure also reads --config, --seed and --out
    for flag in ("--config", *flags, "--seed", "--out"):
        parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pnp-bb84",
        description="Secure key rates for plug-and-play BB84 with an "
                    "untrusted source")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        _add_flags(sub.add_parser(command, help=help_text), flags)
    figures = sub.add_parser(
        "figure", help="write the datasets behind one of the summary figures"
    ).add_subparsers(dest="figure_id", required=True)
    for figure_id, figure in _FIGURES.items():
        _add_flags(figures.add_parser(figure_id, help=figure.help),
                   figure.flags)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file with the flags over it; it sets no unread run key."""
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not UTF-8 text: "
                          f"{exc.reason} at byte {exc.start}") from None
    # a subcommand's namespace holds only the flags it reads
    flags = vars(args)
    overrides = {key: flags[key] for key in ("lmin_km", "lmax_km", "lstep_km",
                                             "threshold", "seed", "out_dir")
                 if flags.get(key) is not None}
    if flags.get("scenario") is not None:
        overrides["scenario"] = Scenario(flags["scenario"])
    if flags.get("na") is not None:
        overrides["na_list"] = parse_na_list(flags["na"])
    config = replace(parse_config(text), **overrides)
    unread = sorted(set(config.run_keys()) - flags.keys())
    if unread:
        name = " ".join(filter(None, (args.command, flags.get("figure_id"))))
        raise ConfigError(f"the config sets {', '.join(unread)}, which "
                          f"{name} does not read")
    return config


def _require_scenario(config: RunConfig) -> Scenario:
    if config.scenario is None:
        raise ConfigError("a scenario is required (--scenario or config key)")
    return config.scenario


def _na_values(config: RunConfig, scenario: Scenario) -> list[float]:
    if not scenario.finite:
        if any(na != math.inf for na in config.na_list or ()):
            raise ConfigError("asymptotic scenarios take no pulse count: "
                              "drop --na (config key na) or set it to inf")
        return [math.inf]
    if not config.na_list:
        raise ConfigError("finite scenarios require --na")
    if math.inf in config.na_list:
        raise ConfigError("finite scenarios require finite pulse counts in --na")
    return list(config.na_list)


def _cmd_scan(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    grid = config.l_grid()
    pulse_counts = _na_values(config, scenario)
    io_csv.check_scan_names(scenario, pulse_counts)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for na in pulse_counts:
        records = scan_distance(scenario, na, grid, config.phys,
                                config.conventions)
        print(f"wrote {io_csv.write_scan(out, records)}")
    return 0


def _cmd_lmax(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    threshold = (scans.DEFAULT_THRESHOLD if config.threshold is None
                 else config.threshold)
    rows = []
    for na in _na_values(config, scenario):
        lmax = find_lmax(scenario, na, threshold, config.phys,
                         config.conventions)
        rows.append((na, lmax))
        print(f"{scenario.value} n_pulses={na:g}: L_max = {lmax:.1f} km "
              f"(threshold {threshold:g})")
    path = io_csv.write_lmax(out, scenario, rows, threshold)
    print(f"wrote {path}")
    return 0


def _cmd_nath(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    if not scenario.finite:
        raise ConfigError("nath applies to the finite-key scenarios")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    threshold = (scans.DEFAULT_THRESHOLD if config.threshold is None
                 else config.threshold)
    na_th = find_na_threshold(scenario, threshold, config.phys,
                              config.conventions)
    path = io_csv.write_nath(out, scenario, threshold, na_th)
    print(f"{scenario.value}: pulse-count threshold = {na_th:.3e}")
    print(f"wrote {path}")
    return 0


def _cmd_figure(config: RunConfig, figure_id: str) -> int:
    """The figure's `scan` or `lmax` runs, each writing its own file: a
    finite-key scenario at the given or the figure's pulse counts, an
    asymptotic one at none, and a scan from 0 km to the figure's top in
    2-km steps unless a key sets the grid."""
    figure = _FIGURES[figure_id]
    na_list = config.na_list or figure.pulse_counts
    # checked before the first run, which may be an asymptote's
    if math.inf in na_list:
        raise ConfigError("figures require finite pulse counts in --na")
    if (config.lmin_km, config.lmax_km, config.lstep_km) == (None,) * 3:
        config = replace(config, lmax_km=figure.l_top)
    run = _cmd_scan if figure.command == "scan" else _cmd_lmax
    for scenario in figure.scenarios:
        run(replace(config, scenario=scenario,
                    na_list=na_list if scenario.finite else None))
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args)
        if args.command == "scan":
            return _cmd_scan(config)
        if args.command == "lmax":
            return _cmd_lmax(config)
        if args.command == "nath":
            return _cmd_nath(config)
        return _cmd_figure(config, args.figure_id)
    except (ConfigError, OSError, InfeasibleProblemError,
            io_csv.ScanNameCollisionError, scans.ThresholdOutsideRangeError
            ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
