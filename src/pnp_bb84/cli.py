"""Command-line entry point: scan | lmax | nath | figure."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io_csv, scans
from .config import (ConfigError, RunConfig, apply_overrides, config_entries,
                     parse_config, parse_na_list)
from .optimize import InfeasibleProblemError
from .params import Scenario
from .scans import find_lmax, find_na_threshold, figure_datasets, scan_distance


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 1, like
    every other bad input, instead of a usage block and exit code 2.  The
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value configuration file")
    parser.add_argument("--scenario", type=str, default=None,
                        choices=[s.value for s in Scenario])
    parser.add_argument("--na", type=str, default=None,
                        help="comma-separated pulse counts; 'inf' allowed")
    parser.add_argument("--lmin", dest="lmin_km", type=float, default=None)
    parser.add_argument("--lmax-km", dest="lmax_km", type=float, default=None)
    parser.add_argument("--lstep", dest="lstep_km", type=float, default=None)
    parser.add_argument("--threshold", type=float, default=None)
    # no effect; kept because perfbench/workloads.py passes it
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", dest="out_dir", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pnp-bb84",
        description="Secure key rates for plug-and-play BB84 with an "
                    "untrusted source")
    sub = parser.add_subparsers(dest="command", required=True)
    p_scan = sub.add_parser("scan", help="optimized rate over a distance grid")
    p_lmax = sub.add_parser("lmax", help="maximal secure distance")
    p_nath = sub.add_parser("nath", help="pulse-count threshold for a "
                                         "positive secure distance")
    p_fig = sub.add_parser("figure", help="write the datasets behind one of "
                                          "the summary figures")
    p_fig.add_argument("figure_id", choices=("fig2", "fig3", "fig5"))
    for p in (p_scan, p_lmax, p_nath, p_fig):
        _add_common(p)
    return parser


def _load_config(args: argparse.Namespace) -> tuple[RunConfig, bool]:
    """The run configuration, and whether a flag or config key set the grid."""
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not UTF-8 text: "
                          f"{exc.reason} at byte {exc.start}") from None
    scenario = Scenario(args.scenario) if args.scenario else None
    na_list = parse_na_list(args.na) if args.na else None
    config = apply_overrides(
        parse_config(text), scenario=scenario, na_list=na_list,
        lmin_km=args.lmin_km, lmax_km=args.lmax_km, lstep_km=args.lstep_km,
        threshold=args.threshold, seed=args.seed, out_dir=args.out_dir)
    given = {key for _, key, _ in config_entries(text)}
    given.update(key for key, value in vars(args).items() if value is not None)
    return config, not given.isdisjoint(("lmin_km", "lmax_km", "lstep_km"))


def _require_scenario(config: RunConfig) -> Scenario:
    if config.scenario is None:
        raise ConfigError("a scenario is required (--scenario or config key)")
    return config.scenario


def _na_values(config: RunConfig, scenario: Scenario) -> list[float]:
    if not scenario.finite:
        if any(na != math.inf for na in config.na_list):
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
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for na in _na_values(config, scenario):
        records = scan_distance(scenario, na, grid, config.phys,
                                config.conventions)
        print(f"wrote {io_csv.write_scan(out, records)}")
    return 0


def _cmd_lmax(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for na in _na_values(config, scenario):
        lmax = find_lmax(scenario, na, config.threshold, config.phys,
                         config.conventions)
        rows.append((na, lmax))
        print(f"{scenario.value} n_pulses={na:g}: L_max = {lmax:.1f} km "
              f"(threshold {config.threshold:g})")
    path = io_csv.write_lmax(out, scenario, rows, config.threshold)
    print(f"wrote {path}")
    return 0


def _cmd_nath(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    if not scenario.finite:
        raise ConfigError("nath applies to the finite-key scenarios")
    na_th = find_na_threshold(scenario, config.threshold, config.phys,
                              config.conventions)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = io_csv.write_nath(out, scenario, config.threshold, na_th)
    print(f"{scenario.value}: pulse-count threshold = {na_th:.3e}")
    print(f"wrote {path}")
    return 0


def _cmd_figure(config: RunConfig, figure_id: str, grid_given: bool) -> int:
    # every figure solves finite-key scenarios at the given pulse counts
    if math.inf in config.na_list:
        raise ConfigError("figures require finite pulse counts in --na")
    na_list = list(config.na_list) if config.na_list else None
    l_grid = config.l_grid() if grid_given else None
    for path in figure_datasets(figure_id, config.out_dir, config.phys,
                                config.conventions, l_grid=l_grid,
                                na_list=na_list, threshold=config.threshold):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config, grid_given = _load_config(args)
        if args.command == "scan":
            return _cmd_scan(config)
        if args.command == "lmax":
            return _cmd_lmax(config)
        if args.command == "nath":
            return _cmd_nath(config)
        return _cmd_figure(config, args.figure_id, grid_given)
    except (ConfigError, OSError, InfeasibleProblemError,
            scans.NonMonotoneRateError, scans.ThresholdOutsideRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
