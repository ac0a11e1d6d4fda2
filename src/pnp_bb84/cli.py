"""Command-line entry point: scan | lmax | nath | figure."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io_csv, scans
from .config import ConfigError, RunConfig, apply_overrides, parse_config, parse_na_list
from .optimize import InfeasibleProblemError
from .params import Scenario
from .scans import find_lmax, find_na_threshold, figure_datasets, scan_distance


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
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", dest="out_dir", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        config = RunConfig()
    scenario = Scenario(args.scenario) if args.scenario else None
    na_list = parse_na_list(args.na) if args.na else None
    return apply_overrides(
        config, scenario=scenario, na_list=na_list, lmin_km=args.lmin_km,
        lmax_km=args.lmax_km, lstep_km=args.lstep_km,
        threshold=args.threshold, seed=args.seed, out_dir=args.out_dir)


def _require_scenario(config: RunConfig) -> Scenario:
    if config.scenario is None:
        raise ConfigError("a scenario is required (--scenario or config key)")
    return config.scenario


def _na_values(config: RunConfig, scenario: Scenario) -> list[float]:
    if not scenario.finite:
        return list(config.na_list) or [math.inf]
    if not config.na_list:
        raise ConfigError("finite scenarios require --na")
    if math.inf in config.na_list:
        raise ConfigError("finite scenarios require finite pulse counts in --na")
    return list(config.na_list)


def _cmd_scan(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    grid = config.l_grid()
    if not grid:
        raise ConfigError("empty distance grid")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for na in _na_values(config, scenario):
        records = scan_distance(scenario, na, grid, config.phys,
                                config.conventions, config.seed)
        tag = "inf" if math.isinf(na) else f"{na:.0e}".replace("+", "")
        path = out / f"scan_{scenario.value}_{tag}.csv"
        io_csv.write_records(path, records)
        print(f"wrote {path}")
    return 0


def _cmd_lmax(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for na in _na_values(config, scenario):
        lmax = find_lmax(scenario, na, config.threshold, config.phys,
                         config.conventions, config.seed)
        rows.append((scenario, na, lmax))
        print(f"{scenario.value} n_pulses={na:g}: L_max = {lmax:.1f} km "
              f"(threshold {config.threshold:g})")
    path = out / f"lmax_{scenario.value}.csv"
    io_csv.write_lmax_rows(path, rows, config.threshold)
    print(f"wrote {path}")
    return 0


def _cmd_nath(config: RunConfig) -> int:
    scenario = _require_scenario(config)
    if not scenario.finite:
        raise ConfigError("nath applies to the finite-key scenarios")
    na_th = find_na_threshold(scenario, config.threshold, config.phys,
                              config.conventions, config.seed)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"nath_{scenario.value}.csv"
    lines = ["scenario,threshold,na_threshold",
             ",".join([scenario.value, io_csv.fmt(config.threshold),
                       io_csv.fmt(na_th)])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"{scenario.value}: pulse-count threshold = {na_th:.3e}")
    print(f"wrote {path}")
    return 0


def _cmd_figure(config: RunConfig, figure_id: str) -> int:
    # every figure solves finite-key scenarios at the given pulse counts
    if math.inf in config.na_list:
        raise ConfigError("figures require finite pulse counts in --na")
    na_list = list(config.na_list) if config.na_list else None
    default = RunConfig()
    untouched = (config.lmin_km, config.lmax_km, config.lstep_km) == (
        default.lmin_km, default.lmax_km, default.lstep_km)
    l_grid = None if untouched else config.l_grid()
    written = figure_datasets(figure_id, config.out_dir, config.phys,
                              config.conventions, config.seed,
                              l_grid=l_grid, na_list=na_list,
                              threshold=config.threshold)
    for name, path in written.items():
        print(f"wrote {name}: {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "scan":
            return _cmd_scan(config)
        if args.command == "lmax":
            return _cmd_lmax(config)
        if args.command == "nath":
            return _cmd_nath(config)
        return _cmd_figure(config, args.figure_id)
    except (ConfigError, OSError, InfeasibleProblemError,
            scans.NonMonotoneRateError, scans.ThresholdOutsideRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
