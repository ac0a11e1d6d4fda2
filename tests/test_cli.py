"""Configuration parsing and the command-line surface."""

import math

import pytest

from pnp_bb84 import cli
from pnp_bb84.cli import main
from pnp_bb84.config import (ConfigError, RunConfig, parse_config,
                             serialize_config)
from pnp_bb84.optimize import InfeasibleProblemError
from pnp_bb84.params import Scenario
from pnp_bb84.scans import NonMonotoneRateError


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config("")
        default = RunConfig()
        assert config.phys == default.phys
        assert config.conventions == default.conventions
        assert config.seed == 0

    def test_value_round_trip(self):
        config = parse_config("eta_bob = 0.045\n")
        assert config.phys.eta_bob == 0.045
        again = parse_config(serialize_config(config))
        assert again.phys == config.phys
        assert again.conventions == config.conventions

    def test_comments_and_blank_lines(self):
        config = parse_config("# comment\n\nf_ec = 1.1  # inline\n")
        assert config.phys.f_ec == 1.1

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("seed = 3\nq_a = 0.5\n")

    def test_constraint_violation_names_the_key(self):
        with pytest.raises(ConfigError, match="q_split"):
            parse_config("q_split = 1.5\n")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("y0 = abc\n")

    def test_scientific_notation_and_na_list(self):
        config = parse_config("na = 5e10,1e11,inf\nscenario = decoy_finite\n")
        assert config.na_list == (5e10, 1e11, math.inf)
        assert config.scenario is Scenario.DECOY_FINITE

    @pytest.mark.parametrize("line", ["threshold = nan", "lstep_km = inf",
                                      "lmin_km = nan", "na = nan"])
    def test_non_finite_run_value_rejected(self, line):
        with pytest.raises(ConfigError, match="must be"):
            parse_config(line + "\n")

    def test_convention_toggles(self):
        config = parse_config("decoy_estimator = strict\n"
                              "sifting_factor = half\n")
        assert config.conventions.decoy_estimator == "strict"
        assert config.conventions.sifting_factor == "half"
        with pytest.raises(ConfigError):
            parse_config("decoy_estimator = bogus\n")


class TestCliCommands:
    def test_scan_writes_deterministic_csv(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["scan", "--scenario", "no_decoy_infinite", "--lmin", "0",
                "--lmax-km", "4", "--lstep", "2", "--seed", "5"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        file_a = out_a / "scan_no_decoy_infinite_inf.csv"
        file_b = out_b / "scan_no_decoy_infinite_inf.csv"
        assert file_a.read_bytes() == file_b.read_bytes()
        header = file_a.read_text().split("\n")[0]
        assert header.startswith("scenario,L_km,n_pulses,rate,no_key")

    def test_scan_requires_na_for_finite(self, tmp_path, capsys):
        rc = main(["scan", "--scenario", "no_decoy_finite", "--lmin", "0",
                   "--lmax-km", "4", "--lstep", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert "require" in capsys.readouterr().err

    def test_empty_distance_range_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["scan", "--scenario", "no_decoy_infinite", "--lmin", "10",
                   "--lmax-km", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_nath_rejects_infinite_scenario(self, tmp_path, capsys):
        rc = main(["nath", "--scenario", "decoy_infinite",
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_config_file_is_honoured(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = no_decoy_infinite\nlmin_km = 0\n"
                       "lmax_km = 2\nlstep_km = 2\n")
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "scan_no_decoy_infinite_inf.csv").exists()

    def test_lmax_command(self, tmp_path, capsys):
        rc = main(["lmax", "--scenario", "no_decoy_infinite",
                   "--threshold", "1e-5", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L_max" in out
        assert (tmp_path / "lmax_no_decoy_infinite.csv").exists()

    def _raising(self, exc):
        def solver(*args, **kwargs):
            raise exc
        return solver

    def test_non_monotone_rate_is_a_one_line_error(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "find_lmax", self._raising(
            NonMonotoneRateError("optimized rate rose")))
        rc = main(["lmax", "--scenario", "decoy_infinite",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: optimized rate rose\n"

    def test_infeasible_problem_is_a_one_line_error(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "scan_distance", self._raising(
            InfeasibleProblemError("no feasible point found")))
        rc = main(["scan", "--scenario", "no_decoy_infinite", "--lmin", "0",
                   "--lmax-km", "2", "--lstep", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no feasible point found\n"

    @pytest.mark.parametrize("args", [
        ["lmax", "--scenario", "no_decoy_infinite", "--threshold", "nan"],
        ["scan", "--scenario", "no_decoy_infinite", "--lstep", "nan"],
        ["scan", "--scenario", "no_decoy_infinite", "--lmin", "nan"],
        ["scan", "--scenario", "no_decoy_finite", "--na", "nan"],
        ["scan", "--scenario", "no_decoy_finite", "--na", "inf"],
        ["figure", "fig2", "--na", "inf"],
    ], ids=["threshold-nan", "lstep-nan", "lmin-nan", "na-nan", "na-inf",
            "figure-na-inf"])
    def test_non_finite_flag_is_a_one_line_error(self, tmp_path, capsys, args):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))
