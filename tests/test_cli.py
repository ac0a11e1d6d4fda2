"""Configuration parsing and the command-line surface."""

import math

import pytest

from pnp_bb84 import cli
from pnp_bb84.cli import main
from pnp_bb84.config import (ConfigError, RunConfig, parse_config,
                             serialize_config)
from pnp_bb84.optimize import InfeasibleProblemError
from pnp_bb84.params import Scenario
from pnp_bb84.scans import ThresholdOutsideRangeError


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

    def test_out_dir_round_trip(self):
        config = RunConfig(out_dir="runs/1")
        assert parse_config(serialize_config(config)) == config

    @pytest.mark.parametrize("out_dir", ["runs/#1", "runs/\n1", " runs/1",
                                         "runs/1 ", ""])
    def test_out_dir_no_config_line_holds_is_refused(self, out_dir):
        # parse_config reads "runs/#1" back as "runs/" (the rest is a comment)
        with pytest.raises(ConfigError, match="out_dir"):
            serialize_config(RunConfig(out_dir=out_dir))

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

    @pytest.mark.parametrize("call", [
        lambda: parse_config("na = ,\n"), lambda: RunConfig(na_list=())])
    def test_empty_pulse_count_list_rejected(self, call):
        # an empty list would serialize to a line that does not parse back
        with pytest.raises(ConfigError, match="no pulse count"):
            call()

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

    @pytest.mark.parametrize("args", [
        ["scan", "--scenario", "decoy_infinite", "--na", "5e10"],
        ["lmax", "--scenario", "decoy_infinite", "--na", "1e10,1e12"],
        ["scan", "--scenario", "no_decoy_infinite", "--na", "inf,5e10"],
    ], ids=["scan", "lmax", "mixed"])
    def test_asymptotic_scenario_rejects_finite_na(self, tmp_path, capsys,
                                                   args):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "asymptotic" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_asymptotic_scenario_accepts_na_inf(self, tmp_path):
        rc = main(["scan", "--scenario", "no_decoy_infinite", "--na", "inf",
                   "--lmin", "0", "--lmax-km", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "scan_no_decoy_infinite_inf.csv").exists()

    def test_empty_distance_range_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["scan", "--scenario", "no_decoy_infinite", "--lmin", "10",
                   "--lmax-km", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("lmax_km,lstep", [
        ("1e308", "1e-300"), ("2000000", "1"),
    ], ids=["count-overflows", "count-over-a-million"])
    def test_huge_distance_grid_is_a_one_line_error(self, tmp_path, capsys,
                                                    lmax_km, lstep):
        # the points are counted, never built
        rc = main(["scan", "--scenario", "decoy_infinite", "--lmin", "0",
                   "--lmax-km", lmax_km, "--lstep", lstep,
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "distance grid" in err
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

    def test_nath_csv_layout(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "find_na_threshold",
                            lambda *a: seen.append(a) or 947463525.65537536)
        rc = main(["nath", "--scenario", "no_decoy_finite", "--threshold",
                   "1e-9", "--out", str(tmp_path)])
        assert rc == 0
        assert seen[0][:2] == (Scenario.NO_DECOY_FINITE, 1e-9)
        assert (tmp_path / "nath_no_decoy_finite.csv").read_text() == (
            "scenario,threshold,na_threshold\n"
            "no_decoy_finite,1.0000000000000001e-09,947463525.65537536\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_a_one_line_error(self, tmp_path, capsys,
                                               source):
        # the seed changes no result, but a bad one is still refused, as
        # every other malformed input is
        args = ["scan", "--scenario", "no_decoy_infinite", "--lmin", "0",
                "--lmax-km", "0", "--out", str(tmp_path)]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n")
            args += ["--config", str(cfg)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed=-1 ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def _raising(self, exc):
        def solver(*args, **kwargs):
            raise exc
        return solver

    def test_threshold_outside_range_is_a_one_line_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_na_threshold", self._raising(
            ThresholdOutsideRangeError(
                "no positive rate up to n_pulses = 1e18")))
        rc = main(["nath", "--scenario", "no_decoy_finite",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: no positive rate up to n_pulses = 1e18\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_infeasible_problem_is_a_one_line_error(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "scan_distance", self._raising(
            InfeasibleProblemError("no feasible point found")))
        rc = main(["scan", "--scenario", "no_decoy_infinite", "--lmin", "0",
                   "--lmax-km", "2", "--lstep", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no feasible point found\n"

    @pytest.mark.parametrize("scenario", [s.value for s in Scenario])
    def test_distance_past_attenuation_underflow_is_a_one_line_error(
            self, tmp_path, capsys, scenario):
        # at 0.21 dB/km the transmittance is 0.0 beyond about 15,350 km
        args = ["scan", "--scenario", scenario, "--lmin", "16000",
                "--lmax-km", "16000", "--out", str(tmp_path)]
        if Scenario(scenario).finite:
            args += ["--na", "5e10"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "underflows" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scenario", [s.value for s in Scenario])
    def test_zero_gain_is_a_one_line_error(self, tmp_path, capsys, scenario):
        # with y0 = 0 no detector clicks at 10,000 km, so no key exists
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y0 = 0\n")
        args = ["scan", "--config", str(cfg), "--scenario", scenario,
                "--lmin", "10000", "--lmax-km", "10000", "--out",
                str(tmp_path)]
        if Scenario(scenario).finite:
            args += ["--na", "5e10"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no feasible point") and \
            err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_config_file_not_utf8_is_a_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe y0 = 1\n")
        rc = main(["scan", "--config", str(cfg), "--scenario",
                   "no_decoy_infinite", "--lmin", "0", "--lmax-km", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} ") and \
            err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_source_too_bright_for_lgamma_is_a_one_line_error(self, tmp_path,
                                                              capsys):
        # the photon-number windows reach 2 m_bright; math.lgamma overflows
        # above about 2.556e305
        cfg = tmp_path / "big.cfg"
        cfg.write_text("m_bright = 1e307\n")
        rc = main(["scan", "--config", str(cfg), "--scenario",
                   "no_decoy_infinite", "--lmin", "0", "--lmax-km", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: m_bright=1e+307 ") and \
            err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

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

    @pytest.mark.parametrize("args", [
        ["scan", "--scenario", "no_decoy_infinite", "--seed", "1.5"],
        ["scan", "--scenario", "no_decoy_infinite", "--lmin", "abc"],
        ["scan", "--scenario", "no_decoy_infinite", "--bogus", "1"],
        ["scan", "--scenario", "no_such_scenario"],
        ["figure", "fig4"],
        ["--seed", "0"],
        ["figure", "fig2", "--na", ","],
    ], ids=["seed-float", "lmin-text", "unknown-flag", "unknown-scenario",
            "unknown-figure", "missing-subcommand", "figure-na-empty"])
    def test_usage_error_is_a_one_line_error(self, tmp_path, capsys, args):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("args", [
        ["nath", "--scenario", "no_decoy_finite", "--na", "5e10"],
        ["nath", "--scenario", "no_decoy_finite", "--lmin", "3"],
        ["lmax", "--scenario", "decoy_infinite", "--lmin", "3"],
        ["scan", "--scenario", "no_decoy_infinite", "--lmin", "0",
         "--lmax-km", "0", "--threshold", "1e-9"],
        ["figure", "fig2", "--scenario", "decoy_finite", "--na", "5e10",
         "--lmin", "0", "--lmax-km", "0"],
        ["figure", "fig3", "--na", "1e10", "--lmin", "5", "--lmax-km", "9",
         "--lstep", "2"],
        ["figure", "fig2", "--na", "5e10", "--lmin", "0", "--lmax-km", "0",
         "--threshold", "1e-9"],
        ["figure", "fig5", "--na", "5e10", "--lmin", "0", "--lmax-km", "0",
         "--threshold", "1e-9"],
    ], ids=["nath-na", "nath-lmin", "lmax-lmin", "scan-threshold",
            "figure-scenario", "fig3-grid", "fig2-threshold",
            "fig5-threshold"])
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(
            self, tmp_path, capsys, args):
        # these used to be accepted and ignored
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: ") and \
            err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_pulse_counts_with_one_short_tag_write_two_scan_files(
            self, tmp_path, capsys):
        # "5e10" and "5.4e10" both used to be tagged 5e10, so the second
        # scan overwrote the first
        rc = main(["scan", "--scenario", "no_decoy_finite", "--na",
                   "5e10,5.4e10", "--lmin", "0", "--lmax-km", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        for tag, na in (("5e10", 5e10), ("5.4e10", 5.4e10)):
            rows = (tmp_path / f"scan_no_decoy_finite_{tag}.csv"
                    ).read_text().splitlines()[1:]
            assert [float(row.split(",")[2]) for row in rows] == [na]

    @pytest.mark.parametrize("args", [
        ["scan", "--scenario", "no_decoy_finite", "--na", "5e10,50000000000"],
        ["figure", "fig2", "--na", "5e10,5e10"],
    ], ids=["scan", "figure"])
    def test_two_scans_with_one_file_name_are_a_one_line_error(
            self, tmp_path, capsys, args):
        rc = main(args + ["--lmin", "0", "--lmax-km", "0",
                          "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: pulse count 5e10 is given twice: both scans would write "
            "scan_no_decoy_finite_5e10.csv\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("args", [["--help"], ["scan", "--help"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exit_:
            main(args)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pnp-bb84")


class TestRunKeys:
    """A run key is set or None.  Every command and figure refuses a set key
    that it does not read, and a serialized configuration replays into the
    command that read it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the threshold solvers and the figures are stubbed; a scan runs
        seen = []
        monkeypatch.setattr(cli, "find_lmax",
                            lambda *a: seen.append(("lmax", a)) or 64.5)
        monkeypatch.setattr(cli, "find_na_threshold",
                            lambda *a: seen.append(("nath", a)) or 9.5e8)
        monkeypatch.setattr(cli, "figure_datasets",
                            lambda *a, **kw: seen.append(("figure", a, kw))
                            or [])
        return seen

    @pytest.mark.parametrize("args,config_text,keys", [
        (["scan", "--scenario", "no_decoy_infinite", "--lmin", "0",
          "--lmax-km", "0"], "threshold = 1e-4\n", "threshold"),
        (["lmax", "--scenario", "decoy_infinite"], "lmin_km = 5\n",
         "lmin_km"),
        (["nath", "--scenario", "no_decoy_finite"], "na = 5e10\n", "na"),
        (["nath", "--scenario", "no_decoy_finite"], "lstep_km = 2\n",
         "lstep_km"),
        (["nath", "--scenario", "no_decoy_finite"],
         "na = 5e10\nlstep_km = 2\n", "lstep_km, na"),
    ], ids=["scan-threshold", "lmax-lmin", "nath-na", "nath-lstep",
            "nath-both"])
    def test_config_key_the_command_does_not_read_is_refused(
            self, tmp_path, capsys, calls, args, config_text, keys):
        # these used to run and ignore the key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        rc = main(args + ["--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: the config sets {keys}, which {args[0]} does not read\n")
        assert calls == []
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("args", [
        ["scan", "--scenario", "no_decoy_finite", "--na", "5e10",
         "--lmin", "20", "--lmax-km", "20"],
        ["lmax", "--scenario", "decoy_finite", "--na", "1e10,1e12",
         "--threshold", "1e-4"],
        ["nath", "--scenario", "no_decoy_finite"],
        ["figure", "fig2", "--na", "5e10", "--lstep", "65"],
        ["figure", "fig3", "--na", "1e10", "--threshold", "1e-4"],
    ], ids=["scan", "lmax", "nath", "fig2", "fig3"])
    def test_serialized_config_replays(self, tmp_path, capsys, calls, args):
        n_words = 2 if args[0] == "figure" else 1
        args = args + ["--seed", "3", "--out", str(tmp_path / "out")]
        config = cli._load_config(cli.build_parser().parse_args(args))
        text = serialize_config(config)
        assert parse_config(text) == config
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        runs = []
        for argv in (args, args[:n_words] + ["--config", str(cfg)]):
            assert main(argv) == 0
            files = {p.name: p.read_bytes()
                     for p in (tmp_path / "out").glob("*.csv")}
            runs.append((capsys.readouterr().out, files, calls[:]))
            calls.clear()
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("figure_id", ["fig2", "fig3", "fig5"])
    def test_serialized_default_config_runs_every_figure(
            self, tmp_path, calls, figure_id):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(serialize_config(RunConfig()))
        rc = main(["figure", figure_id, "--config", str(cfg)])
        assert rc == 0
        assert len(calls) == 1 and calls[0][2] == {}

    def test_unset_threshold_is_the_default_threshold(self, tmp_path, capsys,
                                                      calls):
        assert main(["lmax", "--scenario", "decoy_infinite",
                     "--out", str(tmp_path)]) == 0
        assert main(["nath", "--scenario", "no_decoy_finite",
                     "--out", str(tmp_path)]) == 0
        (_, lmax_args), (_, nath_args) = calls
        assert lmax_args[2] == nath_args[1] == 1e-9
        assert "(threshold 1e-09)" in capsys.readouterr().out
        for name in ("lmax_decoy_infinite.csv", "nath_no_decoy_finite.csv"):
            row = (tmp_path / name).read_text().splitlines()[1]
            assert "1.0000000000000001e-09" in row.split(",")


class TestFigureGrid:
    """`figure` keeps its own distance grid only when no flag or config key
    sets an end or the step."""

    def _grid(self, monkeypatch, tmp_path, args, config_text=None):
        seen = []
        monkeypatch.setattr(
            cli, "figure_datasets",
            lambda *a, l_grid=None, **kw: seen.append(l_grid) or [])
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            args = args + ["--config", str(cfg)]
        assert main(["figure", "fig2"] + args + ["--out", str(tmp_path)]) == 0
        return seen[0]

    def test_no_grid_given_keeps_the_figure_grid(self, monkeypatch, tmp_path):
        assert self._grid(monkeypatch, tmp_path, []) is None
        assert self._grid(monkeypatch, tmp_path, [], "seed = 1\n") is None

    @pytest.mark.parametrize("args", [
        ["--lmin", "0", "--lmax-km", "130", "--lstep", "2"], ["--lstep", "2"],
    ])
    def test_flags_at_the_default_values_are_honoured(self, monkeypatch,
                                                      tmp_path, args):
        # these used to fall back to fig2's own 0-44 km grid
        assert self._grid(monkeypatch, tmp_path, args) == RunConfig().l_grid()

    def test_config_key_at_the_default_value_is_honoured(self, monkeypatch,
                                                         tmp_path):
        assert self._grid(monkeypatch, tmp_path, [],
                          "lmax_km = 130\n") == RunConfig().l_grid()


class TestFigureFlags:
    """A figure takes only the flags it reads, and a config file may set
    only the keys it reads, besides the physical parameters and
    conventions."""

    def _run(self, monkeypatch, tmp_path, args, config_text=None):
        seen = []
        monkeypatch.setattr(cli, "figure_datasets",
                            lambda *a, **kw: seen.append(kw) or [])
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            args = args + ["--config", str(cfg)]
        return main(args + ["--out", str(tmp_path)]), seen

    @pytest.mark.parametrize("figure_id,config_text,keys", [
        ("fig3", "lmin_km = 5\nlmax_km = 9\nlstep_km = 2\n",
         "lmax_km, lmin_km, lstep_km"),
        ("fig3", "lstep_km = 2\n", "lstep_km"),
        ("fig2", "threshold = 1e-4\n", "threshold"),
        ("fig5", "threshold = 1e-4\n", "threshold"),
        ("fig5", "scenario = decoy_finite\n", "scenario"),
    ], ids=["fig3-grid", "fig3-lstep", "fig2-threshold", "fig5-threshold",
            "fig5-scenario"])
    def test_config_keys_the_figure_does_not_read_are_refused(
            self, monkeypatch, tmp_path, capsys, figure_id, config_text,
            keys):
        rc, seen = self._run(monkeypatch, tmp_path, ["figure", figure_id],
                             config_text)
        assert rc == 1
        assert seen == []
        assert capsys.readouterr().err == (
            f"error: the config sets {keys}, which figure {figure_id} does "
            f"not read\n")

    @pytest.mark.parametrize("figure_id,config_text", [
        ("fig3", "eta_bob = 0.045\nseed = 1\nna = 1e10\nthreshold = 1e-4\n"),
        ("fig2", "decoy_estimator = alternate\nlmax_km = 4\n"),
    ], ids=["fig3", "fig2"])
    def test_config_keys_the_figure_reads_are_allowed(
            self, monkeypatch, tmp_path, figure_id, config_text):
        rc, seen = self._run(monkeypatch, tmp_path, ["figure", figure_id],
                             config_text)
        assert rc == 0
        assert len(seen) == 1

    @pytest.mark.parametrize("figure_id,args,kwargs", [
        ("fig3", [], {}),
        ("fig3", ["--na", "1e10", "--threshold", "1e-4"],
         {"na_list": [1e10], "threshold": 1e-4}),
        ("fig2", [], {}),
        ("fig2", ["--na", "5e10", "--lstep", "65"],
         {"na_list": [5e10], "l_grid": [0.0, 65.0, 130.0]}),
    ], ids=["fig3-defaults", "fig3-given", "fig2-defaults", "fig2-given"])
    def test_only_the_given_keys_are_passed(self, monkeypatch, tmp_path,
                                            figure_id, args, kwargs):
        rc, seen = self._run(monkeypatch, tmp_path,
                             ["figure", figure_id] + args)
        assert rc == 0
        assert seen == [kwargs]

    @pytest.mark.parametrize("figure_id,flags", [
        ("fig2", "--lmin --lmax-km --lstep"), ("fig3", "--threshold"),
        ("fig5", "--lmin --lmax-km --lstep")], ids=["fig2", "fig3", "fig5"])
    def test_help_lists_the_flags_the_figure_reads(self, capsys, figure_id,
                                                   flags):
        with pytest.raises(SystemExit) as exit_:
            main(["figure", figure_id, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: pnp-bb84 figure {figure_id}")
        assert all(flag in out for flag in flags.split())


class TestFigureFiles:
    """`figure` writes the files that `scan` and `lmax` write for the same
    inputs, byte for byte."""

    def _same_files(self, tmp_path, figure_args, command_args):
        fig_dir, cmd_dir = tmp_path / "figure", tmp_path / "commands"
        assert main(figure_args + ["--out", str(fig_dir)]) == 0
        for args in command_args:
            assert main(args + ["--out", str(cmd_dir)]) == 0
        names = sorted(p.name for p in fig_dir.iterdir())
        assert names == sorted(p.name for p in cmd_dir.iterdir())
        for name in names:
            assert ((fig_dir / name).read_bytes()
                    == (cmd_dir / name).read_bytes()), name
        return names

    def test_fig5_writes_the_scan_files(self, tmp_path):
        grid = ["--lmin", "0", "--lmax-km", "8", "--lstep", "4"]
        na = ["--na", "5e10,1e12"]
        names = self._same_files(tmp_path, ["figure", "fig5"] + na + grid, [
            ["scan", "--scenario", "decoy_finite"] + na + grid,
            ["scan", "--scenario", "decoy_infinite"] + grid])
        assert names == ["scan_decoy_finite_1e12.csv",
                         "scan_decoy_finite_5e10.csv",
                         "scan_decoy_infinite_inf.csv"]

    def test_fig3_writes_the_lmax_files(self, tmp_path):
        # a high threshold keeps every march short
        na, threshold = ["--na", "1e10"], ["--threshold", "1e-4"]
        names = self._same_files(
            tmp_path, ["figure", "fig3"] + na + threshold,
            [["lmax", "--scenario", sc.value]
             + (na if sc.finite else []) + threshold for sc in Scenario])
        assert names == sorted(f"lmax_{sc.value}.csv" for sc in Scenario)
