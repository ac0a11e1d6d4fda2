"""The committed regression outputs: the CLI must write them byte for byte.

Each case is a list of CLI runs into one directory, and
``tests/data/regression/<case>/`` holds the files they wrote when they were
recorded.  The CSVs carry every optimized rate and parameter to 17
significant digits, so a change that moves one float of a kernel, the
objectives or the search changes bytes here.  A change meant to move floats
rewrites the files in the same commit,

    PYTHONPATH=src python tests/test_regression.py

and ``git diff tests/data`` lists every row it moved.  The bytes follow the
kernels' float operations in the math module of the running interpreter;
they were recorded on Python 3.11.
"""

import sys
from pathlib import Path

import pytest

from pnp_bb84 import cli

DATA = Path(__file__).resolve().parent / "data" / "regression"

# the config files the convention cases read, as CI's config step writes them
CONFIGS = {
    "variants.cfg": ("single_photon_mass = strict\n"
                     "decoy_estimator = alternate\nsifting_factor = half\n"),
    "strict.cfg": "decoy_estimator = strict\n",
}

CASES = {
    "fig2": [["figure", "fig2", "--na", "5e10,1e12", "--lmin", "0",
              "--lmax-km", "40", "--lstep", "4"]],
    "scan": [["scan", "--scenario", "decoy_finite", "--na", "5e10", "--lmin",
              "56", "--lmax-km", "66", "--lstep", "2"]],
    "lmax": [["lmax", "--scenario", "decoy_finite", "--na", "1e12"]],
    "nath": [["nath", "--scenario", "no_decoy_finite"]],
    "variants": [["scan", "--config", "variants.cfg", "--scenario", scenario,
                  *na, "--lmin", "0", "--lmax-km", "0"]
                 for scenario, na in (("no_decoy_finite", ["--na", "5e10"]),
                                      ("decoy_finite", ["--na", "5e10"]),
                                      ("decoy_infinite", []))],
    "strict": [["scan", "--config", "strict.cfg", "--scenario",
                "decoy_finite", "--na", "5e10", "--lmin", "0", "--lmax-km",
                "0"]],
}


def run_case(case: str, out: Path, configs: Path) -> None:
    """Run ``case``'s commands, reading config files from ``configs`` and
    writing into ``out``."""
    for argv in CASES[case]:
        argv = [str(configs / a) if a in CONFIGS else a for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == 0, argv


def _write_configs(where: Path) -> None:
    for name, text in CONFIGS.items():
        (where / name).write_text(text)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the files were recorded on Python 3.11")
@pytest.mark.parametrize("case", CASES)
def test_the_cli_writes_the_committed_files(case, tmp_path):
    _write_configs(tmp_path)
    out = tmp_path / "out"
    run_case(case, out, tmp_path)
    want = sorted(p.name for p in (DATA / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for name in want:
        recorded = (DATA / case / name).read_bytes()
        assert (out / name).read_bytes() == recorded, f"{case}/{name} moved"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as configs:
        _write_configs(Path(configs))
        for case in CASES:
            for old in (DATA / case).glob("*"):
                old.unlink()
            run_case(case, DATA / case, Path(configs))
