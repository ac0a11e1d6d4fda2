"""Self-test of the benchmark harness at a tiny size (about half a minute).

    python3 perfbench/selftest.py

Checks that a run emits exactly the metrics of BENCHMARK.json with their
units, traced and untraced, and that the reference check fails a
deliberately perturbed answer of every kind, also end to end in a run.
Exits 1 and names each failed check otherwise.
"""

from __future__ import annotations

import copy
import math
import sys

import run

TINY_POINTS = 8


def _check_emitted(problems: list, reference: dict) -> None:
    end_to_end, per_layer = run.metric_units()
    for trace, units in ((False, end_to_end), (True, per_layer)):
        result = run.measure("point_sweep", 0, 0.0, trace, reference,
                             setup_repeats=1,
                             sweep_points=TINY_POINTS)["result"]
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if emitted != units:
            problems.append(f"trace={trace}: emitted {emitted}, "
                            f"expected {units}")
        bad = [k for k, v in result["metrics"].items()
               if not isinstance(v["value"], (int, float))
               or not math.isfinite(v["value"])]
        if bad:
            problems.append(f"trace={trace}: non-numeric values {bad}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={trace}: unperturbed run failed: {result}")


def _check_perturbed(problems: list, reference: dict) -> None:
    import workloads
    from workloads import Op

    rate_key = next(iter(reference["best_rate"]))
    best = reference["best_rate"][rate_key]["rate"]
    grid_key, grid = next(iter(reference["grid"].items()))
    centre, pool = next(iter(reference["sweep"].items()))
    j = next(i for i, v in enumerate(pool) if not isinstance(v, str))
    lmax_key, lmax = next(iter(reference["lmax"].items()))
    nath_key, nath = next(iter(reference["nath"].items()))
    answers = [  # (key, the reference answer, a perturbed answer)
        ("rate:" + rate_key, best,
         best * (1.0 - 2.0 * workloads.RATE_MISS_TOL)),
        ("grid:" + grid_key, grid, grid * (1.0 - 1e-6)),
        (f"sweep:{centre}#{j}", ("ok", pool[j]), ("ok", pool[j] * (1 + 1e-6))),
        (f"sweep:{centre}#{j}", ("ok", pool[j]), ("EmptyRawKeyError", None)),
        ("lmax:" + lmax_key, lmax["value"],
         lmax["value"] + 2 * workloads.LMAX_STEP_KM),
        ("nath:" + nath_key, nath["value"],
         nath["value"] * 10 ** (2 * workloads.NATH_STEP_DECADES)),
    ]
    for key, good, bad in answers:
        if not workloads.check_op(Op("check", 0.0, 1, [(key, good)]),
                                  reference)[0]:
            problems.append(f"{key}: reference answer {good!r} failed")
        if workloads.check_op(Op("check", 0.0, 1, [(key, bad)]),
                              reference)[0]:
            problems.append(f"{key}: perturbed answer {bad!r} passed")

    # end to end: perturb the reference of one point the tiny sweep evaluates
    points = workloads.sweep_inputs(0, reference, TINY_POINTS)
    target = next(k for k, _, _ in points if not isinstance(
        workloads.sweep_expected(reference, k[len("sweep:"):]), str))
    centre, _, index = target[len("sweep:"):].rpartition("#")
    perturbed = copy.deepcopy(reference)
    perturbed["sweep"][centre][int(index)] *= 1.0 + 1e-6
    result = run.measure("point_sweep", 0, 0.0, False, perturbed,
                         setup_repeats=1, sweep_points=TINY_POINTS)["result"]
    if result["correct"] or result["failed"] != 1:
        problems.append(f"perturbed reference for {target}: expected one "
                        f"failed operation, got {result}")


def main() -> int:
    run.use_checkout_src()
    reference = run.load_reference()
    problems: list = []
    _check_emitted(problems, reference)
    _check_perturbed(problems, reference)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
