"""Spans around the calls into each layer, and the per-layer metrics.

`Tracer.install` replaces the module attributes through which callers reach
each layer with timing wrappers, from the benchmark's side only: the program
is not edited.  A function is wrapped at every attribute its callers look up,
so ``maximize`` is wrapped both as ``optimize.maximize`` and as
``scans.maximize``, and the ``_kernels`` objective, parameter-map and rate
functions are wrapped where ``_objective_fn``, ``point_from_raw``,
``evaluate_rate`` and the objectives themselves look them up.  (Compiled
numba kernels call each other directly, so with numba active only the outer
kernel calls are seen.)

Each span keeps its name, start, end, parent span and operation id in flat
arrays, so a traced pass of about a million spans fits in some 30 MB;
`Tracer.save` writes them out when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from pnp_bb84 import _kernels, cli, io_csv, optimize, rates, scans

SCENARIOS = ("no_decoy_infinite", "no_decoy_finite", "decoy_infinite",
             "decoy_finite")
KERNELS = ("objective", "rate", "params")
SCAN_SPANS = ("scans.scan_distance", "scans.find_lmax",
              "scans.find_na_threshold")
# errors evaluate_rate raises for points outside a formula's domain, and the
# ValueError of its input validation; any other class counts as "other"
REJECTIONS = ("WindowViolationError", "NoUntaggedPulsesError",
              "FluctuationTooLargeError", "EmptyRawKeyError",
              "DecoyOrderingError", "ValueError")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.op = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_op(self) -> None:
        self.op += 1

    # --- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        starts, ends, stack = self.starts, self.ends, self._stack
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        errors = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            op_ids.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                errors[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_objective(self, args, value) -> None:
        penalized = value <= _kernels.PENALTY + 1.0
        self.counts["objective.penalty"] += int(penalized)

    def _observe_maximize(self, args, result) -> None:
        self.counts["maximize.evaluations"] += result.evaluations
        self.counts["maximize.converged"] += int(result.converged)
        self.counts["maximize.warm_starts"] += len(args[0].warm_starts)

    def _observe_dump(self, args, result) -> None:
        text = "\n".join(args[1]) + "\n"
        self.counts["io_csv.bytes"] += len(text.encode("utf-8"))

    def _targets(self) -> list[tuple]:
        """(module, attribute, span name, observer) of every wrapped lookup."""
        targets = []
        for sc in SCENARIOS:
            for kind in KERNELS:
                observe = (self._observe_objective if kind == "objective"
                           else None)
                targets.append((_kernels, f"{kind}_{sc}",
                                f"kernels.{kind}_{sc}", observe))
        targets += [
            (optimize, "maximize", "optimize.maximize", self._observe_maximize),
            (scans, "maximize", "optimize.maximize", self._observe_maximize),
            (optimize, "point_from_raw", "optimize.point_from_raw", None),
            (optimize, "raw_from_point", "optimize.raw_from_point", None),
            (optimize, "grid_oracle", "optimize.grid_oracle", None),
            (optimize, "evaluate_rate", "rates.evaluate_rate", None),
            (rates, "evaluate_rate", "rates.evaluate_rate", None),
            (cli, "scan_distance", "scans.scan_distance", None),
            (cli, "find_lmax", "scans.find_lmax", None),
            (cli, "find_na_threshold", "scans.find_na_threshold", None),
            (cli, "main", "cli.main", None),
            (io_csv, "_dump", "io_csv.write", self._observe_dump),
        ]
        return targets

    def install(self) -> None:
        for module, attr, name, observe in self._targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- output ---------------------------------------------------------------

    def _arrays(self) -> dict:
        return {"start": np.frombuffer(self.starts, dtype=np.float64),
                "end": np.frombuffer(self.ends, dtype=np.float64),
                "name": np.frombuffer(self.name_ids, dtype=np.intc),
                "parent": np.frombuffer(self.parents, dtype=np.intc),
                "op": np.frombuffer(self.op_ids, dtype=np.intc)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self._arrays())

    def layer_metrics(self) -> dict:
        """Every per-layer metric the spans and counters give, by name."""
        a = self._arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent],
                              weights=duration[has_parent],
                              minlength=duration.size)
        own = duration - covered

        def mask(*names):
            ids = [self.names.index(n) for n in names if n in self.names]
            return np.isin(a["name"], ids)

        def calls(*names):
            return int(mask(*names).sum())

        def busy(*names):
            return float(duration[mask(*names)].sum())

        def per_call_us(name):
            n = calls(name)
            return busy(name) / n * 1e6 if n else 0.0

        c = self.counts
        m = {}
        for sc in SCENARIOS:
            for kind in KERNELS:
                m[f"kernels.{kind}_{sc}.us_per_call"] = per_call_us(
                    f"kernels.{kind}_{sc}")
        objectives = [f"kernels.objective_{sc}" for sc in SCENARIOS]
        n_obj = calls(*objectives)
        m["kernels.objective.calls"] = n_obj
        m["kernels.objective.penalty_frac"] = (
            c["objective.penalty"] / n_obj if n_obj else 0.0)

        n_max = calls("optimize.maximize")
        evals = c["maximize.evaluations"]
        max_self = float(own[mask("optimize.maximize")].sum())
        m["optimize.maximize.calls"] = n_max
        m["optimize.maximize.evaluations"] = evals
        m["optimize.maximize.evals_per_call"] = evals / n_max if n_max else 0.0
        m["optimize.maximize.converged_frac"] = (
            c["maximize.converged"] / n_max if n_max else 0.0)
        m["optimize.maximize.warm_starts"] = c["maximize.warm_starts"]
        m["optimize.maximize.self_s"] = max_self
        m["optimize.maximize.driver_us_per_eval"] = (
            max_self / evals * 1e6 if evals else 0.0)
        m["optimize.point_from_raw.us_per_call"] = per_call_us(
            "optimize.point_from_raw")
        m["optimize.raw_from_point.calls"] = calls("optimize.raw_from_point")
        m["optimize.grid_oracle.busy_s"] = busy("optimize.grid_oracle")

        m["rates.evaluate_rate.calls"] = calls("rates.evaluate_rate")
        m["rates.evaluate_rate.us_per_call"] = per_call_us(
            "rates.evaluate_rate")
        prefix = "rates.evaluate_rate.raised."
        raised = {k[len(prefix):]: v for k, v in c.items()
                  if k.startswith(prefix)}
        for cls in REJECTIONS:
            m[f"rates.evaluate_rate.rejected.{cls}"] = raised.pop(cls, 0)
        m["rates.evaluate_rate.rejected.other"] = sum(raised.values())

        solves = mask(*SCAN_SPANS)
        n_solves = int(solves.sum())
        scan_ids = np.flatnonzero(solves)
        max_in_solves = int(np.isin(a["parent"][mask("optimize.maximize")],
                                    scan_ids).sum())
        m["scans.self_s"] = float(own[solves].sum())
        m["scans.maximize_per_solve"] = (
            max_in_solves / n_solves if n_solves else 0.0)

        m["cli.self_s"] = float(own[mask("cli.main")].sum())
        m["io_csv.write.busy_s"] = busy("io_csv.write")
        m["io_csv.bytes"] = c["io_csv.bytes"]
        m["trace.spans"] = int(duration.size)
        return m
