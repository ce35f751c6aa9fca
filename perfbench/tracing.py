"""Spans around the calls into swarmfl's layers, recorded from outside.

``Tracer.install`` wraps each named public function at every swarmfl
module that binds it: ``experiments``, ``fl`` and ``saa`` hold their own
``from .x import f`` bindings, so patching only the defining module would
miss their calls.  Each call records a span (name, parent, start, end);
per name the tracer keeps calls, inclusive time and self time (inclusive
minus the time of traced calls nested inside it), plus a few work counters
read from arguments and results.  ``uninstall`` restores every binding.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _draws(args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return "channel.draws", 1 if size is None else int(size)


def _rounds(args, kwargs, result):
    return "fl.rounds", result[0].round


def _dual_iters(args, kwargs, result):
    return "saa.dual_iters", len(result[2].iterations)


def _feasible(args, kwargs, result):
    return "saa.feasible", int(bool(result[0]))


def _csv_bytes(args, kwargs, result):
    return "experiments.csv_bytes", os.path.getsize(args[1])


# (defining module, function, span name, counter read from the call)
TARGETS = [
    ("channel", "draw_channel", "channel.draw_channel", _draws),
    ("channel", "sinr_coefficients", "channel.sinr_coefficients", None),
    ("channel", "link_delays", "channel.link_delays", None),
    ("channel", "estimate_success_probs", "channel.estimate_success_probs", None),
    ("energy", "flight_power", "energy.flight_power", None),
    ("fl", "run_fl", "fl.run_fl", _rounds),
    ("fl", "make_regression_problem", "fl.make_regression_problem", None),
    ("convergence", "convergence_round", "convergence.convergence_round", None),
    ("saa", "solve", "saa.solve", _dual_iters),
    ("saa", "inner_maximize", "saa.inner_maximize", None),
    ("saa", "lagrangian", "saa.lagrangian", None),
    ("saa", "unsmoothed_feasibility", "saa.unsmoothed_feasibility", _feasible),
    ("seeds", "derive_seed", "seeds.derive_seed", None),
    ("scenario", "load_scenario", "scenario.load_scenario", None),
    ("experiments", "experiment_validate_theorem", "experiments.experiment", None),
    ("experiments", "experiment_sweep_sigma", "experiments.experiment", None),
    ("experiments", "experiment_simulate", "experiments.experiment", None),
    ("experiments", "experiment_optimize", "experiments.experiment", None),
    ("experiments", "experiment_compare_designs", "experiments.experiment", None),
    ("experiments", "emit_csv", "experiments.emit_csv", _csv_bytes),
]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, parent span index or -1, start, end]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl_s, self_s
        self.counters = defaultdict(int)
        self._stack = []  # (span index, time spent in traced children)
        self._patched = []

    def span(self, name, fn, args=(), kwargs=None, counter=None):
        """Call fn(*args, **kwargs) inside a span named name."""
        kwargs = kwargs or {}
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            elapsed = end - start
            if self._stack:
                self._stack[-1][1] += elapsed
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - frame[1]
            self.spans.append([name, parent, start, end])
        if counter is not None:
            key, amount = counter(args, kwargs, result)
            self.counters[key] += amount
        return result

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, counter)

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "swarmfl" or key.startswith("swarmfl."))]
        for mod_name, fn_name, span_name, counter in TARGETS:
            original = getattr(sys.modules[f"swarmfl.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def self_s(self, name):
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def to_json(self):
        return {
            "stats": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }
