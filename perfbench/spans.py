"""Spans around pinopt's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
module that holds it under any name (``eig_sym`` lives in ``bounds``,
``strategies`` and ``sync`` as well as ``spectra``), and wraps
``numpy.linalg.eigvalsh``/``eigh`` because some searches call numpy
directly. ``restore`` puts every original back. Spans stay in memory;
``layer_metrics`` reduces them to the per-layer table.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from time import perf_counter

import numpy as np

MARK = "__perfbench_original__"
LAPACK = ("numpy.linalg.eigvalsh", "numpy.linalg.eigh")
SEARCHES = ("strategies.brute_force_max_lambda1", "strategies.greedy_max_lambda1")

# (module, function) pairs to trace; every generators.gen_* is added at install.
TRACED = [
    ("pinopt.cli", "main"),
    ("pinopt.graphs", "parse_edge_list"),
    ("pinopt.graphs", "laplacian"),
    ("pinopt.graphs", "ground"),
    ("pinopt.graphs", "boundary_weights"),
    ("pinopt.spectra", "eig_sym"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("pinopt.bounds", "upper_by_spectrum"),
    ("pinopt.bounds", "boundary_bounds"),
    ("pinopt.bounds", "upper_by_min_degree"),
    ("pinopt.bounds", "bound_report"),
    ("pinopt.strategies", "brute_force_max_lambda1"),
    ("pinopt.strategies", "greedy_max_lambda1"),
    ("pinopt.strategies", "betweenness_centrality"),
    ("pinopt.strategies", "dominating_partition"),
    ("pinopt.strategies", "degree_mix_pins"),
    ("pinopt.sync", "simulate"),
]


def _span_name(module: str, fn: str) -> str:
    return f"{module.removeprefix('pinopt.')}.{fn}"


def wrappers_left() -> list[str]:
    """Names in pinopt's modules and numpy.linalg still bound to a wrapper."""
    return [f"{name}.{attr}" for name, mod in _modules()
            for attr, val in vars(mod).items() if hasattr(val, MARK)]


def _modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "numpy.linalg" or name.split(".")[0] == "pinopt")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.command: list[int] = []
        self.current_command = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.eig_orders: list[int] = []
        self.candidates = 0
        self.rk4_steps = 0
        self.f_calls = 0

    # -- installing --------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1])
            tracer.command.append(tracer.current_command)
            tracer.end.append(math.nan)
            tracer._stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()
            if note is not None:
                note(args, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for _, mod in _modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        gens = sys.modules["pinopt.generators"]
        targets = TRACED + [("pinopt.generators", f) for f in gens.__all__ if f.startswith("gen_")]
        notes = {
            "numpy.linalg.eigvalsh": self._note_eig,
            "numpy.linalg.eigh": self._note_eig,
            "strategies.brute_force_max_lambda1": self._note_brute,
            "strategies.greedy_max_lambda1": self._note_greedy,
            "sync.simulate": self._note_simulate,
        }
        for module, fn in targets:
            original = getattr(sys.modules[module], fn)
            name = _span_name(module, fn)
            self._rebind(original, self._wrap(name, original, notes.get(name)))
        sync = sys.modules["pinopt.sync"]
        for factory in ("linear_unstable", "chua"):
            self._rebind(getattr(sync, factory), self._counting_factory(getattr(sync, factory)))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- counters ----------------------------------------------------------

    def _note_eig(self, args, result) -> None:
        self.eig_orders.append(int(np.shape(args[0])[-1]))

    def _note_brute(self, args, result) -> None:
        self.candidates += math.comb(args[0].n, args[1])

    def _note_greedy(self, args, result) -> None:
        n, l = args[0].n, args[1]
        self.candidates += sum(n - k for k in range(l))

    def _note_simulate(self, args, result) -> None:
        cfg = args[3]
        stop = cfg.t_end if result.blowup_time is None else result.blowup_time
        self.rk4_steps += max(1, round(stop / cfg.dt))

    def _counting_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            dyn = factory(*args, **kwargs)
            f = dyn.f

            def counted(x):
                tracer.f_calls += 1
                return f(x)

            return dataclasses.replace(dyn, f=counted)

        setattr(make, MARK, factory)
        return make

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        child_time = np.zeros(len(dur) + 1)
        np.add.at(child_time, parent, dur)  # index -1 collects the roots
        self_time = dur - child_time[:-1]

        def pick(*span_names):
            return np.isin(names, span_names)

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        lapack = pick(*LAPACK)
        out["spectra.eig.calls"] = int(lapack.sum())
        out["spectra.eig.s"] = float(dur[lapack].sum())
        out["spectra.eig.order_mean"] = ratio(sum(self.eig_orders), len(self.eig_orders))
        out["spectra.eig_sym.overhead_s"] = float(self_time[pick("spectra.eig_sym")].sum())
        for name in ("graphs.ground", "graphs.boundary_weights", "graphs.laplacian",
                     "graphs.parse_edge_list", "bounds.upper_by_spectrum", "bounds.boundary_bounds",
                     "bounds.upper_by_min_degree", "bounds.bound_report"):
            sel = pick(name)
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.s"] = float(dur[sel].sum())
        out["cli.self_s"] = float(self_time[pick("cli.main")].sum())
        for short, name in (("brute_force", "brute_force_max_lambda1"), ("greedy", "greedy_max_lambda1"),
                            ("betweenness_centrality", "betweenness_centrality"),
                            ("dominating", "dominating_partition"), ("degree_mix_pins", "degree_mix_pins")):
            out[f"strategies.{short}.s"] = float(dur[pick(f"strategies.{name}")].sum())
        in_search = [self._has_ancestor(i, SEARCHES) for i in np.flatnonzero(lapack)]
        out["strategies.eig_per_candidate"] = ratio(sum(in_search), self.candidates)
        sim_s = float(dur[pick("sync.simulate")].sum())
        out["sync.rk4_steps"] = self.rk4_steps
        out["sync.us_per_step"] = ratio(sim_s * 1e6, self.rk4_steps)
        out["sync.f_calls_per_step"] = ratio(self.f_calls, self.rk4_steps)
        gen = np.array([n.startswith("generators.gen_") for n in self.names], dtype=bool)
        out["generators.gen.calls"] = int(gen.sum())
        out["generators.gen.s"] = float(dur[gen].sum())
        out["trace.spans"] = len(self.names)
        return out

    def _has_ancestor(self, sid: int, wanted) -> bool:
        p = self.parent[sid]
        while p >= 0:
            if self.names[p] in wanted:
                return True
            p = self.parent[p]
        return False
