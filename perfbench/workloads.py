"""The four workloads, each a deck of ``pinopt`` command lines.

A deck is a fixed list of commands that the driver cycles through. The
sizes of its commands follow a fixed schedule, so their cost hardly
depends on the seed; the seed draws the graphs, pin sets, parameters
and per-command seeds. ``build`` writes the input files a deck needs
and returns the commands together with what ``verify`` needs to check
their output. On a 2-core x86 box with one BLAS thread a pass over a
full deck takes 3 s (analyze) to 16 s (sweep); a smoke deck, well under
one second.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import graphgen

WORKLOADS = ("sweep", "search", "simulate", "analyze")
SIZES = ("full", "smoke")
FAMILIES = ("ba", "nw", "er")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``kind`` names its template, ``argv`` goes to
    ``pinopt.cli.main``, ``graph`` and ``params`` are for the checks."""

    kind: str
    argv: tuple[str, ...]
    graph: graphgen.Graph | None = None
    params: dict = field(default_factory=dict)


def schedule(lo: int, hi: int, k: int) -> list[int]:
    """k sizes spaced geometrically over [lo, hi], visited in a strided
    order so that consecutive commands alternate small and large."""
    if k == 1:
        return [lo]
    grid = [round(lo * (hi / lo) ** (j / (k - 1))) for j in range(k)]
    stride = round(0.618 * k)  # golden-ratio stride, nudged up to be coprime with k
    while np.gcd(stride, k) != 1:
        stride += 1
    return [grid[(i * stride) % k] for i in range(k)]


def interleave(*groups: list[Command]) -> list[Command]:
    """Round-robin merge, so every stretch of the deck mixes templates."""
    out: list[Command] = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


class _Deck:
    """Writes one deck's input files and draws its random choices."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.files = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, g: graphgen.Graph) -> str:
        path = os.path.join(self.workdir, f"g{self.files:03d}.txt")
        self.files += 1
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(g.text())
        return path

    def graph(self, i: int, n: int) -> graphgen.Graph:
        return graphgen.family(FAMILIES[i % len(FAMILIES)], n, self.rng)

    def seed(self) -> str:
        return str(int(self.rng.integers(1_000_000)))

    def pins(self, n: int, l: int) -> tuple[int, ...]:
        return tuple(sorted(int(v) for v in self.rng.choice(n, size=l, replace=False)))


# -- sweep: the paper's q-crossover experiment --------------------------------

def _sweep(d: _Deck, smoke: bool) -> list[Command]:
    cmds = []
    for i, n in enumerate(schedule(40, 80, 3) if smoke else schedule(300, 800, 30)):
        g = d.graph(i, n)
        lo, step = round(0.1 * n), round(0.4 * n)
        ls = [lo, lo + step, lo + 2 * step]
        argv = ("sweep", d.write(g), "--strategy", "degree_mix", "--l-range",
                f"{lo}:{ls[-1]}:{step}", "--q", "0,0.5,1", "--runs", "3", "--seed", d.seed())
        cmds.append(Command("sweep", argv, g, {"ls": ls, "qs": [0.0, 0.5, 1.0]}))
    return cmds


# -- search: pin-set maximisers and rankings -----------------------------------

def _select(d: _Deck, strategy: str, g: graphgen.Graph, l: int | None, path: str | None = None):
    argv = ("select", path or d.write(g), "--strategy", strategy)
    if l is not None:
        argv += ("--l", str(l))
    if strategy == "dominating":
        argv += ("--seed", d.seed())
    return Command(f"select.{strategy}", argv, g, {"l": l})


def _search(d: _Deck, smoke: bool) -> list[Command]:
    dol = graphgen.dolphins()
    dol_path = d.write(dol)
    if smoke:
        return [_select(d, "brute_force", dol, 1, dol_path),
                _select(d, "brute_force", d.graph(0, 12), 2),
                _select(d, "greedy", d.graph(1, 20), 2),
                _select(d, "betweenness", d.graph(2, 30), 2),
                _select(d, "dominating", d.graph(0, 30), None)]
    brute = [_select(d, "brute_force", dol, 2, dol_path)]
    brute += [_select(d, "brute_force", d.graph(i, n), 3) for i, n in enumerate(schedule(30, 36, 5))]
    brute += [_select(d, "brute_force", d.graph(i, n), 2) for i, n in enumerate(schedule(38, 45, 5))]
    greedy = [_select(d, "greedy", d.graph(i, n), 3) for i, n in enumerate(schedule(60, 150, 11))]
    betw = [_select(d, "betweenness", d.graph(i, n), n // 20) for i, n in enumerate(schedule(200, 400, 7))]
    dom = [_select(d, "dominating", d.graph(i, n), None) for i, n in enumerate(schedule(60, 400, 11))]
    return interleave(brute, greedy, betw, dom)


# -- simulate: RK4 runs, linear with constant gains and Chua with adaptive ------

LINEAR_T = 12.0
# Accepted linear tuples have mu >= MU_UNSTABLE or mu * T <= -MU_T_STABLE, so
# the run is long enough for the verdict to follow the oracle's sign: starting
# errors are at most sqrt(62) in norm, and exp(-20) * sqrt(62) < 1e-6.
MU_UNSTABLE = 0.1
MU_T_STABLE = 20.0


def _oracle_mu(g: graphgen.Graph, pins, a: float, c: float, d: float) -> float:
    """Largest eigenvalue of a*I - c*(L + D), D = d on the pinned diagonal."""
    m = -c * g.laplacian()
    m[list(pins), list(pins)] -= c * d
    m[np.diag_indices(g.n)] += a
    return float(np.linalg.eigvalsh(m)[-1])


def _linear(d: _Deck, g: graphgen.Graph, stable: bool, t_end: float = LINEAR_T) -> Command:
    rng = d.rng
    for _ in range(500):
        pins = d.pins(g.n, int(rng.integers(max(1, g.n // 6), g.n // 2 + 1)))
        a = float(rng.uniform(0.2, 1.0))
        c = float(rng.uniform(1.5, 4.0) if stable else rng.uniform(0.2, 1.0))
        gain = float(rng.uniform(2.0, 8.0) if stable else rng.uniform(0.0, 2.0))
        mu = _oracle_mu(g, pins, a, c, gain)
        if (mu * t_end <= -MU_T_STABLE) if stable else (mu >= MU_UNSTABLE):
            break
    else:
        raise RuntimeError(f"no {'stable' if stable else 'unstable'} linear tuple on n={g.n}")
    dmax = float(np.bincount(g.edges.ravel(), minlength=g.n).max())
    dt = min(1e-2, 2.5 / (c * (2.0 * dmax + gain)))  # RK4 stability, Gershgorin cap
    argv = ("simulate", d.write(g), "--pins", ",".join(map(str, pins)),
            "--dynamics", "linear_unstable", "--a", repr(a), "--controller", "linear",
            "--c", repr(c), "--d", repr(gain), "--dt", repr(dt), "--T", repr(t_end),
            "--seed", d.seed())
    return Command("simulate.linear", argv, g, {"mu": mu})


def _chua(d: _Deck, g: graphgen.Graph, t_end: float) -> Command:
    rng = d.rng
    pins = d.pins(g.n, int(rng.integers(1, g.n // 4 + 2)))
    argv = ("simulate", d.write(g), "--pins", ",".join(map(str, pins)),
            "--dynamics", "chua", "--controller", "adaptive",
            "--c", repr(float(rng.uniform(2.0, 8.0))), "--h", repr(float(rng.uniform(1.0, 10.0))),
            "--dt", "0.001", "--T", repr(t_end), "--seed", d.seed())
    return Command("simulate.chua", argv, g)


def _simulate(d: _Deck, smoke: bool) -> list[Command]:
    if smoke:
        # short runs: too short to certify a stable tuple, so both are unstable
        return [_linear(d, d.graph(0, 10), False, 1.0), _chua(d, d.graph(1, 10), 0.05),
                _linear(d, d.graph(2, 12), False, 1.0), _chua(d, d.graph(0, 12), 0.05)]
    dol = graphgen.dolphins()
    linear, chua = [], []
    for i, n in enumerate(schedule(10, 62, 30)):
        g = dol if n == 62 else d.graph(i, n)
        linear.append(_linear(d, g, stable=i % 2 == 0))
        g = dol if n == 62 else d.graph(i + 1, n)
        chua.append(_chua(d, g, 0.5))
    return interleave(linear, chua)


# -- analyze: one-shot generate and analyze commands ---------------------------

def _gen(d: _Deck, i: int, n: int) -> Command:
    fams = ("ba", "nw", "erdos_renyi", "star", "path", "double_star", "complete")
    fam = fams[i % len(fams)]
    if fam == "complete":
        n = min(n, 120)  # n*(n-1)/2 edges: keep the output near the others' size
    flags = {
        "ba": ("--n", str(n), "--m0", "4", "--m", "3"),
        "nw": ("--n", str(n), "--K", "4", "--p", repr(3.0 / n)),
        "erdos_renyi": ("--n", str(n), "--p", repr(6.0 / n)),
        "star": ("--n", str(n)),
        "path": ("--n", str(n)),
        "double_star": ("--k", str((n - 3) // 2)),
        "complete": ("--n", str(n)),
    }[fam]
    argv = ("gen", "--family", fam) + flags + ("--seed", d.seed())
    nodes = 2 * ((n - 3) // 2) + 3 if fam == "double_star" else n
    return Command("gen", argv, None, {"family": fam, "n": nodes})


def _analyze(d: _Deck, smoke: bool) -> list[Command]:
    sizes = schedule(20, 60, 2) if smoke else schedule(60, 1000, 30)
    gens = [_gen(d, i, n) for i, n in enumerate(sizes * 2)]
    analyses = []
    for i, n in enumerate(sizes):
        g = d.graph(i, n)
        path = d.write(g)
        for l in (1, max(2, n // 10)):
            pins = d.pins(n, l)
            argv = ("analyze", path, "--pins", ",".join(map(str, pins)))
            alpha = None
            if l > 1:
                alpha = round(float(d.rng.uniform(0.05, 1.0)), 3)
                argv += ("--alpha-over-c", repr(alpha))
            analyses.append(Command("analyze", argv, g, {"pins": pins, "alpha_over_c": alpha}))
    return interleave(gens, analyses)


_BUILDERS = {"sweep": _sweep, "search": _search, "simulate": _simulate, "analyze": _analyze}


def build(workload: str, seed: int, size: str, workdir: str) -> list[Command]:
    """The deck of ``workload`` at ``size``, its input files written under ``workdir``."""
    return _BUILDERS[workload](_Deck(seed, workdir), size == "smoke")
