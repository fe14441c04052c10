"""Pin-set selection strategies and exhaustive/greedy maximizers.

Every strategy returns a SelectionResult whose lambda1 is the smallest
eigenvalue of the grounded Laplacian for the selected set (averaged
over tie-breaking runs where the strategy is randomized).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .graphs import Graph, connected_components

__all__ = [
    "BudgetError",
    "StrategyConfig",
    "SelectionResult",
    "degree_mix_pins",
    "select_degree_mix",
    "select_betweenness",
    "betweenness_centrality",
    "dominating_partition",
    "brute_force_max_lambda1",
    "greedy_max_lambda1",
]

BRUTE_FORCE_BUDGET = 2_000_000


class BudgetError(RuntimeError):
    """Raised when an exhaustive search would exceed its subset budget."""


@dataclass(frozen=True)
class StrategyConfig:
    """Selection parameters: target size l, degree-mix fraction q,
    RNG seed, and number of tie-breaking runs to average over."""

    l: int
    q: float | None = None
    seed: int = 0
    runs: int = 1

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"need l >= 1, got l={self.l}")
        if self.q is not None and not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got q={self.q}")
        if self.runs < 1:
            raise ValueError(f"need runs >= 1, got runs={self.runs}")


@dataclass(frozen=True)
class SelectionResult:
    strategy: str
    l: int
    q: float | None
    seed: int | None
    pin_set: tuple[int, ...]
    lambda1: float
    lambda1_runs: tuple[float, ...]

    def to_json(self) -> str:
        d = asdict(self)
        if self.q is None:
            del d["q"]
        return json.dumps(d)


def _check_l(g: Graph, l: int) -> None:
    if not (1 <= l <= g.n - 1):
        raise ValueError(f"need 1 <= l <= n-1, got l={l} for n={g.n}")


def degree_mix_pins(g: Graph, l: int, q: float, seed: int, run: int) -> tuple[int, ...]:
    """The degree-mix set for one tie-breaking run.

    round(q*l) highest-degree nodes (round-half-to-even) plus the
    l - round(q*l) lowest-degree nodes among the remainder, so the set
    always has exactly l members. Degree ties are broken by a random
    permutation drawn from the stream (seed, run).
    """
    _check_l(g, l)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must be in [0, 1], got q={q}")
    n_top = round(q * l)
    deg = g.degrees
    rng = np.random.default_rng([seed, run])
    tie = rng.permutation(g.n)
    by_top = np.lexsort((tie, -deg))
    picked = list(by_top[:n_top])
    rest = by_top[n_top:]
    by_bottom = rest[np.lexsort((tie[rest], deg[rest]))]
    picked += list(by_bottom[: l - n_top])
    return tuple(sorted(int(v) for v in picked))


def select_degree_mix(g: Graph, cfg: StrategyConfig) -> SelectionResult:
    """Degree-mix selection, lambda1 averaged over cfg.runs tie-break runs.

    The run-0 set is the one reported; runs differ only in how degree
    ties are broken.
    """
    if cfg.q is None:
        raise ValueError("degree mix needs q in [0, 1]")
    runs: list[float] = []
    first: tuple[int, ...] | None = None
    for r in range(cfg.runs):
        pins = degree_mix_pins(g, cfg.l, cfg.q, cfg.seed, r)
        if first is None:
            first = pins
        runs.append(g.context.ground(pins).lambda1)
    assert first is not None
    return SelectionResult(
        strategy="degree_mix",
        l=cfg.l,
        q=cfg.q,
        seed=cfg.seed,
        pin_set=first,
        lambda1=float(np.mean(runs)),
        lambda1_runs=tuple(runs),
    )


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Shortest-path betweenness of every node, endpoints excluded.

    Single-source shortest-path counting with pair-dependency
    accumulation over the BFS DAG. Values count unordered pairs (each
    source/target pair contributes once). Disconnected graphs are fine;
    pairs in different components contribute nothing.
    """
    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    nbrs = g.neighbors
    for s in range(n):
        # BFS from s, recording predecessor lists and path counts
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        preds: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        # dependency accumulation in reverse BFS order
        delta = np.zeros(n)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc / 2.0


def select_betweenness(g: Graph, l: int) -> SelectionResult:
    """Pin the l nodes of highest betweenness, ties to the smaller id."""
    _check_l(g, l)
    bc = betweenness_centrality(g)
    order = np.lexsort((np.arange(g.n), -bc))
    pins = tuple(sorted(int(v) for v in order[:l]))
    lam = g.context.ground(pins).lambda1
    return SelectionResult(
        strategy="betweenness",
        l=l,
        q=None,
        seed=None,
        pin_set=pins,
        lambda1=lam,
        lambda1_runs=(lam,),
    )


def _partition_sweep(g: Graph, active: set[int], rng) -> set[int]:
    """One sweep of the dominating partition: returns the nodes slated
    for the pin set from the current working graph."""
    nbrs = g.neighbors
    slate: set[int] = set()
    # the isolated nodes of the working graph, its singleton components,
    # go straight into the slate
    for comp in connected_components(g, nodes=active):
        if len(comp) == 1:
            slate.add(comp[0])
            continue
        comp_set = set(comp)
        deg_in = {v: sum(1 for u in nbrs[v] if u in comp_set) for v in comp}
        full = [v for v in comp if deg_in[v] == len(comp) - 1]
        if full:
            slate.add(full[int(rng.integers(len(full)))])
            continue
        dmin = min(deg_in.values())
        for v in comp:
            if deg_in[v] != dmin:
                continue
            candidates = [u for u in nbrs[v] if u in comp_set]
            slate.add(candidates[int(rng.integers(len(candidates)))])
    return slate


def dominating_partition(g: Graph, seed: int = 0) -> SelectionResult:
    """Grow a pin set that dominates the graph; the set size is an output.

    Repeatedly: slate all isolated nodes of the working graph; per
    component slate one node adjacent to the whole component if any
    exists (random among candidates), otherwise slate one random
    neighbor of each minimum-degree node (ascending id order, a node
    already slated this sweep is not re-added); then remove slated
    nodes and their neighbors and repeat until nothing is left. Every
    uncontrolled node ends up with at least one pinned neighbor, so
    lambda1 >= 1.

    A draw that slates every single node (possible only on small highly
    symmetric graphs such as short cycles) leaves nothing uncontrolled
    and is redrawn from the next substream.
    """
    if g.n < 2:
        raise ValueError("need at least two nodes")
    nbrs = g.neighbors
    for attempt in range(64):
        rng = np.random.default_rng([seed, attempt])
        active = set(range(g.n))
        pins: set[int] = set()
        while active:
            slate = _partition_sweep(g, active, rng)
            pins |= slate
            removed = set(slate)
            for v in slate:
                removed.update(u for u in nbrs[v] if u in active)
            active -= removed
        if len(pins) < g.n:
            sel = tuple(sorted(pins))
            lam = g.context.ground(sel).lambda1
            return SelectionResult(
                strategy="dominating_partition",
                l=len(sel),
                q=None,
                seed=seed,
                pin_set=sel,
                lambda1=lam,
                lambda1_runs=(lam,),
            )
    raise ValueError("every draw pinned all nodes; graph has no dominated partition")


def brute_force_max_lambda1(
    g: Graph, l: int, budget: int = BRUTE_FORCE_BUDGET
) -> SelectionResult:
    """Exact max of lambda1 over all pin sets of size l.

    Enumerates subsets in lexicographic order; ties at equal lambda1
    resolve toward the lexicographically smallest subset. Refuses to
    start when C(n, l) exceeds the budget.
    """
    _check_l(g, l)
    count = math.comb(g.n, l)
    if count > budget:
        raise BudgetError(
            f"C({g.n}, {l}) = {count} subsets exceeds the budget of {budget}"
        )
    lap = g.context.laplacian
    all_idx = np.arange(g.n)
    best_val = -np.inf
    best: tuple[int, ...] | None = None
    mask = np.ones(g.n, dtype=bool)
    for combo in itertools.combinations(range(g.n), l):
        mask[:] = True
        mask[list(combo)] = False
        keep = all_idx[mask]
        val = float(np.linalg.eigvalsh(lap[np.ix_(keep, keep)])[0])
        if val > best_val:
            best_val = val
            best = combo
    assert best is not None
    return SelectionResult(
        strategy="brute_force",
        l=l,
        q=None,
        seed=None,
        pin_set=best,
        lambda1=best_val,
        lambda1_runs=(best_val,),
    )


def greedy_max_lambda1(g: Graph, l: int) -> SelectionResult:
    """Grow a pin set one node at a time, maximizing lambda1 each round.

    Ties go to the smallest node id. A baseline for the exhaustive
    search: never better, often close.
    """
    _check_l(g, l)
    ctx = g.context
    current: list[int] = []
    for _ in range(l):
        best_v, best_val = -1, -np.inf
        for v in range(g.n):
            if v in current:
                continue
            val = ctx.ground(current + [v]).lambda1
            if val > best_val:
                best_val, best_v = val, v
        current.append(best_v)
    pins = tuple(sorted(current))
    lam = ctx.ground(pins).lambda1
    return SelectionResult(
        strategy="greedy",
        l=l,
        q=None,
        seed=None,
        pin_set=pins,
        lambda1=lam,
        lambda1_runs=(lam,),
    )
