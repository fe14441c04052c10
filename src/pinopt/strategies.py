"""Pin-set selection strategies and exhaustive/greedy maximizers.

Every strategy returns a SelectionResult whose lambda1 is the smallest
eigenvalue of the grounded Laplacian for the selected set (averaged
over tie-breaking runs where the strategy is randomized), each
eigensolve clamped into its set's bounds (``bounds.clamp_lambda1``).
The searches compare the raw eigensolves.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .bounds import (
    after_pin_ceilings, bottom_vector, clamp_lambda1, pin_set_ceilings, ritz_block_rows, ritz_ceilings,
)
# BudgetError stays importable from here, where the searches raise it
from .graphs import BudgetError, Graph, GroundedLaplacian, block_rows, check_l, connected_components, ground

__all__ = [
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
# lambda1 values within this of the max tie; the searches break ties by order
TIE_TOL = 1e-9

_betweenness: weakref.WeakKeyDictionary[Graph, np.ndarray] = weakref.WeakKeyDictionary()
# each graph's greedy picks and round lambda1s so far, in round order
_greedy: weakref.WeakKeyDictionary[Graph, tuple[list[int], list[float]]] = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class StrategyConfig:
    """Degree-mix parameters: target size l, the fraction q of it taken from
    the highest degrees, RNG seed, and number of tie-breaking runs to average
    over. l is checked against the graph, by graphs.check_l, where one starts."""

    l: int
    q: float
    seed: int = 0
    runs: int = 1

    def __post_init__(self):
        if not (0.0 <= self.q <= 1.0):
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


def _result(g: Graph, strategy: str, pins, lam: float, seed: int | None = None) -> SelectionResult:
    """The result of a strategy that picks one set, of lambda1 `lam` (an
    eigensolve), which it reports clamped into the set's bounds."""
    pins = tuple(int(v) for v in pins)
    # the pins are valid, so the grounding is built without ground's checks
    keep = np.ones(g.n, dtype=bool)
    keep[list(pins)] = False
    lam = clamp_lambda1(GroundedLaplacian(g, keep), lam)
    return SelectionResult(strategy=strategy, l=len(pins), q=None, seed=seed,
                           pin_set=pins, lambda1=lam, lambda1_runs=(lam,))


def degree_mix_pins(g: Graph, cfg: StrategyConfig, run: int) -> tuple[int, ...]:
    """The degree-mix set of `cfg` (l, q, seed) for one tie-breaking run.

    round(q*l) highest-degree nodes (round-half-to-even) plus the
    l - round(q*l) lowest-degree nodes among the remainder, so the set
    always has exactly l members. Degree ties are broken by a random
    permutation drawn from the stream (seed, run).
    """
    l = cfg.l
    check_l(g, l)
    n_top = round(cfg.q * l)
    deg = g.degrees
    rng = np.random.default_rng([cfg.seed, run])
    tie = rng.permutation(g.n)
    by_top = np.lexsort((tie, -deg))
    rest = by_top[n_top:]
    by_bottom = rest[np.lexsort((tie[rest], deg[rest]))]
    return tuple(np.sort(np.concatenate((by_top[:n_top], by_bottom[: l - n_top]))).tolist())


def select_degree_mix(g: Graph, cfg: StrategyConfig) -> SelectionResult:
    """Degree-mix selection, lambda1 averaged over cfg.runs tie-break runs.

    The run-0 set is the one reported; runs differ only in how degree
    ties are broken. Each run's lambda1 is clamped into its set's bounds.
    """
    pin_sets = [degree_mix_pins(g, cfg, r) for r in range(cfg.runs)]
    runs = tuple(clamp_lambda1(grounded, grounded.lambda1)
                 for grounded in (ground(g, pins) for pins in pin_sets))
    return SelectionResult(strategy="degree_mix", l=cfg.l, q=cfg.q, seed=cfg.seed,
                           pin_set=pin_sets[0], lambda1=float(np.mean(runs)), lambda1_runs=runs)


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Shortest-path betweenness of every node, endpoints excluded.

    Brandes' algorithm: shortest-path counting (`sigma`) over each
    source's BFS DAG, then dependency accumulation (`delta`) from the
    deepest level up. Values count unordered pairs (each source/target
    pair contributes once). Disconnected graphs are fine; pairs in
    different components contribute nothing.

    The searches run level by level over a block of sources at once,
    sized so that its per-node arrays and one level's edge arrays hold
    about ``graphs.BLOCK_BYTES`` (more if one source alone needs it).
    Each float sum keeps the order of the one-source-at-a-time loop, so
    the result is the same to the bit: `sigma[w]` adds its predecessors
    in BFS-queue order, `delta[v]` adds its successors in reverse queue
    order, and `bc` adds the sources in id order.
    """
    n = g.n
    indptr, indices = g.csr
    deg = g.degrees
    chunk = block_rows(8 * max(n, len(indices)))
    bc = np.zeros(n)
    for lo in range(0, n, chunk):
        sources = np.arange(lo, min(n, lo + chunk))
        k = len(sources)
        # node v of the i-th source's search is entry i*n + v
        roots = np.arange(k) * n + sources
        dist = np.full(k * n, -1, dtype=np.intp)
        dist[roots] = 0
        sigma = np.zeros(k * n)
        sigma[roots] = 1.0
        first = np.empty(k * n, dtype=np.intp)
        # per level, its edges to the level above, in reverse queue order
        up_edges = []
        frontier, nodes, depth = roots, sources, 0
        while len(frontier):
            # the frontier's edges in (queue position, neighbour id) order
            cnt = deg[nodes]
            ends = np.cumsum(cnt)
            pos = np.arange(ends[-1]) + np.repeat(indptr[nodes] - (ends - cnt), cnt)
            tail = np.repeat(frontier, cnt)
            nbr = indices[pos]
            head = np.repeat(frontier - nodes, cnt) + nbr
            hd = dist[head]
            # subsets by integer index arrays: on irregular masks they are
            # much faster than boolean indexing
            if depth:
                up = np.flatnonzero(hd == depth - 1)[::-1]
                up_edges.append((head[up], tail[up]))
            new = np.flatnonzero(hd < 0)
            tail, head = tail[new], head[new]
            np.add.at(sigma, head, sigma[tail])
            # the next frontier in discovery order: each node at its first edge
            at = np.arange(len(head))
            first[head] = len(head)
            np.minimum.at(first, head, at)
            found = np.flatnonzero(first[head] == at)
            frontier, nodes = head[found], nbr[new[found]]
            depth += 1
            dist[frontier] = depth
        delta = np.zeros(k * n)
        for v, w in reversed(up_edges):
            np.add.at(delta, v, (sigma[v] / sigma[w]) * (1.0 + delta[w]))
        delta[roots] = 0.0
        for row in delta.reshape(k, n):
            bc += row
    return bc / 2.0


def select_betweenness(g: Graph, l: int) -> SelectionResult:
    """Pin the l nodes of highest betweenness.

    Tie rule: l picks, each the smallest id among the nodes not yet
    picked whose betweenness is at least ``top - TIE_TOL * max(1, top)``,
    where ``top`` is the largest value among them. Values that differ
    only by float noise therefore tie, and ties go to the smaller id.
    A graph's betweenness is computed once, for every l, and kept while it lives.
    """
    check_l(g, l)
    bc = _betweenness.get(g)
    if bc is None:
        bc = _betweenness[g] = betweenness_centrality(g)
        bc.flags.writeable = False
    left = np.ones(g.n, dtype=bool)
    for _ in range(l):
        top = bc[left].max()
        left[np.flatnonzero(left & (bc >= top - TIE_TOL * max(1.0, top)))[0]] = False
    pins = np.flatnonzero(~left)
    return _result(g, "betweenness", pins, ground(g, pins).lambda1)


def _partition_sweep(g: Graph, nbrs: list[list[int]], active: set[int], rng) -> set[int]:
    """One sweep of the dominating partition: the nodes it slates from the working graph `active`."""
    slate: set[int] = set()
    # the isolated nodes of the working graph, its singleton components,
    # go straight into the slate
    for comp in connected_components(g, nodes=active):
        if len(comp) == 1:
            slate.add(comp[0])
            continue
        # a component holds all its nodes' active neighbours: their in-component degree
        deg_in = [sum(u in active for u in nbrs[v]) for v in comp]
        full = [v for v, d in zip(comp, deg_in) if d == len(comp) - 1]
        if full:
            slate.add(full[int(rng.integers(len(full)))])
            continue
        dmin = min(deg_in)
        for v, d in zip(comp, deg_in):
            if d == dmin:
                candidates = [u for u in nbrs[v] if u in active]
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
    ends, ids = (a.tolist() for a in g.csr)
    nbrs = [ids[a:b] for a, b in zip(ends, ends[1:])]
    for attempt in range(64):
        rng = np.random.default_rng([seed, attempt])
        active = set(range(g.n))
        pins: set[int] = set()
        while active:
            slate = _partition_sweep(g, nbrs, active, rng)
            pins |= slate
            active -= slate
            for v in slate:
                active.difference_update(nbrs[v])
        if len(pins) < g.n:
            return _result(g, "dominating_partition", sorted(pins), ground(g, pins).lambda1, seed)
    raise ValueError("every draw pinned all nodes; graph has no dominated partition")


def _pruned_argmax(
    g: Graph, pins: np.ndarray, ceilings: np.ndarray, start: np.ndarray
) -> tuple[int, float]:
    """The winning row of `pins` (k x l node ids, in the order that breaks
    ties) and its lambda1, solving only the rows the ceilings leave open.

    The caller gives every row its first-tier ceiling, `ceilings` (k upper
    bounds on lambda1), and the start vector of its Ritz ceilings, `start`
    (an n-vector). The row of highest ceiling is solved first; best is the
    largest lambda1 solved so far, and a row is open once it has a Ritz
    ceiling and is neither solved nor dropped. The search repeats:
    - If some open row's ceiling reaches the next first-tier ceiling, it
      solves the highest open rows ahead of that next ceiling in a stacked
      batch of 1, 2, 4, ... matrices, as many as fit in ``graphs.BLOCK_BYTES``.
    - Otherwise it walks on down the first-tier ceilings (row order
      within equal ones): at most one Ritz block of rows
      (``bounds.ritz_block_rows``) at the first step and twice as many at
      each next one, and only rows above every open ceiling and above
      best - TIE_TOL. Those get Ritz ceilings (``bounds.ritz_ceilings``)
      from `start` and become open.
    An open row whose ceiling falls below best - TIE_TOL is dropped. The
    search ends when no row is open and the next first-tier ceiling is
    below best - TIE_TOL: no row left can then come within TIE_TOL of the
    max. The winner is the first row whose lambda1 is at least
    max - TIE_TOL, the same row that solving every row would give.
    """
    k, l = pins.shape
    order = np.argsort(-ceilings, kind="stable")
    cap = block_rows(8 * (g.n - l) ** 2)
    # the rows solved so far that were within TIE_TOL of best when solved,
    # and their lambda1; as best only grows, no other row can win
    solved, vals = order[:1].tolist(), g.grounded_lambda1s(pins[order[:1]]).tolist()
    best = vals[0]
    # the open rows in descending order of ceiling
    rows, tight = np.empty(0, np.intp), np.empty(0)
    pos, step, batch = 1, ritz_block_rows(g, l), 1
    while True:
        floor = best - TIE_TOL
        live = np.count_nonzero(tight >= floor)
        rows, tight = rows[:live], tight[:live]
        nxt = ceilings[order[pos]] if pos < k else -np.inf
        if live and tight[0] >= nxt:
            take = min(batch, np.count_nonzero(tight >= nxt))
            got = g.grounded_lambda1s(pins[rows[:take]])
            best = max(best, float(got.max()))
            near = got >= best - TIE_TOL
            solved += rows[:take][near].tolist()
            vals += got[near].tolist()
            rows, tight = rows[take:], tight[take:]
            batch = min(2 * batch, cap)
        elif nxt >= floor:
            new = order[pos:pos + step]
            new = new[ceilings[new] >= (tight[0] if live else floor)]
            pos, step = pos + len(new), 2 * step
            ritz = np.minimum(ceilings[new], ritz_ceilings(g, pins[new], start))
            rows, tight = np.concatenate((rows, new)), np.concatenate((tight, ritz))
            rank = np.argsort(-tight, kind="stable")
            rows, tight = rows[rank], tight[rank]
        else:
            break
    # rows are distinct, so the smallest pair is the smallest row in the window
    return min((row, val) for row, val in zip(solved, vals) if val >= best - TIE_TOL)


def brute_force_max_lambda1(
    g: Graph, l: int, budget: int = BRUTE_FORCE_BUDGET
) -> SelectionResult:
    """Exact max of lambda1 over all pin sets of size l.

    Tie rule: the winner is the lexicographically smallest set whose
    lambda1 is at least max - TIE_TOL, whatever order the sets are
    solved in. Pruning: the search (``_pruned_argmax``) is given each
    set's ceiling ``bounds.pin_set_ceilings`` (min uncontrolled degree,
    mean boundary weight) and the all-ones start; walking down those
    ceilings, only the sets that can still beat the best lambda1 found
    get ``bounds.ritz_ceilings`` from that start, and sets are solved from
    the highest ceiling down until no set left can reach the tie window.
    Refuses to start when C(n, l) exceeds the budget.
    """
    check_l(g, l, budget)
    count = math.comb(g.n, l)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(g.n), l)),
        dtype=np.min_scalar_type(g.n - 1), count=count * l,
    ).reshape(count, l)
    win, lam = _pruned_argmax(g, combos, pin_set_ceilings(g, combos), np.ones(g.n))
    return _result(g, "brute_force", combos[win], lam)


def greedy_max_lambda1(g: Graph, l: int) -> SelectionResult:
    """Grow a pin set one node at a time, maximizing lambda1 each round.

    Tie rule: each round adds the smallest node id whose lambda1 is at
    least that round's max - TIE_TOL. A round is the pruned search that
    ``brute_force_max_lambda1`` runs (``_pruned_argmax``), over the sets
    picks + [v], one per node v not yet pinned, in ascending order of v.
    Each round gives the search a start vector and, as first-tier
    ceilings, the lower of ``bounds.pin_set_ceilings`` and the start's
    ceiling for every set (``bounds.after_pin_ceilings``). The first
    round starts from all ones, as brute force does; each later round
    from the bottom eigenvector of the grounding on the picks, from one
    step of inverse iteration (``bounds.bottom_vector``). A baseline for
    the exhaustive search: never better, often close.

    A round depends only on the rounds before it, so the set for l is the
    first l picks of the set for any larger l: a graph's picks and round
    values are kept while it lives and extended on demand, and a sweep
    over l runs max(l) rounds in all.
    """
    check_l(g, l)
    picks, vals = _greedy.setdefault(g, ([], []))
    free = np.delete(np.arange(g.n), picks)
    for k in range(len(picks), l):
        rows = np.empty((len(free), k + 1), dtype=np.int64)
        rows[:, :k] = picks
        rows[:, k] = free
        # the bottom eigenvector of the last winner, whose lambda1 is vals[-1],
        # bounds each set picks + [v] and starts its Ritz; in round one, all
        # ones, whose ceilings are never below the closed forms
        y = bottom_vector(g, picks, vals[-1]) if k else np.ones(g.n)
        ceilings = np.minimum(pin_set_ceilings(g, rows), after_pin_ceilings(g, y, free))
        win, val = _pruned_argmax(g, rows, ceilings, y)
        picks.append(int(free[win]))
        vals.append(val)
        free = np.delete(free, win)
    # round l solved the grounding of exactly this set
    return _result(g, "greedy", sorted(picks[:l]), vals[l - 1])
