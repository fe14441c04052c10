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

from .bounds import after_pin_ceilings, bottom_vector, pin_set_ceilings, ritz_ceilings
# BudgetError stays importable from here, where the searches raise it
from .graphs import BudgetError, Graph, check_l, connected_components, ground

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
# bytes of grounded matrices stacked into one eigensolve, at most
BATCH_BYTES = 128 * 1024
# rows given Ritz ceilings per step of the pruned search's walk down the
# first-tier ceilings: the first step's count, and the most any step takes
LAZY_ROWS = (128, 4096)
# betweenness runs its sources in chunks whose per-node arrays and per-level
# edge arrays hold about this many entries (more if one source alone needs it)
CHUNK_ENTRIES = 1 << 15


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


def _result(strategy: str, pins, lam: float, seed: int | None = None) -> SelectionResult:
    """The result of a strategy that picks one set, of lambda1 `lam`."""
    pins = tuple(int(v) for v in pins)
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
    ties are broken.
    """
    if cfg.q is None:
        raise ValueError("degree mix needs q in [0, 1]")
    pin_sets = [degree_mix_pins(g, cfg, r) for r in range(cfg.runs)]
    runs = tuple(ground(g, pins).lambda1 for pins in pin_sets)
    return SelectionResult(strategy="degree_mix", l=cfg.l, q=cfg.q, seed=cfg.seed,
                           pin_set=pin_sets[0], lambda1=float(np.mean(runs)), lambda1_runs=runs)


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Shortest-path betweenness of every node, endpoints excluded.

    Brandes' algorithm: shortest-path counting (`sigma`) over each
    source's BFS DAG, then dependency accumulation (`delta`) from the
    deepest level up. Values count unordered pairs (each source/target
    pair contributes once). Disconnected graphs are fine; pairs in
    different components contribute nothing.

    The searches run level by level over a chunk of sources at once,
    with the chunk sized so that the per-node arrays and one level's
    edge arrays hold about CHUNK_ENTRIES entries. Each float sum keeps
    the order of the one-source-at-a-time loop, so the result is the
    same to the bit: `sigma[w]` adds its predecessors in BFS-queue
    order, `delta[v]` adds its successors in reverse queue order, and
    `bc` adds the sources in id order.
    """
    n = g.n
    indptr, indices = g.csr
    deg = np.diff(indptr)
    chunk = max(1, CHUNK_ENTRIES // max(n, len(indices)))
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
    """
    check_l(g, l)
    bc = betweenness_centrality(g)
    left = np.ones(g.n, dtype=bool)
    for _ in range(l):
        top = bc[left].max()
        left[np.flatnonzero(left & (bc >= top - TIE_TOL * max(1.0, top)))[0]] = False
    pins = np.flatnonzero(~left)
    return _result("betweenness", pins, ground(g, pins).lambda1)


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
            return _result("dominating_partition", sorted(pins), ground(g, pins).lambda1, seed)
    raise ValueError("every draw pinned all nodes; graph has no dominated partition")


def _pruned_argmax(
    g: Graph, pins: np.ndarray, tighter: np.ndarray | None = None, start: np.ndarray | None = None
) -> tuple[int, float]:
    """The winning row of `pins` (k x l node ids, in the order that breaks
    ties) and its lambda1, solving only the rows the ceilings leave open.

    Every row gets a first-tier ceiling, the closed form
    ``bounds.pin_set_ceilings`` or `tighter` (k upper bounds) where that
    is lower, and the row of highest ceiling is solved first; best is the
    largest lambda1 solved so far, and a row is open once it has a Ritz
    ceiling and is neither solved nor dropped. The search repeats:
    - If some open row's ceiling reaches the next first-tier ceiling, it
      solves the highest open rows ahead of that next ceiling in a stacked
      batch of 1, 2, 4, ... matrices, up to BATCH_BYTES.
    - Otherwise it walks on down the first-tier ceilings (row order
      within equal ones): at most LAZY_ROWS[0] rows at the first step and
      twice as many at each next one, up to LAZY_ROWS[1], and only rows
      above every open ceiling and above best - TIE_TOL. Those get Ritz
      ceilings (``bounds.ritz_ceilings``) from `start`, all ones if None,
      and become open.
    An open row whose ceiling falls below best - TIE_TOL is dropped. The
    search ends when no row is open and the next first-tier ceiling is
    below best - TIE_TOL: no row left can then come within TIE_TOL of the
    max. The winner is the first row whose lambda1 is at least
    max - TIE_TOL, the same row that solving every row would give.
    """
    k, l = pins.shape
    ceilings = pin_set_ceilings(g, pins)
    if tighter is not None:
        ceilings = np.minimum(ceilings, tighter)
    order = np.argsort(-ceilings, kind="stable")
    cap = max(1, BATCH_BYTES // (8 * (g.n - l) ** 2))
    # the rows solved so far within TIE_TOL of best, and their lambda1
    near, near_vals = order[:1], g.grounded_lambda1s(pins[order[:1]])
    best = float(near_vals[0])
    # the open rows in descending order of ceiling
    rows, tight = np.empty(0, np.intp), np.empty(0)
    pos, step, batch = 1, LAZY_ROWS[0], 1
    while True:
        floor = best - TIE_TOL
        live = np.count_nonzero(tight >= floor)
        rows, tight = rows[:live], tight[:live]
        nxt = ceilings[order[pos]] if pos < k else -np.inf
        if live and tight[0] >= nxt:
            take = min(batch, np.count_nonzero(tight >= nxt))
            vals = g.grounded_lambda1s(pins[rows[:take]])
            best = max(best, float(vals.max()))
            near, near_vals = np.concatenate((near, rows[:take])), np.concatenate((near_vals, vals))
            tied = near_vals >= best - TIE_TOL
            near, near_vals = near[tied], near_vals[tied]
            rows, tight = rows[take:], tight[take:]
            batch = min(2 * batch, cap)
        elif nxt >= floor:
            new = order[pos:pos + step]
            new = new[ceilings[new] >= (tight[0] if live else floor)]
            pos, step = pos + len(new), min(2 * step, LAZY_ROWS[1])
            ritz = np.minimum(ceilings[new], ritz_ceilings(g, pins[new], start=start))
            rows, tight = np.concatenate((rows, new)), np.concatenate((tight, ritz))
            rank = np.argsort(-tight, kind="stable")
            rows, tight = rows[rank], tight[rank]
        else:
            break
    win = np.argmin(near)
    return int(near[win]), float(near_vals[win])


def brute_force_max_lambda1(
    g: Graph, l: int, budget: int = BRUTE_FORCE_BUDGET
) -> SelectionResult:
    """Exact max of lambda1 over all pin sets of size l.

    Tie rule: the winner is the lexicographically smallest set whose
    lambda1 is at least max - TIE_TOL, whatever order the sets are
    solved in. Pruning: every set gets the ceiling
    ``bounds.pin_set_ceilings`` (min uncontrolled degree, mean boundary
    weight); walking down those ceilings, only the sets that can still
    beat the best lambda1 found get ``bounds.ritz_ceilings`` from the
    all-ones vector, and sets are solved from the highest ceiling down
    until no set left can reach the tie window (``_pruned_argmax``).
    Refuses to start when C(n, l) exceeds the budget.
    """
    check_l(g, l, budget)
    count = math.comb(g.n, l)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(g.n), l)),
        dtype=np.min_scalar_type(g.n - 1), count=count * l,
    ).reshape(count, l)
    win, lam = _pruned_argmax(g, combos)
    return _result("brute_force", combos[win], lam)


def greedy_max_lambda1(g: Graph, l: int) -> SelectionResult:
    """Grow a pin set one node at a time, maximizing lambda1 each round.

    Tie rule: each round adds the smallest node id whose lambda1 is at
    least that round's max - TIE_TOL. A round is the pruned search that
    ``brute_force_max_lambda1`` runs, over the sets current + [v], one
    per node v not yet pinned, in ascending order of v; from the second
    round on, the bottom eigenvector of the grounding on current, from
    one step of inverse iteration (``bounds.bottom_vector``), gives every
    set a ceiling (``bounds.after_pin_ceilings``) and starts its Ritz
    ceiling. A baseline for the exhaustive search: never better, often
    close.
    """
    check_l(g, l)
    current: list[int] = []
    free = np.arange(g.n)
    for k in range(l):
        rows = np.empty((len(free), k + 1), dtype=np.int64)
        rows[:, :k] = current
        rows[:, k] = free
        if k:
            # the bottom eigenvector of the last winner, whose lambda1 is val,
            # near enough, bounds each set current + [v] and starts its Ritz
            y = bottom_vector(g, current, val)
            win, val = _pruned_argmax(g, rows, after_pin_ceilings(g, y, free), y)
        else:
            win, val = _pruned_argmax(g, rows)
        current.append(int(free[win]))
        free = np.delete(free, win)
    # the last round solved the grounding of exactly this set
    return _result("greedy", sorted(current), val)
