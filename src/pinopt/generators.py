"""Deterministic graph generators for the test families.

Random families take an integer seed and produce bit-identical edge
sets across runs for the same arguments. Every family builds its edges
as an (m, 2) array and hands it to ``build_graph``, and refuses more
than ``graphs.MAX_NODES`` nodes, the most ``parse_edge_list`` accepts,
before it builds anything.
"""

from __future__ import annotations

import numpy as np

from .graphs import MAX_NODES, Graph, build_graph

__all__ = [
    "gen_star",
    "gen_double_star",
    "gen_complete",
    "gen_path",
    "gen_ba",
    "gen_nw",
    "gen_erdos_renyi",
]


def _check_size(n: int) -> None:
    if n > MAX_NODES:
        raise ValueError(f"n={n} exceeds the limit of {MAX_NODES} nodes")


def _pairs(u, v) -> np.ndarray:
    """The edges (u[i], v[i]) as an (m, 2) array; a scalar end is broadcast."""
    return np.stack(np.broadcast_arrays(u, v), axis=1)


def gen_star(n: int) -> Graph:
    """Star on n nodes, node 0 the center."""
    _check_size(n)
    if n < 3:
        raise ValueError(f"star needs n >= 3, got n={n}")
    return build_graph(n, _pairs(0, np.arange(1, n)))


def gen_double_star(k: int) -> Graph:
    """Two stars with k leaves each, hubs joined through a bridge node.

    Node 0 is the bridge, nodes 1 and k+2 are the hubs, nodes 2..k+1
    and k+3..2k+2 their leaves; n = 2k+3 in total.
    """
    _check_size(2 * k + 3)
    if k < 1:
        raise ValueError(f"double star needs k >= 1 leaves per hub, got k={k}")
    hub_a, hub_b = 1, k + 2
    edges = np.concatenate((_pairs(0, [hub_a, hub_b]),
                            _pairs(hub_a, np.arange(2, k + 2)),
                            _pairs(hub_b, np.arange(k + 3, 2 * k + 3))))
    return build_graph(2 * k + 3, edges)


def gen_complete(n: int) -> Graph:
    _check_size(n)
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got n={n}")
    return build_graph(n, _pairs(*np.triu_indices(n, k=1)))


def gen_path(n: int) -> Graph:
    _check_size(n)
    if n < 2:
        raise ValueError(f"path needs n >= 2, got n={n}")
    return build_graph(n, _pairs(np.arange(n - 1), np.arange(1, n)))


def gen_ba(n: int, m0: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph grown from a fully connected seed.

    Starts from the clique on nodes 0..m0-1; each later node attaches to
    m distinct existing nodes sampled with probability proportional to
    current degree (an urn holding one slot per unit of degree, with
    resampling of duplicates within a step). Edge count is therefore
    m0*(m0-1)/2 + m*(n-m0). While every existing node still has degree
    zero (only possible for m0 = 1) the draw falls back to uniform.
    """
    _check_size(n)
    if not (1 <= m <= m0 < n):
        raise ValueError(f"need 1 <= m <= m0 < n, got m={m}, m0={m0}, n={n}")
    rng = np.random.default_rng(seed)
    seed_edges = _pairs(*np.triu_indices(m0, k=1))
    # one entry per endpoint per edge: node i appears deg(i) times
    urn: list[int] = seed_edges.ravel().tolist()
    targets: list[int] = []
    for new in range(m0, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            if urn:
                pick = urn[rng.integers(len(urn))]
            else:
                pick = int(rng.integers(new))
            chosen.add(pick)
        for tgt in sorted(chosen):
            targets.append(tgt)
            urn += (tgt, new)
    grown = _pairs(np.array(targets, dtype=np.int64), np.repeat(np.arange(m0, n), m))
    return build_graph(n, np.concatenate((seed_edges, grown)))


def _row_starts(n: int) -> np.ndarray:
    """Per node u, the position of the pair (u, u+1) in the row-major list
    of the n*(n-1)/2 pairs u < v, the order the random families draw in."""
    u = np.arange(n)
    return u * (2 * n - u - 1) // 2


def _pairs_at(n: int, keep: np.ndarray) -> np.ndarray:
    """The pairs u < v whose positions in the row-major list `keep` marks,
    in that order."""
    t = np.flatnonzero(keep)
    starts = _row_starts(n)
    u = np.searchsorted(starts, t, side="right") - 1
    return _pairs(u, t - starts[u] + u + 1)


def gen_nw(n: int, k: int, p: float, seed: int) -> Graph:
    """Ring lattice plus random shortcuts (small-world without rewiring).

    Every node is wired to its k/2 nearest neighbors on each side of a
    ring; each remaining pair is then added independently with
    probability p. No lattice edge is ever removed, so the minimum
    degree stays >= k.
    """
    _check_size(n)
    if k % 2 != 0 or k < 2:
        raise ValueError(f"lattice degree k must be even and >= 2, got k={k}")
    if not (k < n):
        raise ValueError(f"need k < n, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"shortcut probability must be in [0, 1], got p={p}")
    rng = np.random.default_rng(seed)
    keep = rng.random(n * (n - 1) // 2) < p
    # the lattice pairs (u, u + s mod n), 1 <= s <= k/2
    u = np.repeat(np.arange(n), k // 2)
    v = (u + np.tile(np.arange(1, k // 2 + 1), n)) % n
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep[_row_starts(n)[lo] + hi - lo - 1] = True
    return build_graph(n, _pairs_at(n, keep))


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Independent edges with probability p on each of the n*(n-1)/2 pairs."""
    _check_size(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got p={p}")
    rng = np.random.default_rng(seed)
    return build_graph(n, _pairs_at(n, rng.random(n * (n - 1) // 2) < p))
