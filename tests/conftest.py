"""Shared test helpers: seeded random graphs and slow independent oracles.

Oracles here are deliberately naive (path enumeration, inverse iteration)
so they share no code path with the implementations they check.
"""

import numpy as np

from pinopt.graphs import Graph, build_graph


def rand_connected(rng: np.random.Generator, n: int, extra: int = 0) -> Graph:
    """Random connected graph: a uniform random tree plus up to `extra` chords."""
    order = [int(v) for v in rng.permutation(n)]
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add(tuple(sorted((order[i], order[j]))))
    for _ in range(extra):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add(tuple(sorted((u, v))))
    return build_graph(n, sorted(edges))


def neighbours(g: Graph) -> list[list[int]]:
    """Each node's neighbours, ascending, read from the graph's CSR arrays."""
    indptr, indices = g.csr
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def adjacency(g: Graph) -> np.ndarray:
    """The dense 0/1 adjacency matrix, set edge by edge."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edge_array.tolist():
        a[u, v] = a[v, u] = 1.0
    return a


def edge_pairs(g: Graph) -> tuple[tuple[int, int], ...]:
    """The canonical edges as a tuple of (u, v) pairs of Python ints."""
    return tuple(map(tuple, g.edge_array.tolist()))


def rand_pins(rng: np.random.Generator, n: int, l: int) -> list[int]:
    return sorted(int(v) for v in rng.choice(n, size=l, replace=False))


def betweenness_by_enumeration(g: Graph) -> np.ndarray:
    """Betweenness by explicit enumeration of every shortest path.

    Exponential in the worst case; keep n <= 10. Endpoints excluded,
    unordered pairs counted once.
    """
    bc = np.zeros(g.n)
    nbrs = neighbours(g)
    for s in range(g.n):
        dist = {s: 0}
        pred: dict[int, list[int]] = {v: [] for v in range(g.n)}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
                    if dist[w] == dist[u] + 1:
                        pred[w].append(u)
            frontier = nxt
        for t in range(s + 1, g.n):
            if t not in dist:
                continue
            paths: list[list[int]] = []

            def back(v, acc):
                if v == s:
                    paths.append(acc)
                    return
                for u in pred[v]:
                    back(u, acc + [u])

            back(t, [])
            share = np.zeros(g.n)
            for p in paths:
                for v in p:
                    if v != s:
                        share[v] += 1.0
            bc += share / len(paths)
    return bc


def smallest_eig_by_inverse_iteration(m: np.ndarray, iters: int = 300) -> float:
    """Smallest eigenvalue via shifted inverse iteration plus Rayleigh quotient.

    Independent of the direct symmetric eigensolver; m must be symmetric
    with its smallest eigenvalue nearest to the shift.
    """
    k = len(m)
    a = m + 1e-3 * np.eye(k)  # regularize in case lambda1 is numerically tiny
    x = np.ones(k) / np.sqrt(k)
    for _ in range(iters):
        x = np.linalg.solve(a, x)
        x = x / np.linalg.norm(x)
    return float(x @ (m @ x))
