"""Seeded graph builders owned by the benchmark.

Workload inputs come from here and from the frozen dolphin edge list in
``data/``, never from ``pinopt.generators``, so a change to a package
generator cannot silently change what a workload measures.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

DOLPHINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "dolphins.txt")
DOLPHINS_SHA256 = "e8f526896b285aef7ddce6b52004b03b4b593804eccb4920cf9d1c4c9685ea50"


@dataclass(frozen=True)
class Graph:
    """n nodes and an (m, 2) array of edges with u < v, sorted, unique."""

    n: int
    edges: np.ndarray

    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.n, self.n))
        u, v = self.edges[:, 0], self.edges[:, 1]
        lap[u, v] = lap[v, u] = -1.0
        lap[np.diag_indices(self.n)] = -lap.sum(axis=1)
        return lap

    def text(self) -> str:
        """The package's edge-list format: node count, then one edge per line."""
        return f"{self.n}\n" + "".join(f"{u} {v}\n" for u, v in self.edges.tolist())


def _canonical(n: int, pairs) -> Graph:
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    e = np.sort(e, axis=1)
    e = e[e[:, 0] != e[:, 1]]
    return Graph(n, np.unique(e, axis=0))


def ba(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Preferential attachment from an (m+1)-clique, m edges per new node."""
    pairs = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    urn = [x for p in pairs for x in p]
    for new in range(m + 1, n):
        picks: set[int] = set()
        while len(picks) < m:
            picks.add(urn[int(rng.integers(len(urn)))])
        for t in picks:
            pairs.append((t, new))
            urn += (t, new)
    return _canonical(n, pairs)


def nw(n: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    """Ring lattice of even degree k plus, per lattice edge, a random
    shortcut with probability p (Newman-Watts)."""
    i = np.repeat(np.arange(n), k // 2)
    j = (i + np.tile(np.arange(1, k // 2 + 1), n)) % n
    extra = rng.random(i.size) < p
    su = rng.integers(0, n, int(extra.sum()))
    sv = rng.integers(0, n, su.size)
    return _canonical(n, np.concatenate([np.stack([i, j], 1), np.stack([su, sv], 1)]))


def er(n: int, mean_degree: float, rng: np.random.Generator) -> Graph:
    """G(n, p) with p = mean_degree / (n - 1), joined by a random
    Hamiltonian path so the graph is connected."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < mean_degree / (n - 1)
    order = rng.permutation(n)
    path = np.stack([order[:-1], order[1:]], 1)
    return _canonical(n, np.concatenate([np.stack([iu[keep], ju[keep]], 1), path]))


def family(name: str, n: int, rng: np.random.Generator) -> Graph:
    """The three random families every workload draws from, at mean degree 6 to 7."""
    if name == "ba":
        return ba(n, 3, rng)
    if name == "nw":
        return nw(n, 4, 0.5, rng)
    return er(n, 5.0, rng)


def parse(text: str) -> Graph:
    """Read the package's edge-list format ('#' comments, count line, edges)."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    n = int(rows[0][0])
    return _canonical(n, [(int(a), int(b)) for a, b in rows[1:]])


def dolphins() -> Graph:
    with open(DOLPHINS_PATH, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != DOLPHINS_SHA256:
        raise RuntimeError(f"{DOLPHINS_PATH}: sha256 {digest} does not match the frozen copy")
    return parse(raw.decode("utf-8"))
