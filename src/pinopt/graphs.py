"""Undirected graphs, Laplacians, and grounded (pinned) Laplacians.

Graphs are simple and unweighted, with nodes 0..n-1 and a dense numpy
representation throughout; everything here targets networks of up to a
few thousand nodes, where dense linear algebra is the fast path.

Two objects carry the method. A :class:`Graph` keeps its per-graph
quantities, each computed on first use and then kept: the degrees, the
edge array, the Laplacian and its full spectrum (both read-only).
:func:`ground` is the one way to pin a set of nodes: it validates the
pins and returns a :class:`GroundedLaplacian`, which holds only the
graph and the mask of unpinned nodes and computes its matrix, boundary
weights and lambda1 on first use. A caller that grounds many pin sets
of one graph therefore builds the Laplacian and its spectrum once. Two
rules keep the output byte-identical to a from-scratch build:

- The Laplacian's zero off-diagonal entries are ``-0.0``, as negating
  the adjacency matrix gives. LAPACK's Householder reflections see the
  sign of zero, so a ``+0.0`` build changes the last digits of
  eigenvalues.
- Boundary weights are int64 counts, never float sums of Laplacian
  entries: a float sum of ``-0.0`` terms is ``-0.0`` and would print
  that way in JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GroundedLaplacian",
    "build_graph",
    "laplacian",
    "pin_set",
    "ground",
    "boundary_weights",
    "induced_subgraph",
    "connected_components",
    "is_connected",
    "parse_edge_list",
    "MAX_NODES",
    "format_edge_list",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on nodes 0..n-1.

    Edges are stored canonically as a sorted tuple of (u, v) pairs with
    u < v, no duplicates, no self loops. Build instances through
    :func:`build_graph`, which validates and canonicalizes.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(tuple(sorted(l)) for l in lists)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as an (m, 2) int64 array."""
        return np.array(self.edges, dtype=np.int64).reshape(-1, 2)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """L = D - A, read-only; zero off-diagonal entries are -0.0 (see the module notes)."""
        u, v = self.edge_array.T
        lap = np.full((self.n, self.n), -0.0)
        lap[u, v] = -1.0
        lap[v, u] = -1.0
        lap[np.diag_indices(self.n)] = self.degrees.astype(np.float64)
        lap.flags.writeable = False
        return lap

    @cached_property
    def spectrum(self) -> np.ndarray:
        """All Laplacian eigenvalues, ascending, read-only.

        No symmetry check (``spectra.eig_sym`` has one): the Laplacian is
        symmetric by construction and read-only.
        """
        vals = np.linalg.eigvalsh(self.laplacian)
        vals.flags.writeable = False
        return vals

    def grounded_lambda1s(self, pins: np.ndarray) -> np.ndarray:
        """lambda1 of the grounding of each row of `pins` (k x l distinct
        valid node ids), from one stacked eigensolve.

        Each value equals ``ground(self, row).lambda1`` bit for bit: the
        stacked matrices are the same submatrices, and LAPACK solves them
        one by one. The symmetry check is skipped, as every matrix is a
        block of the Laplacian.
        """
        k = len(pins)
        keep = np.ones((k, self.n), dtype=bool)
        keep[np.arange(k)[:, None], pins] = False
        idx = np.nonzero(keep)[1].reshape(k, -1)
        return np.linalg.eigvalsh(self.laplacian[idx[:, :, None], idx[:, None, :]])[:, 0]


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Node ids must lie in 0..n-1, self loops are rejected, duplicate
    edges (in either orientation) collapse to one.
    """
    if n < 1:
        raise ValueError(f"graph needs at least one node, got n={n}")
    canon: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self loop at node {u} not allowed")
        canon.add((u, v) if u < v else (v, u))
    return Graph(n=n, edges=tuple(sorted(canon)))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as a dense float array.

    A fresh, writable copy of ``g.laplacian``.
    """
    return g.laplacian.copy()


def pin_set(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """Normalize a collection of pinned (controlled) nodes.

    Returns the sorted tuple of distinct node ids; requires
    1 <= l <= n-1 so that the grounded matrix is nonempty.
    """
    s = sorted({int(v) for v in nodes})
    if not s:
        raise ValueError("pin set is empty")
    if s[0] < 0 or s[-1] >= g.n:
        raise ValueError(f"pin set {s} out of range for n={g.n}")
    if len(s) >= g.n:
        raise ValueError("pin set must leave at least one node uncontrolled")
    return tuple(s)


@dataclass(frozen=True)
class GroundedLaplacian:
    """Principal submatrix of the Laplacian after deleting pinned rows/cols.

    `keep` marks the surviving (uncontrolled) nodes among all n of
    `graph`; `retained` lists their original ids in ascending order, and
    row/col i of `matrix` corresponds to retained[i]. `weights[i]`
    counts the pinned neighbors of retained[i]; the matrix equals the
    Laplacian of the induced uncontrolled subgraph plus diag(weights).
    Everything but `size` is computed on first use. Build instances
    through :func:`ground`, which validates the pins.
    """

    graph: Graph = field(repr=False)
    keep: np.ndarray

    @cached_property
    def retained(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self.keep))

    @cached_property
    def matrix(self) -> np.ndarray:
        idx = np.flatnonzero(self.keep)
        return self.graph.laplacian[np.ix_(idx, idx)]

    @cached_property
    def weights(self) -> np.ndarray:
        n, pinned = self.graph.n, ~self.keep
        u, v = self.graph.edge_array.T
        w = np.bincount(v[pinned[u]], minlength=n) + np.bincount(u[pinned[v]], minlength=n)
        return w[self.keep].astype(np.int64)

    @cached_property
    def lambda1(self) -> float:
        """Smallest eigenvalue of `matrix`, a block of the graph's
        Laplacian, so symmetric by construction and not checked again."""
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.keep))


def ground(g: Graph, s: Iterable[int]) -> GroundedLaplacian:
    """Delete the rows and columns of the pinned nodes from laplacian(g)."""
    keep = np.ones(g.n, dtype=bool)
    keep[list(pin_set(g, s))] = False
    return GroundedLaplacian(g, keep)


def boundary_weights(g: Graph, s: Iterable[int]) -> np.ndarray:
    """Per retained node, the number of its pinned neighbors.

    Ordered like GroundedLaplacian.retained (ascending original id).
    """
    return ground(g, s).weights


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on `keep`, relabeled 0..|keep|-1.

    Returns (subgraph, index_map) where index_map[new_id] = original id;
    all and only the edges internal to `keep` are retained. `keep` is
    deduplicated and sorted.
    """
    kept = sorted({int(v) for v in keep})
    if not kept:
        raise ValueError("cannot induce a subgraph on zero nodes")
    if kept[0] < 0 or kept[-1] >= g.n:
        raise ValueError(f"keep list {kept} out of range for n={g.n}")
    relabel = {v: i for i, v in enumerate(kept)}
    kept_set = set(kept)
    edges = [
        (relabel[u], relabel[v]) for u, v in g.edges if u in kept_set and v in kept_set
    ]
    return build_graph(len(kept), edges), tuple(kept)


def connected_components(g: Graph, nodes: Iterable[int] | None = None) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member.

    With `nodes`, the components of the subgraph those nodes induce.
    """
    nbrs = g.neighbors
    # a list, not an array: numpy's scalar indexing is slower per node
    seen = [False] * g.n
    if nodes is not None:  # nodes left out count as seen, so no search enters them
        seen = [True] * g.n
        for v in nodes:
            seen[v] = False
    comps: list[list[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in nbrs[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# Edge-list text format: first non-comment line is the node count, every
# following line is one edge "u v" (0-based, whitespace separated), and '#'
# starts a comment anywhere on a line.
# ---------------------------------------------------------------------------


# largest node count parse_edge_list accepts: the dense Laplacian of a
# graph this size already takes 800 MB, and its eigensolve as much again
MAX_NODES = 10_000


class EdgeListError(ValueError):
    """Malformed edge-list text; message carries the 1-based line number."""


def parse_edge_list(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise EdgeListError(
                    f"line {lineno}: expected the node count alone, got {raw!r}"
                )
            try:
                n = int(parts[0])
            except ValueError:
                raise EdgeListError(f"line {lineno}: node count {parts[0]!r} is not an integer") from None
            if n > MAX_NODES:
                raise EdgeListError(
                    f"line {lineno}: node count {n} exceeds the limit of {MAX_NODES} nodes"
                )
            continue
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: edge endpoints must be integers, got {raw!r}") from None
        edges.append((u, v))
    if n is None:
        raise EdgeListError("empty input: missing node count line")
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise EdgeListError(str(exc)) from None


def format_edge_list(g: Graph, header: str | None = None) -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(str(g.n))
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g, header=header))
