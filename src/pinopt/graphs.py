"""Undirected graphs, Laplacians, and grounded (pinned) Laplacians.

Graphs are simple and unweighted, with nodes 0..n-1 and a dense numpy
representation throughout; everything here targets networks of up to a
few thousand nodes, where dense linear algebra is the fast path.

One canonical edge array carries a graph from its text to its grounded
blocks: :func:`build_graph` validates and canonicalises an (m, 2) array
in numpy, :func:`parse_edge_list` reads the canonical text (the one
``format_edge_list`` writes) straight into such an array, and the
generators build theirs in numpy. No step between the text and the
grounded block loops over edges in Python.

Two objects carry the method. A :class:`Graph` stores `n` and the edge
array, O(n + m) state; its degrees, CSR adjacency, Laplacian and full
spectrum are computed on first use and then kept (read-only). The
spectrum is solved from a Laplacian built for that solve alone, so a
command that needs only the spectrum and groundings keeps no n x n
matrix. :func:`ground` is the one way to pin a set of nodes: it
validates the pins and returns a :class:`GroundedLaplacian`, which
holds only the graph and the mask of unpinned nodes and computes its
matrix, boundary weights and lambda1 on first use.

Grounded matrices have two builders, which a test holds to the same
lambda1 bits. ``_block`` scatters the kept edges into a fresh matrix:
the Laplacian and each single grounding. ``Graph.grounded_lambda1s``
gathers the searches' stacks from the kept Laplacian, about twice as
fast on small blocks (one block of a 35-node graph: 20.5 us against
44.7 us by scatter, 2-core VM). Two rules keep the output
byte-identical to a from-scratch build:

- The Laplacian's zero off-diagonal entries are ``-0.0``, as negating
  the adjacency matrix gives. LAPACK's Householder reflections see the
  sign of zero, so a ``+0.0`` build changes the last digits of
  eigenvalues.
- Boundary weights are int64 counts, never float sums of Laplacian
  entries: a float sum of ``-0.0`` terms is ``-0.0`` and would print
  that way in JSON.

Every eigensolve here goes through ``spectra.eigvals``, unchecked: the
matrices are blocks of the Laplacian, symmetric and finite by
construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .spectra import eigvals

__all__ = [
    "Graph",
    "GroundedLaplacian",
    "build_graph",
    "laplacian",
    "pin_set",
    "check_l",
    "BudgetError",
    "ground",
    "boundary_weights",
    "connected_components",
    "parse_edge_list",
    "MAX_NODES",
    "BLOCK_BYTES",
    "block_rows",
    "format_edge_list",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph on nodes 0..n-1.

    It stores `n` and `edge_array`, the edges as a read-only (m, 2) int64
    array of canonical rows (u, v), u < v, sorted, with no duplicates and
    no self loops; the degrees, neighbours and every matrix are built
    from it on first use. Two graphs are equal when `n` and the edge
    bytes are. Build instances through :func:`build_graph`, which
    validates and canonicalizes in numpy.
    """

    n: int
    edge_array: np.ndarray

    def _key(self) -> tuple[int, bytes]:
        return self.n, self.edge_array.tobytes()

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Graph) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices), read-only intp arrays: the neighbours of node
        i, ascending, are indices[indptr[i]:indptr[i + 1]]."""
        u, v = self.edge_array.T
        # every edge in both directions, as codes node * n + neighbour, sorted
        indices = (np.sort(np.concatenate((u * self.n + v, v * self.n + u))) % self.n).astype(np.intp)
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(self.degrees, out=indptr[1:])
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """L = D - A, read-only; zero off-diagonal entries are -0.0 (see the module notes)."""
        lap = _block(self, np.ones(self.n, dtype=bool))
        lap.flags.writeable = False
        return lap

    @cached_property
    def spectrum(self) -> np.ndarray:
        """All Laplacian eigenvalues, ascending, read-only.

        The Laplacian is built for this solve and freed after it, not
        kept as `laplacian`.
        """
        vals = eigvals(_block(self, np.ones(self.n, dtype=bool)))
        vals.flags.writeable = False
        return vals

    def grounded_lambda1s(self, pins: np.ndarray) -> np.ndarray:
        """lambda1 of the grounding of each row of `pins` (k x l distinct
        valid node ids), from one stacked eigensolve.

        Each value equals ``ground(self, row).lambda1`` bit for bit: the
        stacked matrices are the same submatrices, and LAPACK solves them
        one by one.
        """
        k = len(pins)
        keep = np.ones((k, self.n), dtype=bool)
        keep[np.arange(k)[:, None], pins] = False
        idx = np.nonzero(keep)[1].reshape(k, -1)
        # a copy, so the k x (n - l) eigenvalues are not kept alive behind it
        return eigvals(self.laplacian[idx[:, :, None], idx[:, None, :]])[:, 0].copy()


def build_graph(n: int, edges: Iterable[Sequence[int]] | np.ndarray) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Node ids must lie in 0..n-1, self loops are rejected, duplicate
    edges (in either orientation) collapse to one. The first bad edge in
    input order is the one reported. `edges` is best an (m, 2) integer
    array; anything else is converted first (see :func:`_edge_rows`).
    """
    if n < 1:
        raise ValueError(f"graph needs at least one node, got n={n}")
    rows = _edge_rows(n, edges)
    u, v = rows[:, 0], rows[:, 1]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    if bad.any():
        _check_edge(n, *rows[np.argmax(bad)].tolist())
    # one code per unordered pair, min * n + max: sorting the codes sorts the
    # pairs. Repeats are dropped by hand, as recent numpy's np.unique hashes
    # before it sorts and is many times slower on these codes.
    codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    canon = np.stack(np.divmod(codes, n), axis=1)
    canon.flags.writeable = False
    return Graph(n, canon)


def _check_edge(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"self loop at node {u} not allowed")


def _edge_rows(n: int, edges: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """`edges` as an (m, 2) int64 array of (e[0], e[1]) per edge.

    Input that numpy holds as integer rows is converted in one step.
    Anything else (ids beyond int64, ragged rows, floats, strings,
    iterators) is read edge by edge as ``int(e[0]), int(e[1])`` and
    checked on the way, so its first bad edge raises in input order.
    """
    try:
        arr = np.asarray(edges)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is not None and arr.ndim == 2 and arr.shape[1] >= 2 and np.can_cast(arr.dtype, np.int64):
        return arr[:, :2].astype(np.int64, copy=False)
    pairs = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        _check_edge(n, u, v)
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _kept_edges(g: Graph, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges with both ends in the mask `keep`, relabelled to the
    positions of their ends among the kept nodes (ascending id)."""
    u, v = g.edge_array.T
    both = keep[u] & keep[v]
    pos = np.cumsum(keep) - 1
    return pos[u[both]], pos[v[both]]


def _block(g: Graph, keep: np.ndarray) -> np.ndarray:
    """The principal block of the Laplacian on the nodes `keep` marks,
    built directly: -0.0 everywhere, -1.0 on the kept edges, the full
    degrees on the diagonal."""
    u, v = _kept_edges(g, keep)
    deg = g.degrees[keep]
    out = np.full((len(deg), len(deg)), -0.0)
    out[u, v] = -1.0
    out[v, u] = -1.0
    np.fill_diagonal(out, deg)
    return out


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as a dense float array.

    A fresh, writable copy of ``g.laplacian``.
    """
    return g.laplacian.copy()


def pin_set(g: Graph, nodes: Iterable[int]) -> tuple[int, ...]:
    """Normalize a collection of pinned (controlled) nodes.

    Returns the sorted tuple of distinct node ids; its size must pass
    :func:`check_l`, so that the grounded matrix is nonempty.
    """
    s = sorted({int(v) for v in nodes})
    check_l(g, len(s))
    if s[0] < 0 or s[-1] >= g.n:
        raise ValueError(f"pin set {s} out of range for n={g.n}")
    return tuple(s)


class BudgetError(RuntimeError):
    """Raised when an exhaustive search would exceed its subset budget,
    or a simulation its step cap."""


def check_l(g: Graph, l: int, budget: int | None = None) -> None:
    """The checks a selection of l pins makes before it starts: ValueError
    unless 1 <= l <= n - 1 and, given a brute-force budget, BudgetError if
    the C(n, l) subsets exceed it."""
    if not (1 <= l <= g.n - 1):
        raise ValueError(f"need 1 <= l <= n-1, got l={l} for n={g.n}")
    if budget is not None and (count := math.comb(g.n, l)) > budget:
        raise BudgetError(f"C({g.n}, {l}) = {count} subsets exceeds the budget of {budget}")


@dataclass(frozen=True, eq=False)
class GroundedLaplacian:
    """Principal submatrix of the Laplacian after deleting pinned rows/cols.

    `keep` marks the surviving (uncontrolled) nodes among all n of
    `graph`; row/col i of `matrix` is the i-th of them in ascending id.
    `weights[i]` counts that node's pinned neighbors; the matrix equals
    the Laplacian of the induced uncontrolled subgraph plus
    diag(weights). Everything is computed on first use. Build instances
    through :func:`ground`, which validates the pins.
    """

    graph: Graph = field(repr=False)
    keep: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return _block(self.graph, self.keep)

    @cached_property
    def weights(self) -> np.ndarray:
        n, pinned = self.graph.n, ~self.keep
        u, v = self.graph.edge_array.T
        w = np.bincount(v[pinned[u]], minlength=n) + np.bincount(u[pinned[v]], minlength=n)
        return w[self.keep].astype(np.int64)

    @cached_property
    def lambda1(self) -> float:
        """Smallest eigenvalue of `matrix`."""
        return float(eigvals(self.matrix)[0])


def ground(g: Graph, s: Iterable[int]) -> GroundedLaplacian:
    """Delete the rows and columns of the pinned nodes from laplacian(g)."""
    keep = np.ones(g.n, dtype=bool)
    keep[list(pin_set(g, s))] = False
    return GroundedLaplacian(g, keep)


def boundary_weights(g: Graph, s: Iterable[int]) -> np.ndarray:
    """Per retained node, the number of its pinned neighbors.

    Ordered by ascending original id, like the rows of the grounded matrix.
    """
    return ground(g, s).weights


def connected_components(g: Graph, nodes: Iterable[int] | None = None) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member.

    With `nodes`, the components of the subgraph those nodes induce.
    """
    # lists, not arrays: numpy's scalar indexing is slower per node
    ends, ids = (a.tolist() for a in g.csr)
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
            for u in ids[ends[v]:ends[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


# ---------------------------------------------------------------------------
# Edge-list text format: first non-comment line is the node count, every
# following line is one edge "u v" (0-based, whitespace separated), and '#'
# starts a comment anywhere on a line.
# ---------------------------------------------------------------------------


# largest node count parse_edge_list accepts: the dense Laplacian of a
# graph this size already takes 800 MB, and its eigensolve as much again
MAX_NODES = 10_000
# bytes of scratch memory one block of a blocked loop may hold, about: the
# pin-set ceilings, Ritz ceilings, stacked eigensolves, betweenness sources
# and blowup scans all size their blocks by it, through block_rows
BLOCK_BYTES = 256 * 1024


def block_rows(row_bytes: int) -> int:
    """The rows of `row_bytes` bytes each that one block holds: as many as
    fit in BLOCK_BYTES, read at each call, and at least one."""
    return max(1, BLOCK_BYTES // row_bytes)

# The canonical text, as format_edge_list writes it: the node count, then
# one "u v" line per edge, ASCII digits, every line ended by "\n". An id
# of at most 18 digits cannot overflow int64.
_CANONICAL_TEXT = re.compile(r"[0-9]{1,18}\n(?:[0-9]{1,18} [0-9]{1,18}\n)*")


class EdgeListError(ValueError):
    """Malformed edge-list text; message carries the 1-based line number."""


def parse_edge_list(text: str) -> Graph:
    """The graph an edge-list text describes.

    Canonical text is read in one vectorised conversion; any other text
    goes through the line loop, the reference reader and the only source
    of line-numbered errors. Both give the same graph or the same error.
    """
    if _CANONICAL_TEXT.fullmatch(text):
        nums = np.fromstring(text, dtype=np.int64, sep=" ")
        if nums[0] <= MAX_NODES:
            try:
                return build_graph(int(nums[0]), nums[1:].reshape(-1, 2))
            except ValueError as exc:
                raise EdgeListError(str(exc)) from None
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
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


def format_edge_list(g: Graph) -> str:
    return f"{g.n}\n" + ("%d %d\n" * g.m) % tuple(g.edge_array.ravel().tolist())
