"""Spectral bounds on the smallest grounded eigenvalue, and the feedback gain bound.

For a connected graph with pin set S of size l, the smallest eigenvalue
lambda1 of the grounded Laplacian is sandwiched:

    min boundary weight  <=  lambda1  <=  min((l+1)-th Laplacian eigenvalue,
                                              min degree of uncontrolled nodes,
                                              mean boundary weight)

where the boundary weight of an uncontrolled node counts its pinned
neighbors. All bounds here are cheap relative to the grounded
eigensolve and are reported together for cross-checking.

Two forms serve the pin-set searches as ceilings, so that a candidate
whose ceiling is below the best lambda1 found need not be solved. The
first tier of every candidate is ``pin_set_ceilings``: the two
closed-form upper bounds that depend on the pin set, the min
uncontrolled degree and the mean boundary weight, for many pin sets of
one size at once. The mean boundary weight is cut(S), the number of
edges leaving S, over n - l: the Rayleigh quotient of the all-ones
vector. The interlacing bound is left out: it is one value for every
pin set of size l, at least each one's lambda1, so it never prunes a
candidate, and it costs a full eigensolve of the Laplacian.

The second tier, for the candidates the first leaves open, is
``ritz_ceilings``: from the same all-ones test vector, a few Lanczos
steps on the candidate's grounded matrix, applied as a masked product
with the Laplacian, give a Ritz vector whose Rayleigh quotient is still
an upper bound, and usually far closer to lambda1. The quotient is
recomputed from that vector and raised by a rounding slack of
4 n eps max(1, 2 dmax), so it stays an upper bound however inexact the
Lanczos basis is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Iterable

import numpy as np

from .graphs import Graph, ground, pin_set
from .spectra import eig_sym

__all__ = [
    "BoundReport",
    "upper_by_spectrum",
    "upper_by_min_degree",
    "boundary_bounds",
    "pin_set_ceilings",
    "ritz_ceilings",
    "upper_single_pin",
    "necessary_lambda2",
    "feedback_gain_bound",
    "bound_report",
]


def upper_by_spectrum(g: Graph, l: int) -> float:
    """(l+1)-th smallest eigenvalue of the full Laplacian.

    Interlacing: deleting l rows/cols cannot push the smallest grounded
    eigenvalue above this, whichever l nodes are pinned.
    """
    if not (1 <= l <= g.n - 1):
        raise ValueError(f"need 1 <= l <= n-1, got l={l} for n={g.n}")
    return float(g.spectrum[l])


def upper_by_min_degree(g: Graph, s: Iterable[int]) -> float:
    """Minimum degree among uncontrolled nodes; lambda1 never exceeds it."""
    return float(g.degrees[ground(g, s).keep].min())


def boundary_bounds(g: Graph, s: Iterable[int]) -> tuple[float, float]:
    """(min, mean) boundary weight over uncontrolled nodes.

    The min is a lower bound on lambda1, the mean an upper bound.
    """
    w = ground(g, s).weights
    return float(w.min()), float(w.mean())


# bytes of the (rows, l, l) blocks pin_set_ceilings gathers at a time
_CEILING_CHUNK_BYTES = 1 << 20


def pin_set_ceilings(g: Graph, pins: np.ndarray) -> np.ndarray:
    """Per row of `pins` (k x l distinct node ids), an upper bound on lambda1:
    min(min uncontrolled degree, cut(S) / (n - l)).

    cut(S), the number of edges leaving S, is the sum of the Laplacian
    block L_SS; the min uncontrolled degree is that of the first of the
    l+1 lowest-degree nodes not in S. Rows are taken in chunks, so no
    k x n array is formed.
    """
    k, l = pins.shape
    if not (1 <= l <= g.n - 1):
        raise ValueError(f"need 1 <= l <= n-1, got l={l} for n={g.n}")
    deg = g.degrees
    low = np.argsort(deg, kind="stable")[: l + 1]
    out = np.empty(k)
    step = max(1, _CEILING_CHUNK_BYTES // (8 * l * (l + 1)))
    for start in range(0, k, step):
        s = pins[start:start + step]
        cut = g.laplacian[s[:, :, None], s[:, None, :]].sum(axis=(1, 2))
        free = np.argmin((s[:, :, None] == low).any(axis=1), axis=1)
        out[start:start + step] = np.minimum(deg[low[free]], cut / (g.n - l))
    return out


# dimension of the Krylov space ritz_ceilings searches
RITZ_DEPTH = 4
# bytes of the temporaries ritz_ceilings holds for one chunk of rows, at most
RITZ_CHUNK_BYTES = 128 * 1024


def ritz_ceilings(g: Graph, pins: np.ndarray) -> np.ndarray:
    """Per row of `pins` (k x l distinct node ids), an upper bound on lambda1
    of that grounding, tighter than cut(S) / (n - l), the Rayleigh quotient
    of the all-ones vector.

    M, the row's grounded matrix, acts in n-space as x -> keep * (x @ L),
    where keep zeroes the row's pins. From x = keep, the all-ones vector
    with the row's pins zeroed, Lanczos builds a basis of the Krylov
    space {x, Mx, ..., M^(d-1) x}, d = RITZ_DEPTH. Its bottom Ritz vector
    y is zero on the pins, so its Rayleigh quotient bounds lambda1 from
    above (Courant-Fischer), and in exact arithmetic never exceeds the
    quotient of x. The quotient is taken from y itself, with one more
    product, plus `4 * n * eps * max(1, 2 * dmax)` for its rounding, so
    the bound holds however inexact the basis is; a quotient that is not
    finite becomes +inf. Rows are taken in chunks whose temporaries stay
    within RITZ_CHUNK_BYTES.
    """
    lap = g.laplacian
    n, d = g.n, RITZ_DEPTH
    # 2 * dmax bounds every eigenvalue of M (Gershgorin)
    top = 2.0 * float(g.degrees.max(initial=0))
    slack = 4.0 * n * np.finfo(float).eps * max(1.0, top)
    out = np.empty(len(pins))
    step = max(1, RITZ_CHUNK_BYTES // (8 * n * (d + 5)))
    for lo in range(0, len(pins), step):
        s = pins[lo:lo + step]
        k = len(s)
        keep = np.ones((k, n))
        keep[np.arange(k)[:, None], s] = 0.0
        basis = np.empty((k, d, n))
        v = basis[:, 0]
        np.divide(keep, np.sqrt(n - pins.shape[1]), out=v)
        # the tridiagonal Lanczos matrix; a vector past a breakdown is zero and
        # its diagonal entry lies above every eigenvalue of M
        h = np.zeros((k, d, d))
        alive = np.ones(k, dtype=bool)
        for j in range(d):
            w = (v @ lap) * keep
            h[:, j, j] = np.where(alive, np.einsum("kn,kn->k", v, w), top + 1.0)
            if j + 1 == d:
                break
            w -= h[:, j, j, None] * v
            if j:
                w -= h[:, j, j - 1, None] * basis[:, j - 1]
            beta = np.sqrt(np.einsum("kn,kn->k", w, w))
            alive = alive & (beta > 1e-8 * max(1.0, top))
            beta = np.where(alive, beta, 0.0)
            h[:, j, j + 1] = h[:, j + 1, j] = beta
            v = basis[:, j + 1]
            np.multiply(w, np.where(alive, 1.0 / np.where(alive, beta, 1.0), 0.0)[:, None], out=v)
        y = np.einsum("kj,kjn->kn", np.linalg.eigh(h)[1][:, :, 0], basis)
        yy = np.einsum("kn,kn->k", y, y)
        ymy = np.einsum("kn,kn->k", y, (y @ lap) * keep)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = ymy / yy + slack
        out[lo:lo + step] = np.where(np.isfinite(q), q, np.inf)
    return out


def upper_single_pin(g: Graph, i: int) -> float:
    """Upper bound deg(i)/(n-1) on lambda1 when only node i is pinned.

    Always <= 1, so single-node pinning cannot reach criterion
    thresholds above 1 on simple graphs.
    """
    if not (0 <= i < g.n):
        raise ValueError(f"node {i} out of range for n={g.n}")
    if g.n < 2:
        raise ValueError("need at least two nodes")
    return float(g.degrees[i]) / (g.n - 1)


def necessary_lambda2(g: Graph, alpha_over_c: float) -> bool:
    """Whether the algebraic connectivity exceeds alpha/c.

    If it does not, no single pinned node can satisfy the criterion
    lambda1 > alpha/c; this is necessary for l=1, not sufficient.
    """
    return bool(g.spectrum[1] > alpha_over_c)


def feedback_gain_bound(g: Graph, s: Iterable[int], alpha: float, c: float) -> float:
    """Smallest constant feedback gain that certifies synchronization.

    For coupling strength c and node-dynamics constant alpha with
    c * lambda1(grounded) > alpha, any uniform pinned gain d above the
    returned value makes c*(L + D) - alpha*I positive definite (D has
    c*d at pinned diagonal entries), via the Schur complement on the
    pinned block. The inner inverse is applied through a dense solve;
    no matrix inverse is formed.
    """
    if not c > 0:
        raise ValueError(f"coupling strength must be positive, got c={c}")
    pins = pin_set(g, s)
    grounded = ground(g, pins)
    if c * grounded.lambda1 <= alpha:
        raise ValueError(
            "gain bound needs c * lambda1(grounded) > alpha; "
            f"got c*lambda1={c * grounded.lambda1:.6g} vs alpha={alpha:.6g}"
        )
    lap = g.laplacian
    p = np.array(pins, dtype=np.int64)
    r = np.array(grounded.retained, dtype=np.int64)
    l_pp = lap[np.ix_(p, p)]
    l_pr = lap[np.ix_(p, r)]
    # Schur block: c^2 * L_pr (c*L_rr - alpha I)^{-1} L_rp - c*L_pp
    core = c * grounded.matrix - alpha * np.eye(len(r))
    solved = np.linalg.solve(core, l_pr.T)
    block = c * c * (l_pr @ solved) - c * l_pp
    block = (block + block.T) / 2.0
    return float((eig_sym(block)[-1] + alpha) / c)


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one (graph, pin set) pair, plus the exact lambda1.

    upper_single_pin is populated only when l == 1; satisfied is the
    criterion lambda1 > alpha_over_c, populated only when a threshold
    was given.
    """

    lambda1: float
    lower_min_boundary: float
    upper_spectrum: float
    upper_kmin: float
    upper_avg_boundary: float
    upper_single_pin: float | None
    alpha_over_c: float | None
    satisfied: bool | None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def bound_report(g: Graph, s: Iterable[int], alpha_over_c: float | None = None) -> BoundReport:
    """Evaluate lambda1 and every applicable bound for one pin set."""
    pins = pin_set(g, s)
    # the full spectrum first: its eigensolve then never overlaps the grounded matrix in memory
    upper_spec = upper_by_spectrum(g, len(pins))
    grounded = ground(g, pins)
    lam = grounded.lambda1
    w = grounded.weights
    return BoundReport(
        lambda1=lam,
        lower_min_boundary=float(w.min()),
        upper_spectrum=upper_spec,
        upper_kmin=float(g.degrees[grounded.keep].min()),
        upper_avg_boundary=float(w.mean()),
        upper_single_pin=upper_single_pin(g, pins[0]) if len(pins) == 1 else None,
        alpha_over_c=alpha_over_c,
        satisfied=None if alpha_over_c is None else bool(lam > alpha_over_c),
    )
