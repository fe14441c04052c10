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
``ritz_ceilings``: from a start vector, Lanczos steps on the candidate's
grounded matrix give a Ritz vector whose Rayleigh quotient is still an
upper bound, and usually far closer to lambda1, the closer the deeper
the Krylov space (Kaniel-Paige-Saad; Saad, Numerical Methods for Large
Eigenvalue Problems, SIAM 2011, ch. 6).
Each product with the grounded matrices of a block of candidates is one
product of the graph's kept dense Laplacian with an (n, k) block of
vectors, the pinned entries then zeroed. The quotient is recomputed
from that vector and raised by a rounding slack of 4 n eps max(1, 2
dmax), so it stays an upper bound at every depth, however inexact the
Lanczos basis is. A pruned search (``strategies._pruned_argmax``) is
given its candidates, their first-tier ceilings and its start vector,
and gives a candidate a Ritz ceiling only while it can beat the best.

Brute force starts from all ones, as does greedy's first round; each
later round starts from the last winner's bottom eigenvector, from one
step of inverse iteration (``bottom_vector``), whose quotient with
entry v zeroed bounds the set that adds v (``after_pin_ceilings``).

A pin set's numbers come from its one grounding, solved and bounded once
(``bound_report``, which reuses a search's solve): the exact closed forms
(``_closed_forms``) and the eigensolve clamped exactly into them, or 0 where
a component holds no pin (``_exact_lambda1``), which is the printed lambda1
(``clamp_lambda1``) and decides c * lambda1 > alpha (``criterion_holds``).

Every solve here goes through the unchecked seam in ``spectra``, as
the matrices are built here; the gain bound checks its scalars and its
pinned block for finiteness itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .graphs import Graph, GroundedLaplacian, block_rows, check_l, connected_components, ground
from .spectra import bottom_eigvecs, check_finite, eigvals, solve

__all__ = [
    "BoundReport",
    "upper_by_spectrum",
    "upper_by_min_degree",
    "boundary_bounds",
    "pin_set_ceilings",
    "ritz_ceilings",
    "ritz_block_rows",
    "bottom_vector",
    "after_pin_ceilings",
    "upper_single_pin",
    "feedback_gain_bound",
    "clamp_lambda1",
    "criterion_holds",
    "bound_report",
]


def upper_by_spectrum(g: Graph, l: int) -> float:
    """(l+1)-th smallest eigenvalue of the full Laplacian.

    Interlacing: deleting l rows/cols cannot push the smallest grounded
    eigenvalue above this, whichever l nodes are pinned. It is 0.0 where
    l is below the number of components, each one zero eigenvalue,
    counted only where the eigensolve is within ``_rounding_slack`` of 0.
    """
    check_l(g, l)
    lam = float(g.spectrum[l])
    return 0.0 if lam <= _rounding_slack(g) and l < len(connected_components(g)) else lam


def _closed_forms(grounded: GroundedLaplacian) -> tuple[int, int, Fraction]:
    """The closed-form bounds on lambda1 of `grounded`, exactly: the least
    boundary weight (below), the least uncontrolled degree and the mean
    boundary weight cut(S) / (n - l) (above). The float of the mean is
    its one correct rounding."""
    w = grounded.weights
    return int(w.min()), int(grounded.graph.degrees[grounded.keep].min()), Fraction(int(w.sum()), len(w))


def upper_by_min_degree(g: Graph, s: Iterable[int]) -> float:
    """Minimum degree among uncontrolled nodes; lambda1 never exceeds it."""
    return float(_closed_forms(ground(g, s))[1])


def boundary_bounds(g: Graph, s: Iterable[int]) -> tuple[float, float]:
    """(min, mean) boundary weight over uncontrolled nodes.

    The min is a lower bound on lambda1, the mean an upper bound.
    """
    lower, _, mean = _closed_forms(ground(g, s))
    return float(lower), float(mean)


def pin_set_ceilings(g: Graph, pins: np.ndarray) -> np.ndarray:
    """Per row of `pins` (k x l distinct node ids), an upper bound on lambda1:
    min(min uncontrolled degree, cut(S) / (n - l)).

    cut(S), the number of edges leaving S, is the sum of the degrees in S
    less twice the edges inside S, an exact integer; the min uncontrolled
    degree is that of the first of the l+1 lowest-degree nodes not in S.
    Rows are taken in blocks of about ``graphs.BLOCK_BYTES`` of
    temporaries, so no k x n array is formed.
    """
    k, l = pins.shape
    check_l(g, l)
    deg = g.degrees
    low = np.argsort(deg, kind="stable")[: l + 1]
    # each node's place among those l+1, or l+1 if it is not one of them
    place = np.full(g.n, l + 1)
    place[low] = np.arange(l + 1)
    inside = g.laplacian.ravel()
    first, second = np.triu_indices(l, 1)
    out = np.empty(k)
    step = block_rows(8 * l * (l + 1))
    for start in range(0, k, step):
        s = pins[start:start + step].astype(np.intp)
        # the Laplacian is -1 on each edge inside S
        cut = deg[s].sum(axis=1) + 2.0 * inside[s[:, first] * g.n + s[:, second]].sum(axis=1)
        taken = np.zeros((len(s), l + 2), dtype=bool)
        taken[np.arange(len(s))[:, None], place[s]] = True
        out[start:start + step] = np.minimum(deg[low[np.argmin(taken, axis=1)]], cut / (g.n - l))
    return out


# the Krylov dimension of the searches' Ritz ceilings
RITZ_DEPTH = 4
_EPS = float(np.finfo(float).eps)


def _rounding_slack(g: Graph) -> float:
    """4 n eps max(1, 2 dmax), how far rounding can move a Rayleigh quotient
    of a grounding of `g`; 2 dmax bounds its eigenvalues (Gershgorin)."""
    return 4.0 * g.n * _EPS * max(1.0, 2.0 * float(g.degrees.max(initial=0)))


def ritz_block_rows(g: Graph, l: int) -> int:
    """The rows of l pins that ``ritz_ceilings`` takes per block: their
    temporaries, d + 5 n-vectors per row with the product's output, hold
    about ``graphs.BLOCK_BYTES``."""
    return block_rows(8 * g.n * (min(RITZ_DEPTH, g.n - l) + 5))


def ritz_ceilings(g: Graph, pins: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per row of `pins` (k x l distinct node ids), an upper bound on lambda1
    of that grounding, tighter than the Rayleigh quotient of `start`, an
    n-vector, with the row's pins zeroed, and tighter the larger
    RITZ_DEPTH is. From the all-ones start that quotient is cut(S) / (n - l).

    M, the row's grounded matrix, acts in n-space as x -> keep * (L x),
    where keep zeroes the row's pins and L is ``g.laplacian``; a block of
    rows takes one product of L with its (n, k) block per step. From x,
    the start with the row's pins zeroed, Lanczos builds a basis of the
    Krylov space {x, Mx, ..., M^(d-1) x}, d = min(RITZ_DEPTH, n - l), as
    the space has no more dimensions than M. Its bottom Ritz vector y is
    zero on the pins, so its Rayleigh quotient bounds lambda1 from above
    (Courant-Fischer), and in exact arithmetic never exceeds the quotient
    of x or that of a shallower space. The quotient is taken from y
    itself, with one more product, plus `4 * n * eps * max(1, 2 * dmax)`
    for its rounding, so the bound holds however inexact the basis is, in
    any summation order; a quotient that is not finite, as from a start
    that is zero on the row's uncontrolled nodes, becomes +inf. Rows are
    taken in blocks of ``ritz_block_rows``.
    """
    n, d = g.n, min(RITZ_DEPTH, g.n - pins.shape[1])
    lap = g.laplacian
    # 2 * dmax bounds every eigenvalue of M (Gershgorin)
    top = 2.0 * float(g.degrees.max(initial=0))
    slack = _rounding_slack(g)

    def times_m(x, keep):
        y = lap @ x
        y *= keep
        return y

    # vectors are (n, k): a column per pin set
    x0 = start[:, None]
    out = np.empty(len(pins))
    step = ritz_block_rows(g, pins.shape[1])
    diag = np.arange(d)
    for lo in range(0, len(pins), step):
        s = pins[lo:lo + step]
        k = len(s)
        keep = np.ones((n, k))
        keep[s.T, np.arange(k)] = 0.0
        basis = np.zeros((d, n, k))
        v = basis[0]
        np.multiply(keep, x0, out=v)
        norm = np.sqrt(np.einsum("nk,nk->k", v, v))
        np.divide(v, norm, out=v, where=norm > 0.0)
        # the tridiagonal Lanczos matrix, by diagonal and off-diagonal; past a
        # breakdown (beta 0) the vectors stay zero and the diagonal entries are
        # set above every eigenvalue of M
        alpha, beta = np.empty((d, k)), np.zeros((d, k))
        alive = np.ones(k, dtype=bool)
        for j in range(d):
            w = times_m(v, keep)
            alpha[j] = np.einsum("nk,nk->k", v, w)
            if j + 1 == d:
                break
            w -= alpha[j] * v
            if j:
                w -= beta[j - 1] * basis[j - 1]
            b = np.sqrt(np.einsum("nk,nk->k", w, w))
            alive &= b > 1e-8 * max(1.0, top)
            np.multiply(b, alive, out=beta[j])
            v = basis[j + 1]
            np.divide(w, b, out=v, where=alive)
        alpha[1:][beta[:-1] == 0.0] = top + 1.0
        h = np.zeros((k, d, d))
        h[:, diag, diag] = alpha.T
        h[:, diag[1:], diag[:-1]] = h[:, diag[:-1], diag[1:]] = beta[:-1].T
        y = np.einsum("kj,jnk->nk", bottom_eigvecs(h), basis)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.einsum("nk,nk->k", y, times_m(y, keep)) / np.einsum("nk,nk->k", y, y) + slack
        out[lo:lo + step] = np.where(np.isfinite(q), q, np.inf)
    return out


def bottom_vector(g: Graph, s: Iterable[int], lam: float) -> np.ndarray:
    """An n-vector, zero on S and close to the bottom eigenvector of the
    grounding on S, given lam, that grounding's lambda1: one step of
    inverse iteration from the all-ones vector, shifted below lam to
    0.99 lam - 1e-3, where the shifted matrix is positive definite.
    Scaled to a largest entry of 1."""
    grounded = ground(g, s)
    # shifted in place: no one else holds this grounding
    m = grounded.matrix
    m.flat[:: len(m) + 1] -= 0.99 * lam - 1e-3
    y = np.zeros(g.n)
    y[grounded.keep] = solve(m, np.ones(len(m)))
    return y / np.abs(y).max()


def after_pin_ceilings(g: Graph, y: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Per node v of `free`, an upper bound on lambda1 of every grounding
    whose pins are v and nodes where y (an n-vector) is zero.

    y with its entry v zeroed as well is zero on those pins, so its
    Rayleigh quotient, (yLy - 2 y_v (Ly)_v + y_v^2 deg(v)) / (yy - y_v^2),
    bounds lambda1 from above (Courant-Fischer), however far y is from an
    eigenvector. It is raised by 16 n eps max(1, 2 dmax) for its rounding,
    which holds where y_v^2 <= yy / 2; elsewhere, at most one node, and
    where the quotient is not finite, the ceiling is +inf. With y from
    ``bottom_vector`` of S, these bound the sets S + [v] of a greedy round.
    """
    ly, yy = g.laplacian @ y, y @ y
    yv = y[free]
    slack = 4.0 * _rounding_slack(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (y @ ly - 2.0 * yv * ly[free] + yv ** 2 * g.degrees[free]) / (yy - yv ** 2) + slack
    return np.where((yv ** 2 <= yy / 2.0) & np.isfinite(q), q, np.inf)


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


def feedback_gain_bound(g: Graph, s: Iterable[int], alpha: float, c: float) -> float:
    """Smallest constant feedback gain that certifies synchronization.

    For coupling strength c and node-dynamics constant alpha with
    c * lambda1(grounded) > alpha, as ``criterion_holds`` decides it, any
    uniform pinned gain d above the returned value makes c*(L + D) -
    alpha*I positive definite (D has c*d at pinned diagonal entries), via
    the Schur complement on the pinned block. The inner inverse is
    applied through a dense solve; no matrix inverse is formed. alpha and
    c must be finite, and so must the pinned block they give.
    """
    if not c > 0:
        raise ValueError(f"coupling strength must be positive, got c={c}")
    for name, value in (("alpha", alpha), ("c", c)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    grounded = ground(g, s)
    if not criterion_holds(grounded, alpha, c):
        raise ValueError(
            "gain bound needs c * lambda1(grounded) > alpha; "
            f"got c*lambda1={c * clamp_lambda1(grounded):.6g} vs alpha={alpha:.6g}"
        )
    lap, keep = g.laplacian, grounded.keep
    l_pp, l_pr = lap[np.ix_(~keep, ~keep)], lap[np.ix_(~keep, keep)]
    # Schur block: c^2 * L_pr (c*L_rr - alpha I)^{-1} L_rp - c*L_pp
    core = c * grounded.matrix - alpha * np.eye(l_pr.shape[1])
    solved = solve(core, l_pr.T)
    block = c * c * (l_pr @ solved) - c * l_pp
    block = (block + block.T) / 2.0
    check_finite(block)  # finite scalars may still overflow
    return float((eigvals(block)[-1] + alpha) / c)


def _exact_lambda1(grounded: GroundedLaplacian, lam: float | None = None) -> tuple:
    """(clamp, lower, kmin, mean): `lam`, an eigensolve's lambda1 of
    `grounded` (solved here when None), clamped exactly into that
    grounding's bounds [lower, min(kmin, mean)] (``_closed_forms``), or 0
    where some component of the graph holds no pin.

    The exact lambda1 lies there, so the clamp can only move an eigensolve
    that is a few ulps off toward it, and gives a clamped value back. A
    pinless component is a block of the grounded matrix with eigenvalue 0
    exactly; it is looked for only where the lower bound is 0 and `lam`
    is within ``_rounding_slack`` of it.
    """
    lower, kmin, mean = forms = _closed_forms(grounded)
    g, keep, lam = grounded.graph, grounded.keep, grounded.lambda1 if lam is None else lam
    if lower == 0 and lam <= _rounding_slack(g) and any(keep[c].all() for c in connected_components(g)):
        return (0, *forms)
    return (min(max(Fraction(lam), lower), kmin, mean), *forms)


def clamp_lambda1(grounded: GroundedLaplacian, lam: float | None = None) -> float:
    """``_exact_lambda1``, rounded once: the lambda1 the CLI prints. The
    searches compare the raw eigensolves."""
    return float(_exact_lambda1(grounded, lam)[0])


def _exceeds(lam: Fraction | int, alpha: float, c: float) -> bool:
    """c * lam > alpha for an exact lam: exactly for finite alpha and c, so
    that rounding cannot flip it where the bounds decide it, else in floats."""
    if math.isfinite(alpha) and math.isfinite(c):
        return lam * Fraction(c) > Fraction(alpha)
    return bool(c * float(lam) > alpha)


def criterion_holds(grounded: GroundedLaplacian, alpha: float, c: float = 1.0) -> bool:
    """c * lambda1 > alpha (c > 0) for `grounded`'s exact lambda1 (``_exact_lambda1``)."""
    return _exceeds(_exact_lambda1(grounded)[0], alpha, c)


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one (graph, pin set) pair, plus the exact lambda1.

    lambda1 is the eigensolve clamped into the bounds (``clamp_lambda1``),
    and upper_spectrum (``upper_by_spectrum``) is never below it. upper_single_pin
    is populated only when l == 1; satisfied is the criterion lambda1 >
    alpha_over_c (``criterion_holds``), populated only when a threshold was given.
    """

    lambda1: float
    lower_min_boundary: float
    upper_spectrum: float
    upper_kmin: float
    upper_avg_boundary: float
    upper_single_pin: float | None
    alpha_over_c: float | None
    satisfied: bool | None


def bound_report(g: Graph, s: Iterable[int], alpha_over_c: float | None = None,
                 lambda1: float | None = None) -> BoundReport:
    """lambda1 and every applicable bound for one pin set, from one grounding
    clamped once; `lambda1` is a search's eigensolve of it, else solved here."""
    grounded = ground(g, s)
    pins = np.flatnonzero(~grounded.keep)
    # the full spectrum first: its eigensolve then never overlaps the grounded matrix in memory
    upper_spec = upper_by_spectrum(g, len(pins))
    exact, lower, kmin, mean = _exact_lambda1(grounded, lambda1)
    lam = float(exact)
    return BoundReport(
        lambda1=lam,
        lower_min_boundary=float(lower),
        upper_spectrum=max(upper_spec, lam),
        upper_kmin=float(kmin),
        upper_avg_boundary=float(mean),
        upper_single_pin=upper_single_pin(g, pins[0]) if len(pins) == 1 else None,
        alpha_over_c=alpha_over_c,
        satisfied=None if alpha_over_c is None else _exceeds(exact, alpha_over_c, 1.0),
    )
