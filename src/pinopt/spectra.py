"""The package's one eigensolve seam, and closed-form grounded spectra.

Every LAPACK call of pinopt is made here; a test holds the other
modules to it. :func:`eigvals`, :func:`bottom_eigvecs` and :func:`solve`
are unchecked, for the matrices the package builds, symmetric and
finite by construction. Each looks its routine up on ``np.linalg`` at
every call, so a harness that rebinds the routine there sees every
solve. :func:`eig_sym` and :func:`lambda1` are the checked path, for
matrices from outside the package: they refuse a matrix that is not
square, finite and symmetric within SYM_TOL.

The closed forms cover the two families (stars and complete graphs)
where deleting pinned rows/cols leaves a matrix whose spectrum is known
exactly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "eigvals",
    "bottom_eigvecs",
    "solve",
    "check_finite",
    "eig_sym",
    "lambda1",
    "star_grounded_lambda1",
    "complete_grounded_spectrum",
]

SYM_TOL = 1e-12


def check_finite(m: np.ndarray) -> None:
    """ValueError unless every entry of `m` is finite."""
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")


def _check_sym(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    check_finite(m)
    if m.size and np.max(np.abs(m - m.T)) > SYM_TOL:
        raise ValueError(f"matrix is not symmetric within {SYM_TOL}")
    return m


def eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a symmetric matrix or of each matrix of
    a stack (..., k, k); no check."""
    return np.linalg.eigvalsh(m)


def bottom_eigvecs(m: np.ndarray) -> np.ndarray:
    """The eigenvector of the smallest eigenvalue of each symmetric matrix
    of a stack (s, k, k), as the rows of an (s, k) array; no check."""
    return np.linalg.eigh(m)[1][:, :, 0]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b, for a square nonsingular a; no check."""
    return np.linalg.solve(a, b)


def eig_sym(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending, once the matrix
    passes the checks."""
    return eigvals(_check_sym(m))


def lambda1(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(eig_sym(m)[0])


def star_grounded_lambda1(n: int, pinned: str) -> float:
    """Smallest grounded eigenvalue of an n-node star under one pin.

    pinned="center" deletes the hub, leaving the identity on the leaves,
    so the value is 1. pinned="leaf" deletes one leaf; the remaining
    matrix has smallest eigenvalue (n - sqrt(n*n - 4)) / 2, which decays
    like 1/n.
    """
    if n <= 2:
        raise ValueError(f"a star needs n >= 3, got n={n}")
    if pinned == "center":
        return 1.0
    if pinned == "leaf":
        return (n - math.sqrt(n * n - 4)) / 2.0
    raise ValueError(f"pinned must be 'center' or 'leaf', got {pinned!r}")


def complete_grounded_spectrum(n: int, l: int) -> np.ndarray:
    """Grounded spectrum of the complete graph K_n with any l nodes pinned.

    By symmetry the pinned identity of the set does not matter: the
    spectrum is l (simple) followed by n with multiplicity n - l - 1.
    """
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got n={n}")
    if not (1 <= l <= n - 1):
        raise ValueError(f"need 1 <= l <= n-1, got l={l} for n={n}")
    return np.array([float(l)] + [float(n)] * (n - l - 1))
