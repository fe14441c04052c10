import math

import numpy as np
import pytest

from conftest import rand_connected, rand_pins, smallest_eig_by_inverse_iteration
from pinopt.generators import gen_complete, gen_path, gen_star
from pinopt.graphs import ground, laplacian
from pinopt.spectra import (
    complete_grounded_spectrum,
    eig_sym,
    lambda1,
    star_grounded_lambda1,
)


def test_eig_sym_two_by_two_hand_oracle():
    # [[2,-1],[-1,1]] has characteristic polynomial x^2 - 3x + 1
    m = np.array([[2.0, -1.0], [-1.0, 1.0]])
    expect = np.array([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    assert np.allclose(eig_sym(m), expect, atol=1e-12)


def test_eig_sym_path_laplacian():
    # P3 Laplacian spectrum is {0, 1, 3}
    vals = eig_sym(laplacian(gen_path(3)))
    assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)


def test_eig_sym_sorted_and_complete():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = int(rng.integers(1, 12))
        a = rng.normal(size=(k, k))
        m = (a + a.T) / 2
        vals = eig_sym(m)
        assert vals.shape == (k,)
        assert np.all(np.diff(vals) >= 0)
        assert np.isclose(vals.sum(), np.trace(m), atol=1e-9 * max(1.0, abs(np.trace(m))))


def test_eig_sym_shift_identity():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(8, 8))
    m = (a + a.T) / 2
    t = 3.7
    assert np.allclose(eig_sym(m + t * np.eye(8)), eig_sym(m) + t, atol=1e-9)


def test_eig_sym_input_validation():
    with pytest.raises(ValueError):
        eig_sym(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("helper", [eig_sym, lambda1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_helpers_reject_asymmetric_and_non_finite_input(helper, bad):
    # a graph solves the blocks of its own Laplacian without this check;
    # matrices from outside still get it
    with pytest.raises(ValueError, match="not symmetric"):
        helper(np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        helper(np.array([[2.0, bad], [bad, 2.0]]))


def test_lambda1_is_smallest():
    rng = np.random.default_rng(24)
    for _ in range(15):
        n = int(rng.integers(3, 14))
        g = rand_connected(rng, n, extra=4)
        m = ground(g, rand_pins(rng, n, int(rng.integers(1, n)))).matrix
        assert lambda1(m) == eig_sym(m)[0]


def test_lambda1_against_inverse_iteration():
    rng = np.random.default_rng(25)
    for _ in range(12):
        n = int(rng.integers(4, 16))
        g = rand_connected(rng, n, extra=5)
        m = ground(g, rand_pins(rng, n, int(rng.integers(1, n // 2 + 1)))).matrix
        assert abs(lambda1(m) - smallest_eig_by_inverse_iteration(m)) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 7, 20, 100])
def test_star_leaf_pin_closed_form(n):
    # quadratic x^2 - n x + 1 = 0 gives the smallest grounded eigenvalue
    expect = min(np.roots([1.0, -float(n), 1.0]).real)
    got = star_grounded_lambda1(n, "leaf")
    assert abs(got - expect) < 1e-12
    # and it matches the dense eigensolve on the actual grounded matrix
    direct = lambda1(ground(gen_star(n), [1]).matrix)
    assert abs(got - direct) < 1e-9


@pytest.mark.parametrize("n", [3, 5, 33])
def test_star_center_pin_closed_form(n):
    assert star_grounded_lambda1(n, "center") == 1.0
    assert abs(lambda1(ground(gen_star(n), [0]).matrix) - 1.0) < 1e-9


def test_star_grounded_lambda1_validation():
    with pytest.raises(ValueError):
        star_grounded_lambda1(2, "leaf")
    with pytest.raises(ValueError):
        star_grounded_lambda1(5, "edge")


def test_complete_grounded_spectrum_matches_direct():
    for n in (3, 4, 9, 17):
        for l in range(1, n):
            got = complete_grounded_spectrum(n, l)
            direct = eig_sym(ground(gen_complete(n), list(range(l))).matrix)
            assert np.allclose(got, direct, atol=1e-9), (n, l)
            # multiset is {l} once and {n} repeated
            assert abs(got[0] - l) < 1e-12
            assert np.allclose(got[1:], n, atol=1e-12)


def test_complete_grounded_spectrum_validation():
    with pytest.raises(ValueError):
        complete_grounded_spectrum(4, 0)
    with pytest.raises(ValueError):
        complete_grounded_spectrum(4, 4)


def test_grounded_lambda1_positive_iff_every_component_touches_pins():
    # connected graph: grounded matrix is positive definite
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        g = rand_connected(rng, n, extra=3)
        assert lambda1(ground(g, [0]).matrix) > 0
