import json

import numpy as np
import pytest

import pinopt.bounds
from conftest import rand_connected, rand_pins
from pinopt.bounds import (
    bound_report,
    boundary_bounds,
    feedback_gain_bound,
    necessary_lambda2,
    pin_set_ceilings,
    ritz_ceilings,
    upper_by_min_degree,
    upper_by_spectrum,
    upper_single_pin,
)
from pinopt.generators import gen_complete, gen_double_star, gen_path, gen_star
from pinopt.graphs import build_graph, ground, laplacian, pin_set
from pinopt.spectra import eig_sym, lambda1

TOL = 1e-9


def test_sandwich_on_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(3, 25))
        g = rand_connected(rng, n, extra=int(rng.integers(0, n)))
        pins = rand_pins(rng, n, int(rng.integers(1, n)))
        lam = lambda1(ground(g, pins).matrix)
        lo, avg = boundary_bounds(g, pins)
        assert lo - TOL <= lam <= avg + TOL
        assert lam <= upper_by_spectrum(g, len(pins)) + TOL
        assert lam <= upper_by_min_degree(g, pins) + TOL
        assert lam > 0.0


def test_upper_by_spectrum_is_laplacian_eigenvalue():
    g = gen_double_star(5)
    full = eig_sym(laplacian(g))
    for l in range(1, g.n):
        assert upper_by_spectrum(g, l) == full[l]
    with pytest.raises(ValueError):
        upper_by_spectrum(g, 0)
    with pytest.raises(ValueError):
        upper_by_spectrum(g, g.n)


def test_upper_by_min_degree_ignores_pinned_nodes():
    g = gen_star(6)
    # pinning all leaves leaves only the hub, degree 5
    assert upper_by_min_degree(g, range(1, 6)) == 5.0
    assert upper_by_min_degree(g, [0]) == 1.0


def test_upper_single_pin_bound_holds():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(3, 20))
        g = rand_connected(rng, n, extra=int(rng.integers(0, 2 * n)))
        i = int(rng.integers(0, n))
        bound = upper_single_pin(g, i)
        assert bound <= 1.0 + TOL
        assert lambda1(ground(g, [i]).matrix) <= bound + TOL


def test_upper_single_pin_tight_on_star_and_complete():
    assert upper_single_pin(gen_star(9), 0) == 1.0  # hub: bound == lambda1
    assert abs(lambda1(ground(gen_star(9), [0]).matrix) - 1.0) < TOL
    g = gen_complete(7)
    assert upper_single_pin(g, 3) == 1.0
    assert abs(lambda1(ground(g, [3]).matrix) - 1.0) < TOL
    with pytest.raises(ValueError):
        upper_single_pin(g, 7)


def test_pin_set_ceilings_take_the_two_closed_form_bounds():
    rng = np.random.default_rng(35)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        g = rand_connected(rng, n, extra=int(rng.integers(0, n)))
        l = int(rng.integers(1, n))
        rows = np.array([rand_pins(rng, n, l) for _ in range(5)])
        # sorted rows, as brute force passes them, and unsorted, as greedy does
        for pins in (rows, rng.permuted(rows, axis=1)):
            got = pin_set_ceilings(g, pins)
            for row, ceiling in zip(pins, got):
                _, avg = boundary_bounds(g, row)
                want = min(upper_by_min_degree(g, row), avg)
                assert ceiling == pytest.approx(want, abs=1e-12)
                assert lambda1(ground(g, row).matrix) <= ceiling + TOL


def _ritz_cases():
    """(graph, pins) over seeded random groundings: connected graphs,
    graphs with several components and isolated nodes, edgeless graphs,
    l from 1 to n-1; rows sorted, as brute force passes them, the same
    rows shuffled, and greedy's rows current + [v], one per node v not
    in an unsorted current."""
    rng = np.random.default_rng(36)
    graphs = [rand_connected(rng, int(rng.integers(3, 30)), extra=int(rng.integers(0, 40)))
              for _ in range(20)]
    for _ in range(10):
        n = int(rng.integers(3, 25))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2))
        graphs.append(build_graph(n, [(u, v) for u, v in pairs if u != v]))
    graphs += [build_graph(2, []), build_graph(6, []), build_graph(2, [(0, 1)]),
               build_graph(7, [(0, 1), (1, 2), (4, 5)]), gen_star(7), gen_complete(6)]
    for g in graphs:
        for l in sorted({1, g.n - 1, int(rng.integers(1, g.n))}):
            rows = np.array([rand_pins(rng, g.n, l) for _ in range(6)])
            yield g, rows
            yield g, rng.permuted(rows, axis=1)
            if l > 1:
                current = rng.permutation(rows[0])[:-1]
                free = np.setdiff1d(np.arange(g.n), current)
                yield g, np.column_stack([np.tile(current, (len(free), 1)), free])


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 20], ids=["one_row", "all_rows"])
def test_ritz_ceilings_bound_lambda1(monkeypatch, chunk_bytes):
    monkeypatch.setattr(pinopt.bounds, "RITZ_CHUNK_BYTES", chunk_bytes)
    cases = 0
    for g, rows in _ritz_cases():
        got = ritz_ceilings(g, rows)
        for row, ceiling in zip(rows, got):
            m = ground(g, row).matrix
            assert ceiling >= np.linalg.eigvalsh(m)[0], (g, row)
            # never looser than cut(S) / (n - l), the quotient of the all-ones start
            assert ceiling <= boundary_bounds(g, row)[1] + TOL
            cases += 1
    assert cases > 1000


def test_ritz_ceilings_tighten_the_closed_forms():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        g = rand_connected(rng, n, extra=int(rng.integers(0, 2 * n)))
        l = int(rng.integers(1, n - 1))
        rows = np.array([rand_pins(rng, n, l) for _ in range(5)])
        # the all-ones start: cut(S) / (n - l), the mean boundary weight
        cut = [boundary_bounds(g, row)[1] for row in rows]
        assert np.all(ritz_ceilings(g, rows) <= np.array(cut) + TOL)
        # one pin: the single-pin cap deg(v) / (n - 1)
        single = ritz_ceilings(g, np.arange(n)[:, None])
        assert np.all(single <= np.array([upper_single_pin(g, v) for v in range(n)]) + TOL)


def test_necessary_lambda2_threshold():
    g = gen_path(4)
    fiedler = eig_sym(laplacian(g))[1]  # 2 - sqrt(2)
    assert abs(fiedler - (2 - np.sqrt(2))) < 1e-12
    assert necessary_lambda2(g, fiedler - 0.05)
    assert not necessary_lambda2(g, fiedler + 0.05)


def _gain_matrix(g, pins, alpha, c, d):
    lap = laplacian(g)
    dd = np.zeros(g.n)
    dd[list(pins)] = d
    return c * (lap + np.diag(dd)) - alpha * np.eye(g.n)


def test_feedback_gain_bound_is_exact_threshold():
    # above the bound the certificate matrix is PD, below it is not
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(3, 14))
        g = rand_connected(rng, n, extra=int(rng.integers(0, n)))
        pins = pin_set(g, rand_pins(rng, n, int(rng.integers(1, n))))
        c = float(rng.uniform(0.5, 3.0))
        lam = lambda1(ground(g, pins).matrix)
        alpha = float(rng.uniform(0.1, 0.9)) * c * lam  # keep the precondition
        dstar = feedback_gain_bound(g, pins, alpha, c)
        at = eig_sym(_gain_matrix(g, pins, alpha, c, dstar))[0]
        above = eig_sym(_gain_matrix(g, pins, alpha, c, dstar + 0.1))[0]
        below = eig_sym(_gain_matrix(g, pins, alpha, c, dstar - 0.1))[0]
        assert abs(at) < 1e-7, "threshold should be the exact PD boundary"
        assert above > 0.0
        assert below < 0.0
        checked += 1
    assert checked == 60


def test_feedback_gain_bound_preconditions():
    g = gen_path(5)
    with pytest.raises(ValueError, match="c \\* lambda1"):
        feedback_gain_bound(g, [0], alpha=10.0, c=1.0)
    with pytest.raises(ValueError, match="positive"):
        feedback_gain_bound(g, [0], alpha=0.1, c=0.0)


def test_feedback_gain_bound_refuses_nan_coupling():
    with pytest.raises(ValueError, match="coupling strength must be positive"):
        feedback_gain_bound(gen_path(5), [0], alpha=0.1, c=float("nan"))


def test_bound_report_fields():
    g = gen_double_star(5)
    pins = (1, 7)  # both hubs
    rep = bound_report(g, pins, alpha_over_c=0.8)
    assert abs(rep.lambda1 - 1.0) < TOL
    assert rep.lower_min_boundary == 1.0
    assert rep.upper_kmin == upper_by_min_degree(g, pins)
    assert rep.upper_spectrum == upper_by_spectrum(g, 2)
    assert rep.upper_single_pin is None
    assert rep.satisfied is True
    one = bound_report(g, [0])
    assert one.upper_single_pin == upper_single_pin(g, 0)
    assert one.alpha_over_c is None and one.satisfied is None


def test_bound_report_json_keys_stable():
    g = gen_star(5)
    keys = list(json.loads(bound_report(g, [0]).to_json()))
    assert keys == [
        "lambda1",
        "lower_min_boundary",
        "upper_spectrum",
        "upper_kmin",
        "upper_avg_boundary",
        "upper_single_pin",
        "alpha_over_c",
        "satisfied",
    ]
