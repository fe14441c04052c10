import json

import numpy as np
import pytest

import pinopt.bounds
import pinopt.graphs
from conftest import rand_connected, rand_pins
from pinopt.bounds import (
    _closed_forms,
    after_pin_ceilings,
    bottom_vector,
    bound_report,
    boundary_bounds,
    criterion_holds,
    feedback_gain_bound,
    pin_set_ceilings,
    ritz_ceilings,
    upper_by_min_degree,
    upper_by_spectrum,
    upper_single_pin,
)
from pinopt.generators import gen_complete, gen_double_star, gen_path, gen_star
from pinopt.cli import main
from pinopt.graphs import build_graph, format_edge_list, ground, laplacian, pin_set
from pinopt.spectra import complete_grounded_spectrum, eig_sym, lambda1, star_grounded_lambda1

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
    with pytest.raises(ValueError, match=r"^l must be an integer, got 2\.5$"):
        upper_by_spectrum(g, 2.5)


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
    with pytest.raises(ValueError, match="need at least two nodes"):
        upper_single_pin(build_graph(1, []), 0)
    # i is an exact integer: 1.5 is not node 1
    with pytest.raises(ValueError, match=r"^pin must be an integer, got 1\.5$"):
        upper_single_pin(g, 1.5)


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
                _, kmin, mean = _closed_forms(ground(g, row))
                assert ceiling == float(min(kmin, mean))
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


@pytest.mark.parametrize("block_bytes", [1, 1 << 40], ids=["one_row", "all_rows"])
def test_ritz_ceilings_bound_lambda1(monkeypatch, block_bytes):
    monkeypatch.setattr(pinopt.graphs, "BLOCK_BYTES", block_bytes)
    cases = 0
    for g, rows in _ritz_cases():
        got = ritz_ceilings(g, rows, np.ones(g.n))
        for row, ceiling in zip(rows, got):
            m = ground(g, row).matrix
            assert ceiling >= np.linalg.eigvalsh(m)[0], (g, row)
            # never looser than cut(S) / (n - l), the quotient of the all-ones start
            assert ceiling <= boundary_bounds(g, row)[1] + TOL
            cases += 1
    assert cases > 1000


# Krylov depths checked: below, at and above the searches' RITZ_DEPTH
DEPTHS = (1, 2, 4, 8, 16, 32, 64)


def _split_cases():
    """(graph, pins) whose uncontrolled nodes fall into several components,
    some cut off from every pin: paths and a ring cut by interior pins, a
    barbell pinned at its bridge, and a double star pinned at both hubs."""
    barbell = build_graph(10, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                          + [(u, v) for u in range(5, 10) for v in range(u + 1, 10)] + [(4, 5)])
    ring = build_graph(12, [(i, (i + 1) % 12) for i in range(12)])
    split_rows = [(gen_path(9), [[2, 6], [4, 5], [0, 4]]), (ring, [[0, 4, 8], [0, 6, 7]]),
                  (barbell, [[4, 5], [4], [0, 4]]), (gen_double_star(4), [[0, 1], [0]]),
                  (build_graph(8, [(0, 1), (1, 2), (4, 5)]), [[1], [4, 1]])]
    for g, rows in split_rows:
        for row in rows:
            yield g, np.array([row])


def test_ritz_ceilings_bound_lambda1_at_every_depth(monkeypatch):
    # each depth is an upper bound on lambda1 by the recompute-plus-slack
    # argument, on random graphs, stars, complete graphs (Lanczos breaks down
    # at once) and pin sets that split the uncontrolled nodes; a deeper space
    # holds the shallower one, so its ceiling is never higher by more than the
    # rounding slack
    cases = 0
    for g, rows in [*_ritz_cases(), *_split_cases()]:
        exact = np.array([np.linalg.eigvalsh(ground(g, row).matrix)[0] for row in rows])
        slack = 4.0 * g.n * np.finfo(float).eps * max(1.0, 2.0 * float(g.degrees.max(initial=0)))
        last = None
        for depth in DEPTHS:
            monkeypatch.setattr(pinopt.bounds, "RITZ_DEPTH", depth)
            got = ritz_ceilings(g, rows, np.ones(g.n))
            assert np.all(got >= exact), (g, rows, depth)
            if last is not None:
                assert np.all(got <= last + slack), (g, rows, depth)
            last = got
            cases += len(rows)
    assert cases > 5000
    # pinned at the hub, or anywhere in K_n, the start is an eigenvector, so
    # Lanczos breaks down after one step and every depth gives lambda1
    # itself, raised by the slack and a rounding of the quotient
    for g, lam in ((gen_star(9), 1.0), (gen_complete(7), 2.0)):
        slack = 4.0 * g.n * np.finfo(float).eps * 2.0 * float(g.degrees.max())
        for depth in DEPTHS:
            monkeypatch.setattr(pinopt.bounds, "RITZ_DEPTH", depth)
            got = ritz_ceilings(g, np.array([[0, v] for v in range(2, g.n)]), np.ones(g.n))
            assert np.all((got >= lam) & (got <= lam + 2.0 * slack)), (g, depth, got)


def test_ritz_ceilings_bound_lambda1_from_any_start():
    # any start vector, zeroed on the row's pins, gives an upper bound; a
    # start that vanishes off the pins gives +inf, never NaN
    rng = np.random.default_rng(38)
    cases = 0
    for g, rows in _ritz_cases():
        exact = np.array([np.linalg.eigvalsh(ground(g, row).matrix)[0] for row in rows])
        for start in (rng.standard_normal(g.n), rng.random(g.n) ** 4):
            assert np.all(ritz_ceilings(g, rows, start) >= exact), (g, rows, start)
            cases += len(rows)
        zero = np.zeros(g.n)
        zero[rows[0]] = 1.0
        assert ritz_ceilings(g, rows[:1], zero)[0] == np.inf, (g, rows[0])
    assert cases > 1000


def test_after_pin_ceilings_bound_every_greedy_row():
    # from the shifted inverse-iteration vector of S, and from vectors far
    # from any eigenvector, every set S + [v] is bounded; on connected and
    # split graphs, with isolated nodes, lambda1 of S zero or not
    rng = np.random.default_rng(39)
    cases = 0
    for g, rows in _ritz_cases():
        for row in rows[:2]:
            if len(row) >= g.n - 1:
                continue
            free = np.setdiff1d(np.arange(g.n), row)
            exact = np.array([np.linalg.eigvalsh(ground(g, [*row, v]).matrix)[0] for v in free])
            y = bottom_vector(g, row, ground(g, row).lambda1)
            assert np.all(y[row] == 0.0) and np.abs(y).max() == 1.0, (g, row)
            spike = np.zeros(g.n)
            spike[free[0]] = 1.0
            for vec in (y, rng.standard_normal(g.n), spike):
                vec = np.where(np.isin(np.arange(g.n), row), 0.0, vec)
                got = after_pin_ceilings(g, vec, free)
                assert np.all(got >= exact), (g, row, vec)
                cases += len(free)
            # the spike is all of y at free[0], so only that row loses its bound
            assert got[0] == np.inf and np.all(np.isfinite(got[1:])), (g, row)
    assert cases > 1000


def test_all_ones_start_never_tightens_the_closed_form_at_one_pin():
    # L 1 is exactly 0, so from all ones after_pin_ceilings is deg(v) / (n - 1)
    # plus its slack, above pin_set_ceilings' min(kmin, cut / (n - 1)): greedy's
    # first round keeps the closed forms to the bit, on graphs with isolated
    # nodes too, where kmin is 0
    graphs = {id(g): g for g, _ in _ritz_cases() if g.n >= 2}.values()
    for g in graphs:
        free = np.arange(g.n)
        closed = pin_set_ceilings(g, free[:, None])
        assert np.array_equal(np.minimum(closed, after_pin_ceilings(g, np.ones(g.n), free)), closed), g
    assert len(graphs) == 36


def test_ritz_ceilings_tighten_the_closed_forms():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        g = rand_connected(rng, n, extra=int(rng.integers(0, 2 * n)))
        l = int(rng.integers(1, n - 1))
        rows = np.array([rand_pins(rng, n, l) for _ in range(5)])
        # the all-ones start: cut(S) / (n - l), the mean boundary weight
        cut = [boundary_bounds(g, row)[1] for row in rows]
        assert np.all(ritz_ceilings(g, rows, np.ones(g.n)) <= np.array(cut) + TOL)
        # one pin: the single-pin cap deg(v) / (n - 1)
        single = ritz_ceilings(g, np.arange(n)[:, None], np.ones(n))
        assert np.all(single <= np.array([upper_single_pin(g, v) for v in range(n)]) + TOL)


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


# alpha that leaves the gain-bound matrices non-finite, and a coupling that
# overflows them
@pytest.mark.parametrize("alpha, c", [(float("nan"), 1.0), (float("-inf"), 1.0),
                                      (0.5, float("inf")), (0.5, 1e308)])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_feedback_gain_bound_refuses_non_finite_matrices(alpha, c):
    with pytest.raises(ValueError, match="finite"):
        feedback_gain_bound(gen_star(6), [0], alpha=alpha, c=c)


def test_bound_report_fields():
    g = gen_double_star(5)
    pins = (1, 7)  # both hubs
    rep = bound_report(g, pins, alpha_over_c=0.8)
    assert abs(rep.lambda1 - 1.0) < TOL
    assert rep.lower_min_boundary == 1.0
    assert rep.upper_kmin == upper_by_min_degree(g, pins)
    # interlacing bounds lambda1, here 1 exactly as the clamp prints it;
    # the spectrum's eigensolve may land an ulp below
    assert rep.upper_spectrum == max(upper_by_spectrum(g, 2), rep.lambda1)
    assert rep.upper_single_pin is None
    assert rep.satisfied is True
    one = bound_report(g, [0])
    assert one.upper_single_pin == upper_single_pin(g, 0)
    assert one.alpha_over_c is None and one.satisfied is None


def test_a_report_normalises_solves_and_bounds_its_pin_set_once(monkeypatch):
    g = rand_connected(np.random.default_rng(29), 40, extra=60)
    g.spectrum  # the graph's own solve, shared by every report
    calls = {}
    # pin_set in bounds too, where a report that imports it normalises its pins itself
    for module, name in ((pinopt.bounds, "_closed_forms"), (pinopt.bounds, "_exact_lambda1"),
                         (pinopt.graphs, "pin_set"), (pinopt.bounds, "pin_set"), (np.linalg, "eigvalsh")):
        if hasattr(module, name):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    bound_report(g, [9, 0, 5, 9], alpha_over_c=0.3)
    assert calls == {"_closed_forms": 1, "_exact_lambda1": 1, "pin_set": 1, "eigvalsh": 1}


def test_bound_report_json_keys_stable(tmp_path, capsys):
    path = tmp_path / "star5.txt"
    path.write_text(format_edge_list(gen_star(5)))
    assert main(["analyze", str(path), "--pins", "0"]) == 0
    keys = list(json.loads(capsys.readouterr().out))
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


# the split graph: a path 0-1-2, an edge 3-4, a triangle 5-6-7 and node 8 alone
SPLIT = "9\n0 1\n1 2\n3 4\n5 6\n6 7\n5 7\n"


def test_printed_lambda1_is_the_closed_form_where_the_bounds_meet():
    # K_n under any l pins: every node keeps l pinned neighbours and the mean is l
    rng = np.random.default_rng(35)
    for n in range(3, 31):
        g = gen_complete(n)
        for l in range(1, n):
            pins = rand_pins(rng, n, l)
            assert bound_report(g, pins).lambda1 == complete_grounded_spectrum(n, l)[0], pins
    for n in range(3, 40):
        assert bound_report(gen_star(n), [0]).lambda1 == star_grounded_lambda1(n, "center")
        leaf = bound_report(gen_star(n), [1])
        assert leaf.lambda1 == pytest.approx(star_grounded_lambda1(n, "leaf"), rel=1e-12)
        assert leaf.lower_min_boundary <= leaf.lambda1 <= leaf.upper_avg_boundary


# two components: 1-2, and 0-4-3-5, which holds no pin when node 2 is pinned
PINLESS = "6\n0 4\n1 2\n3 4\n3 5\n"


def test_printed_lambda1_is_zero_where_a_part_has_no_pin():
    g = pinopt.graphs.parse_edge_list(SPLIT)
    assert ground(g, [3]).lambda1 < 0.0  # the eigensolve lands below the exact 0
    for pins in ([3], [0, 5], [0, 3, 5]):
        rep = bound_report(g, pins)
        assert rep.lambda1 == 0.0 and not np.signbit(rep.lambda1), pins
        # fewer pins than its four components: the Laplacian's (l+1)-th eigenvalue is 0
        assert rep.upper_spectrum == 0.0 and not np.signbit(rep.upper_spectrum), pins
    # and here above it, under an upper bound of 1/5
    g = pinopt.graphs.parse_edge_list(PINLESS)
    assert ground(g, [2]).lambda1 > 0.0
    rep = bound_report(g, [2], alpha_over_c=0.0)
    assert rep.lambda1 == 0.0 and not np.signbit(rep.lambda1)
    assert rep.upper_spectrum == 0.0
    assert rep.satisfied is False
    # the refusal prints the clamp that decided it, not the eigensolve
    with pytest.raises(ValueError, match=r"gain bound needs .* got c\*lambda1=0 vs alpha=0$"):
        feedback_gain_bound(g, [2], 0.0, 1.0)


def test_printed_lambda1_stays_inside_its_bounds():
    rng = np.random.default_rng(34)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = build_graph(n, edges)
        rep = bound_report(g, rand_pins(rng, n, int(rng.integers(1, n))))
        assert rep.lower_min_boundary <= rep.lambda1
        assert rep.lambda1 <= min(rep.upper_kmin, rep.upper_avg_boundary, rep.upper_spectrum)
        assert not np.signbit(rep.lambda1)


def test_the_bounds_decide_the_verdict_where_they_can():
    k8 = gen_complete(8)
    # lambda1 is exactly 3 and the eigensolve lands a few ulps above it
    assert ground(k8, [1, 2, 6]).lambda1 > 3.0
    assert bound_report(k8, [2, 6, 1], alpha_over_c=3.0).satisfied is False
    assert not criterion_holds(ground(k8, [1, 2, 6]), 3.0)
    assert criterion_holds(ground(k8, [1, 2, 6]), float(np.nextafter(3.0, 0.0)))
    # c * 3 against alpha exactly, not in floats: 0.1 * 3 rounds up to 0.30000000000000004
    assert criterion_holds(ground(k8, [1, 2, 6]), 0.3, c=0.1)
    assert not criterion_holds(ground(k8, [1, 2, 6]), 0.30000000000000004, c=0.1)
    k30 = gen_complete(30)
    # and on K30 a few ulps below it
    assert ground(k30, [0, 1, 2]).lambda1 < 3.0
    assert bound_report(k30, [0, 1, 2], alpha_over_c=float(np.nextafter(3.0, 0.0))).satisfied is True
    # the gain bound's precondition is the same verdict
    with pytest.raises(ValueError, match=r"gain bound needs c \* lambda1\(grounded\) > alpha; "
                                         r"got c\*lambda1=3 vs alpha=3"):
        feedback_gain_bound(k8, [1, 2, 6], 3.0, 1.0)
    assert np.isfinite(feedback_gain_bound(k30, [0, 1, 2], 2.999999999999995, 1.0))


def test_the_eigensolve_decides_the_verdict_between_the_bounds():
    g = gen_path(5)
    grounded = ground(g, [0])
    lam = grounded.lambda1
    assert 0.0 < lam < 0.25  # bounds 0 and 1/4
    assert criterion_holds(grounded, lam - 1e-12) and not criterion_holds(grounded, lam)
    # a non-finite threshold or coupling is compared in floats, as before
    assert criterion_holds(grounded, float("-inf"))
    assert not criterion_holds(grounded, float("inf"))
    assert not criterion_holds(grounded, float("nan"))
    assert criterion_holds(grounded, 1.0, c=float("inf"))
