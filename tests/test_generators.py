import numpy as np
import pytest

from conftest import edge_pairs
from pinopt.generators import (
    gen_ba,
    gen_complete,
    gen_double_star,
    gen_erdos_renyi,
    gen_nw,
    gen_path,
    gen_star,
)
from pinopt.graphs import build_graph, connected_components


def test_fixed_families_exact_shapes():
    star = gen_star(5)
    assert edge_pairs(star) == ((0, 1), (0, 2), (0, 3), (0, 4))
    path = gen_path(4)
    assert edge_pairs(path) == ((0, 1), (1, 2), (2, 3))
    comp = gen_complete(4)
    assert comp.m == 6 and np.all(comp.degrees == 3)


def test_double_star_layout():
    g = gen_double_star(5)
    assert g.n == 13 and g.m == 12
    assert g.degrees[0] == 2  # bridge
    assert g.degrees[1] == 6 and g.degrees[7] == 6  # hubs: 5 leaves + bridge
    assert sorted(g.degrees.tolist()) == [1] * 10 + [2] + [6, 6]
    assert connected_components(g) == [list(range(g.n))]
    with pytest.raises(ValueError):
        gen_double_star(0)


def test_fixed_family_validation():
    with pytest.raises(ValueError):
        gen_star(2)
    with pytest.raises(ValueError):
        gen_path(1)
    with pytest.raises(ValueError):
        gen_complete(1)


@pytest.mark.parametrize("n,m0,m", [(25, 3, 1), (50, 5, 5), (40, 4, 2), (10, 9, 9)])
def test_ba_edge_count_formula(n, m0, m):
    for seed in (0, 1, 7):
        g = gen_ba(n, m0, m, seed)
        assert g.m == m0 * (m0 - 1) // 2 + m * (n - m0)
        assert int(g.degrees.min()) >= m
        assert connected_components(g) == [list(range(g.n))]


def test_ba_deterministic_and_seed_sensitive():
    a = gen_ba(60, 5, 3, seed=42)
    b = gen_ba(60, 5, 3, seed=42)
    assert a == b
    assert any(gen_ba(60, 5, 3, seed=s) != a for s in range(5))


def test_ba_validation():
    with pytest.raises(ValueError):
        gen_ba(10, 3, 4, seed=0)  # m > m0
    with pytest.raises(ValueError):
        gen_ba(3, 3, 1, seed=0)  # m0 not < n


def test_ba_prefers_high_degree():
    # hubs should accumulate: max degree far above the attachment constant
    g = gen_ba(300, 5, 5, seed=11)
    assert int(g.degrees.max()) >= 25


def test_nw_contains_ring_lattice():
    n, k = 20, 4
    g = gen_nw(n, k, 0.1, seed=3)
    edge_set = set(edge_pairs(g))
    for i in range(n):
        for step in (1, 2):
            assert tuple(sorted((i, (i + step) % n))) in edge_set
    assert int(g.degrees.min()) >= k


def test_nw_p_zero_is_exact_lattice():
    n, k = 12, 4
    g = gen_nw(n, k, 0.0, seed=9)
    assert g.m == n * k // 2
    assert np.all(g.degrees == k)


def test_nw_p_one_is_complete():
    g = gen_nw(9, 2, 1.0, seed=0)
    assert g.m == 9 * 8 // 2


def test_nw_deterministic():
    assert gen_nw(50, 4, 0.05, seed=5) == gen_nw(50, 4, 0.05, seed=5)
    with pytest.raises(ValueError):
        gen_nw(10, 3, 0.1, seed=0)  # odd lattice degree
    with pytest.raises(ValueError):
        gen_nw(4, 4, 0.1, seed=0)  # k must stay below n
    with pytest.raises(ValueError):
        gen_nw(10, 2, 1.5, seed=0)


def test_erdos_renyi_extremes_and_count():
    assert gen_erdos_renyi(8, 0.0, seed=1).m == 0
    assert gen_erdos_renyi(8, 1.0, seed=1).m == 28
    counts = [gen_erdos_renyi(40, 0.3, seed=s).m for s in range(10)]
    assert counts == [gen_erdos_renyi(40, 0.3, seed=s).m for s in range(10)]
    # mean edge count within 4 sigma of binomial expectation
    expect = 0.3 * 40 * 39 / 2
    sigma = np.sqrt(expect * 0.7)
    assert abs(np.mean(counts) - expect) < 4 * sigma / np.sqrt(10)
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, -0.1, seed=0)


# ------------------------------------ array builds against list-of-pairs references
#
# Each reference draws from the same random stream as its family and lists
# the edges as Python pairs, pair by pair.


def _ref_star(n):
    return n, [(0, i) for i in range(1, n)]


def _ref_double_star(k):
    edges = [(0, 1), (0, k + 2)] + [(1, i) for i in range(2, k + 2)]
    return 2 * k + 3, edges + [(k + 2, i) for i in range(k + 3, 2 * k + 3)]


def _ref_complete(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def _ref_path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _ref_ba(n, m0, m, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(m0) for v in range(u + 1, m0)]
    urn = [e for edge in edges for e in edge]
    for new in range(m0, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(urn[rng.integers(len(urn))] if urn else int(rng.integers(new)))
        for tgt in sorted(chosen):
            edges.append((tgt, new))
            urn += [tgt, new]
    return n, edges


def _ref_pairs(n, seed, keep):
    """The pairs u < v, in row order, for which keep(u, v, draw) holds."""
    draws = np.random.default_rng(seed).random(n * (n - 1) // 2).tolist()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, [(u, v) for (u, v), r in zip(pairs, draws) if keep(u, v, r)]


def _ref_nw(n, k, p, seed):
    return _ref_pairs(n, seed, lambda u, v, r: min(v - u, n - v + u) <= k // 2 or r < p)


def _ref_erdos_renyi(n, p, seed):
    return _ref_pairs(n, seed, lambda u, v, r: r < p)


def _family_cases():
    for n in (3, 4, 7, 30, 61):
        yield gen_star, _ref_star, (n,)
        yield gen_complete, _ref_complete, (n,)
        yield gen_path, _ref_path, (n,)
        yield gen_double_star, _ref_double_star, (n // 3 + 1,)
        for seed in (0, 5, 12):
            for m0, m in ((1, 1), (2, 1), (3, 3)):
                if m0 < n:
                    yield gen_ba, _ref_ba, (n, m0, m, seed)
            for k, p in ((2, 0.0), (2, 0.3), (4, 0.05)):
                if k < n:
                    yield gen_nw, _ref_nw, (n, k, p, seed)
            for p in (0.0, 0.1, 0.5, 1.0):
                yield gen_erdos_renyi, _ref_erdos_renyi, (n, p, seed)
    yield gen_erdos_renyi, _ref_erdos_renyi, (1, 0.5, 3)


def test_families_equal_their_list_of_pairs_references():
    for gen, ref, args in _family_cases():
        g = gen(*args)
        assert g == build_graph(*ref(*args)), (gen.__name__, args)
        assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable


def _ref_build(n, edges):
    """build_graph as a set of pairs: same checks, same order, same messages."""
    if n < 1:
        raise ValueError(f"graph needs at least one node, got n={n}")
    canon = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self loop at node {u} not allowed")
        canon.add((u, v) if u < v else (v, u))
    return tuple(sorted(canon))


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_build_graph_matches_the_set_reference_on_mixed_input():
    rng = np.random.default_rng(19)
    for trial in range(300):
        n = int(rng.integers(0, 12))
        pairs = rng.integers(-2, 14, size=(int(rng.integers(0, 10)), 2)).tolist()
        if trial % 5 == 0 and pairs:  # an id past int64 somewhere
            pairs[int(rng.integers(len(pairs)))][int(rng.integers(2))] = 2**63 + trial
        want = _outcome(_ref_build, n, pairs)
        for edges in (pairs, [tuple(e) for e in pairs], iter(pairs)):
            got = _outcome(build_graph, n, edges)
            assert (got if isinstance(got, str) else edge_pairs(got)) == want, (n, pairs)
        if trial % 5:
            got = _outcome(build_graph, n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
            assert (got if isinstance(got, str) else edge_pairs(got)) == want, (n, pairs)
