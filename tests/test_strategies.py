import gc
import itertools
import weakref

import numpy as np
import pytest

import pinopt
import pinopt.graphs
import pinopt.strategies
from conftest import betweenness_by_enumeration, neighbours, rand_connected
from test_acceptance import _suite
from pinopt.bounds import RITZ_DEPTH, bound_report
from pinopt.generators import (
    gen_ba,
    gen_complete,
    gen_double_star,
    gen_erdos_renyi,
    gen_nw,
    gen_path,
    gen_star,
)
from pinopt.graphs import Graph, build_graph, format_edge_list, ground, parse_edge_list
from pinopt.spectra import lambda1
from pinopt.strategies import (
    BRUTE_FORCE_BUDGET,
    TIE_TOL,
    BudgetError,
    StrategyConfig,
    betweenness_centrality,
    brute_force_max_lambda1,
    degree_mix_pins,
    dominating_partition,
    greedy_max_lambda1,
    select_betweenness,
    select_degree_mix,
)


def _lam(g, pins):
    return lambda1(ground(g, pins).matrix)


# ---------------------------------------------------------------- betweenness


def test_betweenness_against_path_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        g = rand_connected(rng, n, extra=int(rng.integers(0, n)))
        got = betweenness_centrality(g)
        assert np.allclose(got, betweenness_by_enumeration(g), atol=1e-9)


def _betweenness_with_arrays(g):
    """The Brandes loop over numpy arrays, as betweenness_centrality once ran it."""
    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    nbrs = neighbours(g)
    for s in range(n):
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        preds = [[] for _ in range(n)]
        order = []
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc / 2.0


def test_betweenness_equals_the_array_loop_exactly():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        g = rand_connected(rng, n, extra=int(rng.integers(0, 2 * n)))
        assert np.array_equal(betweenness_centrality(g), _betweenness_with_arrays(g))


def _betweenness_list_loop(g):
    """The Brandes loop over Python lists, one source at a time, as
    betweenness_centrality ran it before the sources were batched."""
    n = g.n
    bc = [0.0] * n
    nbrs = neighbours(g)
    for s in range(n):
        sigma = [0.0] * n
        sigma[s] = 1.0
        dist = [-1] * n
        dist[s] = 0
        preds = [[] for _ in range(n)]
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(queue):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return np.array(bc) / 2.0


def _grid(side):
    cells = np.arange(side * side).reshape(side, side)
    edges = np.concatenate([np.stack([cells[:, :-1].ravel(), cells[:, 1:].ravel()], 1),
                            np.stack([cells[:-1].ravel(), cells[1:].ravel()], 1)])
    return build_graph(side * side, edges)


def _layered(rng, layers, width):
    """Each node linked to 2..width random nodes of the layer before it:
    up to `width` predecessors with unequal path counts, past 2**53 after
    about 35 layers."""
    edges = []
    for t in range(1, layers):
        for j in range(width):
            below = rng.choice(width, size=int(rng.integers(2, width + 1)), replace=False)
            edges += [((t - 1) * width + int(i), t * width + j) for i in below]
    return build_graph(layers * width, edges)


def _hypercube(dim):
    return build_graph(1 << dim, [(u, u ^ (1 << b)) for u in range(1 << dim) for b in range(dim)])


@pytest.fixture(scope="module")
def betweenness_cases():
    """(graph, list-loop betweenness) pairs: random connected graphs,
    graphs with several components and isolated nodes, n = 1 and 2, a
    300-node path (300 levels from an end), a star, a 30 x 30 grid and a
    layered graph. Path counts pass 2**53 on the last two, where float
    sums round; on the grid a node has at most two predecessors, whose
    sum is the same in either order, so only the layered graph shows the
    order of the sigma sums."""
    rng = np.random.default_rng(43)
    graphs = [rand_connected(rng, int(rng.integers(3, 60)), extra=int(rng.integers(0, 90)))
              for _ in range(25)]
    for _ in range(15):
        n = int(rng.integers(2, 40))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2))
        graphs.append(build_graph(n, [(u, v) for u, v in pairs if u != v]))
    graphs += [build_graph(1, []), build_graph(2, []), build_graph(2, [(0, 1)]),
               build_graph(7, [(0, 1), (1, 2), (4, 5)]), gen_path(300), gen_star(40), _grid(30),
               _layered(rng, 40, 5)]
    return [(g, _betweenness_list_loop(g)) for g in graphs]


@pytest.mark.parametrize("block_bytes", [1, 1 << 40], ids=["one_source", "all_sources"])
def test_betweenness_equals_the_list_loop_exactly(betweenness_cases, block_bytes, monkeypatch):
    monkeypatch.setattr(pinopt.graphs, "BLOCK_BYTES", block_bytes)
    for g, expect in betweenness_cases:
        assert np.array_equal(betweenness_centrality(g), expect), (g.n, g.m)


def test_betweenness_known_values():
    n = 7
    star = betweenness_centrality(gen_star(n))
    assert star[0] == (n - 1) * (n - 2) / 2  # hub carries every leaf pair
    assert np.all(star[1:] == 0.0)
    path = betweenness_centrality(gen_path(4))
    assert path.tolist() == [0.0, 2.0, 2.0, 0.0]


def test_betweenness_disconnected_pairs_ignored():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert np.allclose(betweenness_centrality(g), [0.0, 1.0, 0.0, 0.0, 0.0])


def test_select_betweenness_breaks_ties_by_id():
    # C4 is vertex transitive: all scores equal, lowest ids win
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert select_betweenness(c4, 2).pin_set == (0, 1)
    res = select_betweenness(c4, 1)
    assert res.pin_set == (0,)
    assert res.lambda1 == pytest.approx(_lam(c4, (0,)))
    assert res.strategy == "betweenness"


@pytest.mark.parametrize("g", [gen_nw(31, 4, 0.0, 0), gen_nw(50, 6, 0.0, 0),
                               gen_nw(97, 4, 0.0, 0), _hypercube(6)],
                         ids=["ring31", "ring50", "ring97", "Q6"])
def test_select_betweenness_ties_within_tolerance_go_to_smaller_ids(g):
    # vertex transitive: every true value is equal, the computed ones
    # differ only by float noise
    bc = betweenness_centrality(g)
    assert np.ptp(bc) <= TIE_TOL * bc.max()
    assert select_betweenness(g, 3).pin_set == (0, 1, 2)


def test_select_betweenness_keeps_no_graph_alive():
    g = gen_ba(30, 3, 2, 31)
    first = select_betweenness(g, 2)
    assert select_betweenness(g, 2) == first
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


# ----------------------------------------------------------------- degree mix


def test_degree_mix_pure_extremes():
    g = gen_star(8)  # degrees 7,1,1,...
    assert degree_mix_pins(g, StrategyConfig(l=1, q=1.0, seed=0), run=0) == (0,)
    assert 0 not in degree_mix_pins(g, StrategyConfig(l=3, q=0.0, seed=0), run=0)
    # distinct top degrees: the choice is forced whatever the seed
    g2 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    for seed in range(5):
        assert degree_mix_pins(g2, StrategyConfig(l=2, q=1.0, seed=seed), run=0) == (0, 1)


def test_degree_mix_split_counts():
    # round-half-to-even on q*l decides the high-degree share
    g = gen_double_star(5)
    deg = g.degrees
    for l, q, want_top in [(3, 0.5, 2), (5, 0.5, 2), (4, 0.25, 1), (2, 1.0, 2)]:
        pins = degree_mix_pins(g, StrategyConfig(l=l, q=q, seed=3), run=0)
        top = sum(1 for v in pins if deg[v] >= 6)  # hubs are the only high-degree nodes
        assert len(pins) == l
        if want_top <= 2:
            assert top == min(want_top, 2)


def test_degree_mix_runs_share_degree_multiset():
    rng = np.random.default_rng(42)
    g = rand_connected(rng, 12, extra=6)
    base = sorted(g.degrees[list(degree_mix_pins(g, StrategyConfig(l=5, q=0.6, seed=1), run=0))])
    for run in range(1, 6):
        pins = degree_mix_pins(g, StrategyConfig(l=5, q=0.6, seed=1), run=run)
        assert sorted(g.degrees[list(pins)]) == base
        assert degree_mix_pins(g, StrategyConfig(l=5, q=0.6, seed=1), run=run) == pins  # deterministic


def test_degree_mix_pins_match_the_list_reference():
    # the picks gathered and sorted element by element, as a list
    def reference(g, l, q, seed, run):
        n_top = round(q * l)
        tie = np.random.default_rng([seed, run]).permutation(g.n)
        by_top = np.lexsort((tie, -g.degrees))
        rest = by_top[n_top:]
        by_bottom = rest[np.lexsort((tie[rest], g.degrees[rest]))]
        picked = list(by_top[:n_top]) + list(by_bottom[: l - n_top])
        return tuple(sorted(int(v) for v in picked))

    rng = np.random.default_rng(43)
    for _ in range(20):
        g = rand_connected(rng, int(rng.integers(3, 40)), extra=int(rng.integers(0, 30)))
        for l in sorted({1, g.n - 1, int(rng.integers(1, g.n))}):
            for q in (0.0, 0.3, 0.5, 1.0):
                for run in range(3):
                    got = degree_mix_pins(g, StrategyConfig(l=l, q=q, seed=5), run=run)
                    assert got == reference(g, l, q, 5, run)
                    assert all(type(v) is int for v in got)


def test_select_degree_mix_aggregates_runs():
    g = gen_double_star(5)
    cfg = StrategyConfig(l=4, q=0.5, seed=7, runs=8)
    res = select_degree_mix(g, cfg)
    assert len(res.lambda1_runs) == 8
    assert res.lambda1 == pytest.approx(float(np.mean(res.lambda1_runs)))
    assert res.pin_set == degree_mix_pins(g, StrategyConfig(l=4, q=0.5, seed=7), run=0)
    assert res.q == 0.5 and res.strategy == "degree_mix"


def test_degree_mix_full_pin_endpoints():
    # pinning all but one node leaves exactly the min (q=1) or max (q=0) degree node
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        g = rand_connected(rng, n, extra=3)
        hi = select_degree_mix(g, StrategyConfig(l=n - 1, q=1.0, seed=0, runs=3))
        lo = select_degree_mix(g, StrategyConfig(l=n - 1, q=0.0, seed=0, runs=3))
        assert hi.lambda1 == pytest.approx(float(g.degrees.min()), abs=1e-9)
        assert lo.lambda1 == pytest.approx(float(g.degrees.max()), abs=1e-9)


def test_strategy_config_validation():
    # l is checked by graphs.check_l, with the message every other selection gives
    with pytest.raises(ValueError, match=r"^need 1 <= l <= n-1, got l=0 for n=13$"):
        select_degree_mix(gen_double_star(5), StrategyConfig(l=0, q=0.5))
    with pytest.raises(ValueError, match="q must be in"):
        StrategyConfig(l=2, q=1.5)
    with pytest.raises(ValueError, match="runs >= 1"):
        StrategyConfig(l=2, q=0.5, runs=0)
    with pytest.raises(TypeError):  # q has no default
        StrategyConfig(l=2)


# ---------------------------------------------------------------- dominating


def _dominates(g, pins):
    s, nbrs = set(pins), neighbours(g)
    return all(v in s or any(u in s for u in nbrs[v]) for v in range(g.n))


def test_dominating_partition_always_dominates():
    rng = np.random.default_rng(44)
    for trial in range(25):
        n = int(rng.integers(3, 30))
        g = rand_connected(rng, n, extra=int(rng.integers(0, n)))
        res = dominating_partition(g, seed=trial)
        assert _dominates(g, res.pin_set)
        assert 1 <= len(res.pin_set) < g.n
        assert res.lambda1 >= 1.0 - 1e-9  # domination forces min boundary weight 1


def test_dominating_partition_star_is_hub():
    res = dominating_partition(gen_star(9), seed=0)
    assert res.pin_set == (0,)
    assert res.lambda1 == pytest.approx(1.0)


def test_dominating_partition_retries_full_cover():
    # on C4 a sweep can select every node; the result must still leave some
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for seed in range(30):
        res = dominating_partition(c4, seed=seed)
        assert len(res.pin_set) < 4
        assert _dominates(c4, res.pin_set)


def test_dominating_partition_isolated_nodes_are_pinned():
    g = build_graph(5, [(0, 1), (1, 2), (2, 0)])  # 3 and 4 isolated
    res = dominating_partition(g, seed=2)
    assert {3, 4} <= set(res.pin_set)
    assert _dominates(g, res.pin_set)


def test_dominating_partition_deterministic_per_seed():
    rng = np.random.default_rng(45)
    g = rand_connected(rng, 20, extra=10)
    assert dominating_partition(g, seed=5).pin_set == dominating_partition(g, seed=5).pin_set


# ------------------------------------------------------- brute force / greedy


def test_brute_force_matches_direct_enumeration():
    rng = np.random.default_rng(46)
    for _ in range(10):
        n = int(rng.integers(4, 8))
        g = rand_connected(rng, n, extra=2)
        l = int(rng.integers(1, n - 1))
        res = brute_force_max_lambda1(g, l)
        best_val = -1.0
        best_set = None
        for combo in itertools.combinations(range(n), l):
            val = _lam(g, combo)
            if val > best_val + 1e-15:
                best_val, best_set = val, combo
        assert res.lambda1 == pytest.approx(best_val, abs=1e-12)
        assert res.pin_set == best_set  # first maximizer in lexicographic order
        assert res.strategy == "brute_force"


def test_brute_force_single_pin_double_star():
    # the bridge, not a hub, is the best single pin
    g = gen_double_star(5)
    res = brute_force_max_lambda1(g, 1)
    assert res.pin_set == (0,)


def test_brute_force_budget_refusal():
    g = gen_complete(30)
    with pytest.raises(BudgetError):
        brute_force_max_lambda1(g, 15)
    # explicit budgets are honored
    with pytest.raises(BudgetError):
        brute_force_max_lambda1(gen_path(20), 10, budget=1000)
    assert BRUTE_FORCE_BUDGET == 2_000_000


def test_greedy_never_beats_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(15):
        n = int(rng.integers(4, 9))
        g = rand_connected(rng, n, extra=3)
        l = int(rng.integers(1, n - 1))
        greedy = greedy_max_lambda1(g, l)
        brute = brute_force_max_lambda1(g, l)
        assert len(greedy.pin_set) == l
        assert greedy.lambda1 <= brute.lambda1 + 1e-12
        assert greedy.lambda1 == pytest.approx(_lam(g, greedy.pin_set))


def _plain_brute_force(g, l):
    """Solve every set; the smallest set within TIE_TOL of the max wins.
    The winner and the lambda1 that analyze prints for it."""
    vals = {combo: ground(g, combo).lambda1
            for combo in itertools.combinations(range(g.n), l)}
    top = max(vals.values())
    best = min(combo for combo, val in vals.items() if val >= top - TIE_TOL)
    return best, bound_report(g, best).lambda1


def _plain_greedy(g, l):
    """Solve every candidate each round; the smallest id within TIE_TOL of the max wins.
    The set and the lambda1 that analyze prints for it."""
    current = []
    for _ in range(l):
        vals = {v: ground(g, current + [v]).lambda1 for v in range(g.n) if v not in current}
        top = max(vals.values())
        current.append(min(v for v, val in vals.items() if val >= top - TIE_TOL))
    pins = tuple(sorted(current))
    return pins, bound_report(g, pins).lambda1


def _search_graphs():
    """The acceptance suite's graphs with n <= 8, then seeded random ones."""
    graphs = [g for g, _ in _suite() if g.n <= 8]
    rng = np.random.default_rng(48)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        graphs.append(rand_connected(rng, n, extra=int(rng.integers(0, 2 * n))))
    return graphs


def test_pruned_brute_force_equals_plain_enumeration():
    for g in _search_graphs():
        for l in range(1, g.n):
            res = brute_force_max_lambda1(g, l)
            assert (res.pin_set, res.lambda1) == _plain_brute_force(g, l), (g, l)


def test_pruned_greedy_equals_unpruned_greedy():
    for g in _search_graphs():
        for l in range(1, g.n):
            res = greedy_max_lambda1(g, l)
            assert (res.pin_set, res.lambda1) == _plain_greedy(g, l), (g, l)


def test_greedy_reads_smaller_sets_from_the_kept_rounds(monkeypatch):
    # l descending: the first call runs every round and the rest run none
    rounds = []
    real = pinopt.strategies._pruned_argmax
    monkeypatch.setattr(pinopt.strategies, "_pruned_argmax",
                        lambda g, pins, *args: rounds.append(1) or real(g, pins, *args))
    for g in _search_graphs()[::3]:
        rounds.clear()
        for l in range(g.n - 1, 0, -1):
            res = greedy_max_lambda1(g, l)
            assert (res.pin_set, res.lambda1) == _plain_greedy(g, l), (g, l)
        assert len(rounds) == g.n - 1


def test_greedy_keeps_no_graph_alive():
    g = gen_ba(30, 3, 2, 31)
    first = greedy_max_lambda1(g, 3)
    assert greedy_max_lambda1(g, 3) == first
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_pruned_greedy_equals_unpruned_greedy_on_split_graphs():
    # several components and isolated nodes: a round's lambda1 can be 0, and
    # the next round's inverse iteration is shifted below it
    rng = np.random.default_rng(49)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        g = build_graph(n, [(u, v) for u, v in pairs if u != v])
        for l in range(1, n):
            res = greedy_max_lambda1(g, l)
            assert (res.pin_set, res.lambda1) == _plain_greedy(g, l), (g, l)


def _family(i, n, seed):
    """BA, NW or ER by i, at mean degree about 6, like the benchmark's graphs."""
    if i % 3 == 0:
        return gen_ba(n, 3, 3, seed)
    if i % 3 == 1:
        return gen_nw(n, 4, 2.5 / n, seed)
    return gen_erdos_renyi(n, 6.0 / n, seed)


def test_pruned_brute_force_equals_plain_enumeration_at_deck_size():
    cases = [(pinopt.load_dolphins(), 2)] + [
        (_family(i, n, 50 + i), l)
        for i, (n, l) in enumerate([(30, 3), (34, 3), (36, 3), (38, 2), (43, 2), (45, 2)])]
    for g, l in cases:
        res = brute_force_max_lambda1(g, l)
        assert (res.pin_set, res.lambda1) == _plain_brute_force(g, l), (g.n, l)


def test_pruned_greedy_equals_unpruned_greedy_at_deck_size():
    for i, n in enumerate((60, 104, 150)):
        g = _family(i, n, 60 + i)
        res = greedy_max_lambda1(g, 3)
        assert (res.pin_set, res.lambda1) == _plain_greedy(g, 3), n


@pytest.mark.parametrize("block_bytes", [1, None, 1 << 40], ids=["one_row", "default", "all_rows"])
def test_pruned_searches_equal_plain_enumeration_where_ceilings_tie(monkeypatch, block_bytes):
    # on a ring lattice, a complete graph and a grid the closed-form ceilings
    # of many sets tie and do not separate them; blocks of one row walk 1, 2,
    # 4, ... rows and solve one matrix at a time, checking the stop rule at
    # many step boundaries, and one block of every row checks a single step
    if block_bytes is not None:
        monkeypatch.setattr(pinopt.graphs, "BLOCK_BYTES", block_bytes)
    ring = gen_nw(24, 4, 0.0, 0)
    for g, l in [(ring, 2), (ring, 3), (gen_complete(9), 3), (_grid(5), 2)]:
        res = brute_force_max_lambda1(g, l)
        assert (res.pin_set, res.lambda1) == _plain_brute_force(g, l), (g.n, l)
        res = greedy_max_lambda1(g, l)
        assert (res.pin_set, res.lambda1) == _plain_greedy(g, l), (g.n, l)


def test_pruned_search_keeps_the_whole_tie_window(monkeypatch):
    # rows 5..19 lie within TIE_TOL of the max, row 2999, but below it by far
    # more than any rounding slack, and every ceiling is that close to its
    # value; the max is solved first, so a search that pruned at the max
    # instead of max - TIE_TOL, at any stage, would lose the first of them
    lam = np.linspace(0.0, 0.5, 3000)
    lam[5:20] = 1.0 - 0.5 * TIE_TOL
    lam[2999] = 1.0

    def ceilings(g, pins, *args, **kwargs):
        return lam[pins[:, 0]] + 1e-12

    monkeypatch.setattr(pinopt.strategies, "ritz_ceilings", ceilings)
    monkeypatch.setattr(Graph, "grounded_lambda1s", lambda g, pins: lam[pins[:, 0]])
    g = build_graph(3001, [])
    pins = np.arange(3000)[:, None]
    assert pinopt.strategies._pruned_argmax(g, pins, ceilings(g, pins), np.ones(g.n)) == (5, lam[5])


def test_lazy_ritz_gives_few_rows_a_ritz_ceiling(monkeypatch):
    # the closed forms leave 260 of the C(62, 2) = 1891 dolphin pairs at or
    # above the max; the walk down them gives Ritz ceilings to about as many
    rows = set()
    ritz = pinopt.strategies.ritz_ceilings

    def recorded(g, pins, *args, **kwargs):
        rows.update(map(tuple, pins.tolist()))
        return ritz(g, pins, *args, **kwargs)

    monkeypatch.setattr(pinopt.strategies, "ritz_ceilings", recorded)
    brute_force_max_lambda1(pinopt.load_dolphins(), 2)
    assert len(rows) <= 300


def test_ritz_ceilings_prune_most_rows(monkeypatch):
    # rows solved per search: the closed-form ceilings alone leave 260 of the
    # C(62, 2) = 1891 dolphin pairs and 132 greedy candidates to solve
    solved = []
    solve = Graph.grounded_lambda1s

    def counted(g, pins):
        solved.append(len(pins))
        return solve(g, pins)

    monkeypatch.setattr(Graph, "grounded_lambda1s", counted)
    brute_force_max_lambda1(pinopt.load_dolphins(), 2)
    assert sum(solved) <= 20
    solved.clear()
    greedy_max_lambda1(_family(1, 104, 61), 3)
    assert sum(solved) <= 12


def test_greedy_runs_no_full_eigendecomposition(monkeypatch):
    # a round bounds its candidates with ceilings alone: the only eigh is the
    # batched one over the small Lanczos matrices of the Ritz tier
    orders = []
    eigh = np.linalg.eigh

    def recorded(m, *args, **kwargs):
        orders.append(np.shape(m)[-1])
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    for g in (pinopt.load_dolphins(), _family(2, 150, 62)):
        greedy_max_lambda1(g, 3)
    assert all(order <= RITZ_DEPTH for order in orders), orders


def test_searches_leave_the_laplacian_spectrum_uncomputed():
    # the interlacing ceiling spectrum[l] is one value for every set of size
    # l and at least each one's lambda1, so it prunes nothing: no search
    # pays for the full eigensolve
    for search in (brute_force_max_lambda1, greedy_max_lambda1):
        for g in (pinopt.load_dolphins(), _family(2, 60, 63)):
            search(g, 2)
            assert "spectrum" not in g.__dict__, search.__name__


def test_searches_leave_the_neighbour_lists_unbuilt():
    # every Laplacian product of the searches is one with the kept dense
    # Laplacian, so they never build the CSR neighbour lists
    for search in (brute_force_max_lambda1, greedy_max_lambda1):
        for text in (format_edge_list(gen_ba(45, 3, 2, 5)), format_edge_list(gen_complete(12))):
            g = parse_edge_list(text)
            search(g, 2)
            assert "csr" not in g.__dict__, search.__name__


def test_brute_force_tie_goes_to_the_smallest_set_within_tolerance():
    # the 11th graph drawn in test_greedy_never_beats_brute_force
    rng = np.random.default_rng(47)
    for _ in range(11):
        n = int(rng.integers(4, 9))
        g = rand_connected(rng, n, extra=3)
        l = int(rng.integers(1, n - 1))
    assert (n, l) == (7, 2)
    # (4, 6) solves to exactly 1.0 and (0, 6) to a few ulps below it: a tie
    assert _lam(g, (4, 6)) == 1.0
    assert ground(g, (0, 6)).lambda1 == 0.9999999999999996
    res = brute_force_max_lambda1(g, l)
    assert res.pin_set == (0, 6)
    # printed clamped into the bounds of (0, 6), whose lower bound is 1
    assert res.lambda1 == 1.0


def test_greedy_prefers_small_ids_on_ties():
    res = greedy_max_lambda1(gen_complete(5), 2)
    assert res.pin_set == (0, 1)
