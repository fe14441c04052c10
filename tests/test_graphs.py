import numpy as np
import pytest

from conftest import adjacency, edge_pairs, rand_connected, rand_pins
from pinopt import graphs
from pinopt.graphs import (
    EdgeListError,
    boundary_weights,
    build_graph,
    connected_components,
    format_edge_list,
    ground,
    laplacian,
    parse_edge_list,
    pin_set,
)


def test_build_graph_canonicalizes():
    g = build_graph(4, [(1, 0), (0, 1), (2, 3), (3, 2), (1, 2)])
    assert edge_pairs(g) == ((0, 1), (1, 2), (2, 3))
    assert g.m == 3
    assert g.degrees.tolist() == [1, 2, 2, 1]


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="self loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="at least one node"):
        build_graph(0, [])


def test_neighbors_and_adjacency_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = rand_connected(rng, int(rng.integers(2, 15)), extra=5)
        a = adjacency(g)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        indptr, indices = g.csr
        for v in range(g.n):
            assert np.flatnonzero(a[v]).tolist() == indices[indptr[v]:indptr[v + 1]].tolist()
            assert g.degrees[v] == indptr[v + 1] - indptr[v]


def test_laplacian_is_degree_minus_adjacency():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = rand_connected(rng, int(rng.integers(2, 20)), extra=8)
        lap = laplacian(g)
        assert np.array_equal(lap, np.diag(g.degrees) - adjacency(g))
        assert np.allclose(lap.sum(axis=1), 0.0)


def test_stacked_lambda1s_equal_single_groundings_bit_for_bit():
    # Graph.grounded_lambda1s gathers its blocks from the kept Laplacian,
    # ground() scatters each from the edges: the lambda1 bits must agree
    rng = np.random.default_rng(16)
    cases = [rand_connected(rng, int(rng.integers(3, 30)), extra=int(rng.integers(0, 40)))
             for _ in range(12)]
    cases += [build_graph(7, []),
              build_graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)]),
              build_graph(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)])]
    for g in cases:
        for l in {1, 2, g.n - 1}:  # l = n - 1 leaves 1 x 1 blocks
            for k in (1, 7):
                pins = np.array([rng.choice(g.n, size=l, replace=False) for _ in range(k)])
                want = np.array([ground(g, row).lambda1 for row in pins])
                assert g.grounded_lambda1s(pins).tobytes() == want.tobytes(), (g.n, g.m, l, k)


def test_pin_set_normalizes_and_validates():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert pin_set(g, [3, 1, 3]) == (1, 3)
    # empty and full sets take check_l's message
    with pytest.raises(ValueError, match=r"need 1 <= l <= n-1, got l=0 for n=5"):
        pin_set(g, [])
    with pytest.raises(ValueError, match="out of range"):
        pin_set(g, [5])
    with pytest.raises(ValueError, match=r"need 1 <= l <= n-1, got l=5 for n=5"):
        pin_set(g, range(5))


def test_ground_matches_row_column_deletion():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(3, 16))
        g = rand_connected(rng, n, extra=6)
        pins = rand_pins(rng, n, int(rng.integers(1, n)))
        gl = ground(g, pins)
        expect = np.delete(np.delete(laplacian(g), pins, axis=0), pins, axis=1)
        assert np.array_equal(gl.matrix, expect)
        assert np.flatnonzero(gl.keep).tolist() == [v for v in range(n) if v not in pins]


def test_grounded_decomposition_is_entrywise_exact():
    # grounded = Laplacian of the uncontrolled subgraph + diag(boundary weights)
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(3, 18))
        g = rand_connected(rng, n, extra=7)
        pins = rand_pins(rng, n, int(rng.integers(1, n)))
        gl = ground(g, pins)
        kept = [v for v in range(n) if v not in pins]
        pos = {v: i for i, v in enumerate(kept)}
        sub = build_graph(len(kept), [(pos[u], pos[v]) for u, v in edge_pairs(g)
                                      if u in pos and v in pos])
        rebuilt = laplacian(sub) + np.diag(gl.weights.astype(np.float64))
        assert np.array_equal(gl.matrix, rebuilt)


def test_boundary_weights_count_pinned_neighbors():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    # pin the hub: every spoke sees exactly one pinned neighbor
    assert boundary_weights(g, [0]).tolist() == [1, 1, 1, 1]
    assert boundary_weights(g, [0, 1]).tolist() == [2, 1, 1]


def test_connected_components_partition():
    g = build_graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    comps = connected_components(g)
    assert comps == [[0, 1, 2], [3, 4], [5, 6]]
    assert connected_components(g, nodes={6, 4, 3, 2, 0}) == [[0], [2], [3, 4], [6]]
    assert connected_components(g, nodes=set()) == []
    rng = np.random.default_rng(15)
    for _ in range(10):
        g = rand_connected(rng, int(rng.integers(2, 25)), extra=3)
        assert connected_components(g) == [list(range(g.n))]


def test_parse_edge_list_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(10):
        g = rand_connected(rng, int(rng.integers(2, 20)), extra=5)
        assert parse_edge_list("# round trip\n" + format_edge_list(g)) == g


def test_parse_edge_list_comments_and_blank_lines():
    text = "# a comment\n\n4  # node count\n0 1\n1 2 # trailing\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.m == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "missing node count"),
        ("4 2\n0 1\n", "line 1"),
        ("x\n", "line 1"),
        ("4\n0\n", "line 2"),
        ("4\n0 one\n", "line 2"),
        ("4\n0 9\n", "out of range"),
        ("4\n1 1\n", "self loop"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        parse_edge_list(text)


def test_bundled_dolphin_fixture_loads():
    import pinopt

    g = pinopt.load_dolphins()
    assert g.n == 62
    assert g.m == 159
    assert connected_components(g) == [list(range(62))]
    assert int(g.degrees.max()) == 12
    assert int((g.degrees == 1).sum()) == 9


# ------------------------------------------- strict reader against the line loop


def _read_both(text):
    """What parse_edge_list and the line loop each make of `text`: the
    graph, or the text of the EdgeListError (which names the line)."""
    out = []
    for read in (parse_edge_list, graphs._parse_lines):
        try:
            out.append(read(text))
        except EdgeListError as exc:
            out.append(f"EdgeListError: {exc}")
    return out


def _reader_graphs():
    """Random connected graphs, random graphs with isolated nodes,
    edgeless graphs and the one-node graph."""
    rng = np.random.default_rng(17)
    graphs = [rand_connected(rng, int(rng.integers(2, 40)), extra=int(rng.integers(0, 40)))
              for _ in range(10)]
    for _ in range(10):
        n = int(rng.integers(2, 40))
        pairs = rng.integers(0, n // 2 + 1, size=(int(rng.integers(0, n)), 2))
        graphs.append(build_graph(n, [(u, v) for u, v in pairs.tolist() if u != v]))
    return graphs + [build_graph(1, []), build_graph(5, []), build_graph(2, [(0, 1)])]


def _variants(text):
    """The same graph written in ways only the line loop reads."""
    head, _, body = text.partition("\n")
    lines = body.splitlines()
    yield "# header\n\n" + text + "\n"
    yield text.replace("\n", "\r\n")
    yield text.replace(" ", "\t")
    yield text.replace(" ", "  # gap\n")  # an edge split over two lines: an error
    yield text[:-1]  # no final newline
    yield "\n".join([head] + [f"0{u} 00{v}" for u, v in (ln.split() for ln in lines)]) + "\n"
    yield "\n".join(["+" + head] + [f"+{ln}" for ln in lines]) + "\n"
    yield text + "\n# trailing comment\n"


def test_strict_reader_takes_the_canonical_text(monkeypatch):
    looped = []
    loop = graphs._parse_lines
    monkeypatch.setattr(graphs, "_parse_lines", lambda text: looped.append(text) or loop(text))
    for g in _reader_graphs():
        assert parse_edge_list(format_edge_list(g)) == g
    assert looped == []
    parse_edge_list("# a header\n" + format_edge_list(g))
    assert len(looped) == 1


def test_strict_reader_and_line_loop_agree():
    texts = []
    for g in _reader_graphs():
        text = format_edge_list(g)
        texts += [text, *_variants(text)]
    big = 2**63
    texts += [
        "4\n0 9\n",
        "4\n1 1\n",
        "4\n0 9\n1 1\n",  # the first bad edge in input order is reported
        "4\n1 1\n0 9\n",
        "4\n0 1\n1 0\n2 3\n",  # a duplicate in the other orientation
        "0\n", "0\n0 1\n",
        f"4\n0 1\n{big} 0\n", f"4\n{big - 1} 1\n", f"4\n1 1\n0 {2**64 + 5}\n",
        f"{big}\n0 1\n", "999999999999999999\n", "4\n999999999999999999 1\n",
        f"{graphs.MAX_NODES + 1}\n0 1\n", f"{graphs.MAX_NODES}\n0 1\n",
        "4\n0 1 2\n", "4\n0\n", "4 1\n", "x\n", "", "\n", "4\n-1 2\n", "4\n0 1\n\n",
        "4\n0 1\n1 2", "4\n0 1\n1 2\n\n", "4\n0 1\x0c1 2\n", "4\n0 1\n١ 2\n",
    ]
    for text in texts:
        strict, loop = _read_both(text)
        assert strict == loop, text
