"""A graph's cached quantities and its groundings against the
from-scratch algorithm they replaced.

The reference below rebuilds the Laplacian from the adjacency matrix for
every call, grounds with an explicit keep list and counts boundary
weights with a neighbor loop. Every comparison is exact (==), because
the caches must reproduce the CLI's output byte for byte.
"""

import dataclasses
import gc
import weakref

import numpy as np

from conftest import adjacency, neighbours, rand_connected, rand_pins
from pinopt import generators
from pinopt.bounds import (
    bound_report,
    boundary_bounds,
    upper_by_min_degree,
    upper_by_spectrum,
)
from pinopt.cli import main, sweep_rows
from pinopt.graphs import boundary_weights, build_graph, format_edge_list, ground, laplacian, parse_edge_list


def ref_laplacian(g):
    lap = -adjacency(g)
    lap[np.diag_indices(g.n)] = g.degrees.astype(np.float64)
    return lap


def ref_ground(g, pins):
    keep = [v for v in range(g.n) if v not in set(pins)]
    sub = ref_laplacian(g)[np.ix_(keep, keep)]
    nbrs = neighbours(g)
    weights = np.array([sum(1 for u in nbrs[v] if u in pins) for v in keep], dtype=np.int64)
    return sub, tuple(keep), weights


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def random_cases(seed, count, n_max=30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, n_max))
        g = rand_connected(rng, n, extra=int(rng.integers(0, 2 * n)))
        yield g, rand_pins(rng, n, int(rng.integers(1, n)))


def test_context_laplacian_and_spectrum_match_reference_bits():
    for g, _ in random_cases(41, 40):
        ref = ref_laplacian(g)
        assert same_bits(g.laplacian, ref)
        assert same_bits(laplacian(g), ref)
        assert np.array_equal(g.spectrum, np.linalg.eigvalsh(ref))


def test_grounding_matches_reference_exactly():
    for g, pins in random_cases(42, 60):
        sub, keep, weights = ref_ground(g, pins)
        gl = ground(g, pins)
        assert tuple(np.flatnonzero(gl.keep).tolist()) == keep
        assert same_bits(gl.matrix, sub)
        assert gl.weights.dtype == np.int64
        assert np.array_equal(gl.weights, weights)
        assert boundary_weights(g, pins).dtype == np.int64
        assert np.array_equal(boundary_weights(g, pins), weights)
        assert gl.lambda1 == float(np.linalg.eigvalsh(sub)[0])


def test_bounds_match_reference_exactly():
    for g, pins in random_cases(43, 60):
        sub, keep, weights = ref_ground(g, pins)
        lam = float(np.linalg.eigvalsh(sub)[0])
        lo, avg = float(weights.min()), float(weights.mean())
        kmin = float(min(int(g.degrees[v]) for v in keep))
        spec = float(np.linalg.eigvalsh(ref_laplacian(g))[len(pins)])
        assert boundary_bounds(g, pins) == (lo, avg)
        assert upper_by_min_degree(g, pins) == kmin
        assert upper_by_spectrum(g, len(pins)) == spec
        rep = bound_report(g, pins, alpha_over_c=0.5)
        assert (rep.lambda1, rep.lower_min_boundary, rep.upper_kmin) == (lam, lo, kmin)
        assert (rep.upper_avg_boundary, rep.upper_spectrum) == (avg, spec)
        # no field holds -0.0, which the JSON line would print as "-0.0"
        assert not any(isinstance(v, float) and v == 0.0 and np.signbit(v) for v in dataclasses.astuple(rep))


def test_spectrum_is_solved_without_keeping_the_laplacian():
    for g, _ in random_cases(46, 20):
        spec = g.spectrum
        assert "laplacian" not in vars(g)
        assert same_bits(spec, np.linalg.eigvalsh(laplacian(g)))


def test_reports_and_sweeps_keep_no_laplacian():
    g = rand_connected(np.random.default_rng(47), 30, extra=20)
    bound_report(g, [0, 5], alpha_over_c=0.5)
    for strategy, qs, flags in (("degree_mix", [0.0, 0.5, 1.0], {"runs": 3, "seed": 7}),
                                ("betweenness", None, {})):
        sweep_rows(g, strategy, [2, 4], qs, **flags)
    assert "laplacian" not in vars(g)


def assert_same_graph(a, b):
    assert a == b and hash(a) == hash(b)


def test_equal_graphs_compare_and_hash_equal_however_built():
    rng = np.random.default_rng(48)
    for n, extra in ((1, 0), (2, 0), (5, 0), (9, 6), (20, 25)):
        g = rand_connected(rng, n, extra=extra)
        pairs = g.edge_array.tolist()
        text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        loose = f"# a header\n{n}\n" + "".join(f"  {v}\t{u}  # flipped\n" for u, v in pairs)
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        for other in (parse_edge_list(text), parse_edge_list(loose),
                      build_graph(n, shuffled), build_graph(n, [(v, u) for u, v in pairs]),
                      build_graph(n, pairs + pairs[::-1]), build_graph(n, np.array(pairs).reshape(-1, 2))):
            assert_same_graph(g, other)
    assert_same_graph(generators.gen_ba(30, 3, 2, 5), generators.gen_ba(30, 3, 2, 5))
    assert_same_graph(generators.gen_star(6), build_graph(6, [(k, 0) for k in range(5, 0, -1)]))
    assert_same_graph(generators.gen_erdos_renyi(6, 0.0, 3), build_graph(6, []))
    assert_same_graph(build_graph(4, []), parse_edge_list("4\n"))
    distinct = [build_graph(4, []), build_graph(5, []), build_graph(4, [(0, 1)]),
                build_graph(5, [(0, 1)]), build_graph(4, [(0, 2)]), generators.gen_path(4),
                generators.gen_star(4)]
    for i, a in enumerate(distinct):
        for b in distinct[i + 1:]:
            assert a != b
    assert len(set(distinct)) == len(distinct)
    assert build_graph(3, [(0, 1)]) != ((0, 1),)


def test_edgeless_graph_grounds_with_zero_weights(tmp_path, capsys):
    g = build_graph(3, [])
    assert same_bits(g.laplacian, ref_laplacian(g))
    gl = ground(g, [1])
    assert gl.weights.dtype == np.int64 and gl.weights.tolist() == [0, 0]
    path = tmp_path / "edgeless3.txt"
    path.write_text(format_edge_list(g))
    assert main(["analyze", str(path), "--pins", "1"]) == 0
    assert "-0.0" not in capsys.readouterr().out


def test_cached_arrays_are_read_only_and_copies_are_not():
    g = rand_connected(np.random.default_rng(44), 12, extra=5)
    assert not g.laplacian.flags.writeable
    assert not g.spectrum.flags.writeable
    lap = laplacian(g)
    lap[0, 0] = 99.0
    assert g.laplacian[0, 0] == g.degrees[0]
    assert ground(g, [0]).matrix.flags.writeable


def test_graph_and_grounding_are_freed_without_the_cycle_collector():
    g = rand_connected(np.random.default_rng(45), 20, extra=10)
    gl = ground(g, [0, 1])
    gl.weights, gl.lambda1, g.spectrum  # fill every cache
    refs = [weakref.ref(g), weakref.ref(gl), weakref.ref(g.laplacian)]
    gc.disable()
    try:
        del g, gl
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
