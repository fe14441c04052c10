"""A graph's cached quantities and its groundings against the
from-scratch algorithm they replaced.

The reference below rebuilds the Laplacian from the adjacency matrix for
every call, grounds with an explicit keep list and counts boundary
weights with a neighbor loop. Every comparison is exact (==), because
the caches must reproduce the CLI's output byte for byte.
"""

import gc
import weakref

import numpy as np

from conftest import rand_connected, rand_pins
from pinopt.bounds import (
    bound_report,
    boundary_bounds,
    upper_by_min_degree,
    upper_by_spectrum,
)
from pinopt.graphs import boundary_weights, build_graph, ground, laplacian


def ref_laplacian(g):
    lap = -g.adjacency.copy()
    lap[np.diag_indices(g.n)] = g.degrees.astype(np.float64)
    return lap


def ref_ground(g, pins):
    keep = [v for v in range(g.n) if v not in set(pins)]
    sub = ref_laplacian(g)[np.ix_(keep, keep)]
    weights = np.array([sum(1 for u in g.neighbors[v] if u in pins) for v in keep], dtype=np.int64)
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
        assert g.edge_array.dtype == np.int64 and g.edge_array.tolist() == [list(e) for e in g.edges]


def test_grounding_matches_reference_exactly():
    for g, pins in random_cases(42, 60):
        sub, keep, weights = ref_ground(g, pins)
        gl = ground(g, pins)
        assert gl.size == len(keep)
        assert "matrix" not in vars(gl)  # size is read off the mask
        assert same_bits(gl.matrix, sub)
        assert gl.retained == keep
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
        assert "-0.0" not in rep.to_json()


def test_edgeless_graph_grounds_with_zero_weights():
    g = build_graph(3, [])
    assert same_bits(g.laplacian, ref_laplacian(g))
    gl = ground(g, [1])
    assert gl.weights.dtype == np.int64 and gl.weights.tolist() == [0, 0]
    assert "-0.0" not in bound_report(g, [1]).to_json()


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
