import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import rand_connected, rand_pins
from pinopt import graphs
from pinopt.cli import main
from pinopt.generators import gen_complete, gen_path, gen_star
from pinopt.graphs import format_edge_list, ground, laplacian, pin_set
from pinopt.spectra import lambda1
from pinopt.sync import (
    BLOWUP_LIMIT,
    TOL_SYNC,
    SimConfig,
    SimResult,
    _linear_propagator,
    chua,
    check_criterion,
    linear_stability_oracle,
    linear_unstable,
    simulate,
)


def _exact_linear_error(g, pins, a, c, d, e0, t):
    # e' = (a I - c (L + D)) e, symmetric, so expm is an eigendecomposition away
    m = a * np.eye(g.n) - c * laplacian(g)
    for i in pins:
        m[i, i] -= c * d
    vals, vecs = np.linalg.eigh(m)
    return vecs @ (np.exp(vals * t) * (vecs.T @ e0))


def test_rk4_matches_matrix_exponential():
    g = gen_path(5)
    pins = (0,)
    a, c, d, t_end = 0.8, 1.0, 2.0, 2.0
    cfg = SimConfig(controller="linear", c=c, d=d, dt=1e-3, t_end=t_end, seed=9)
    res = simulate(g, pins, linear_unstable(a), cfg)
    x0 = np.random.default_rng(9).uniform(-1.0, 1.0, size=(5, 1))[:, 0]
    exact = _exact_linear_error(g, pins, a, c, d, x0, t_end)
    assert np.abs(res.error_norms[-1] - np.abs(exact)).max() < 1e-8


def test_rk4_fourth_order_convergence():
    g = gen_path(5)
    pins = (0,)
    a, c, d, t_end = 0.8, 1.0, 2.0, 2.0
    x0 = np.random.default_rng(9).uniform(-1.0, 1.0, size=(5, 1))[:, 0]
    exact = np.abs(_exact_linear_error(g, pins, a, c, d, x0, t_end))

    def defect(dt):
        cfg = SimConfig(controller="linear", c=c, d=d, dt=dt, t_end=t_end, seed=9)
        res = simulate(g, pins, linear_unstable(a), cfg)
        return np.abs(res.error_norms[-1] - exact).max()

    ratio = defect(0.05) / defect(0.025)
    assert 8.0 < ratio < 40.0, f"halving dt should cut the defect ~16x, got {ratio:.1f}"


def test_simulate_converges_when_criterion_holds():
    g = gen_complete(4)
    dyn = linear_unstable(0.5)
    c = 2.0
    assert check_criterion(g, [0], dyn.alpha, c)
    cfg = SimConfig(controller="linear", c=c, d=5.0, dt=1e-3, t_end=40.0, seed=3)
    res = simulate(g, [0], dyn, cfg)
    assert res.converged
    assert res.final_error < TOL_SYNC
    assert res.blowup_time is None


def test_simulate_adaptive_gains_grow_until_sync():
    g = gen_star(6)
    dyn = linear_unstable(0.3)
    cfg = SimConfig(controller="adaptive", c=1.0, h=2.0, dt=1e-3, t_end=150.0, seed=5)
    res = simulate(g, [0, 1], dyn, cfg)
    assert res.gains is not None and res.gains.shape[1] == 2
    assert np.all(np.diff(res.gains, axis=0) >= -1e-12)  # nondecreasing
    assert res.converged
    # gains settle once the error is gone
    assert np.abs(res.gains[-1] - res.gains[-10]).max() < 1e-6


def test_simulate_blowup_detected():
    g = gen_path(4)
    dyn = linear_unstable(3.0)
    cfg = SimConfig(controller="linear", c=0.01, d=0.0, dt=1e-2, t_end=30.0, seed=1)
    res = simulate(g, [0], dyn, cfg)
    assert not res.converged
    assert res.blowup_time is not None and res.blowup_time <= 30.0
    assert np.all(np.isfinite(res.error_norms))


def test_simulate_is_seed_reproducible():
    rng = np.random.default_rng(51)
    g = rand_connected(rng, 8, extra=4)
    cfg = SimConfig(controller="adaptive", c=1.5, dt=1e-2, t_end=5.0, seed=12)
    r1 = simulate(g, [0, 3], linear_unstable(0.4), cfg)
    r2 = simulate(g, [0, 3], linear_unstable(0.4), cfg)
    assert np.array_equal(r1.error_norms, r2.error_norms)
    assert np.array_equal(r1.gains, r2.gains)
    assert np.array_equal(r1.times, r2.times)
    assert (r1.converged, r1.final_error, r1.blowup_time) == (r2.converged, r2.final_error, r2.blowup_time)


def test_records_holding_arrays_compare_and_hash_by_identity():
    # a grounding, a node dynamic and a simulation result hold ndarrays, whose
    # == is elementwise: the records compare and hash as objects
    g = gen_path(3)
    cfg = SimConfig(controller="linear", c=1.0, d=1.0, dt=0.1, t_end=0.2, seed=0)
    pairs = [(ground(g, [0]), ground(g, [0])), (chua(), chua()),
             (simulate(g, [0], linear_unstable(0.1), cfg), simulate(g, [0], linear_unstable(0.1), cfg))]
    for a, b in pairs:
        assert a == a and a != b, type(a).__name__
        assert hash(a) == hash(a) and len({a, b}) == 2, type(a).__name__


def test_simulate_recording_grid():
    g = gen_path(3)
    cfg = SimConfig(controller="linear", c=1.0, d=1.0, dt=0.1, t_end=1.0, record_every=4, seed=0)
    res = simulate(g, [0], linear_unstable(0.1), cfg)
    assert res.times.tolist() == [0.0, pytest.approx(0.4), pytest.approx(0.8), pytest.approx(1.0)]


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(controller="pid", c=1.0)
    with pytest.raises(ValueError):
        SimConfig(controller="linear", c=0.0)
    with pytest.raises(ValueError):
        SimConfig(controller="linear", c=1.0, dt=-1.0)
    with pytest.raises(ValueError, match="dt must not exceed t_end"):
        SimConfig(controller="linear", c=1.0, dt=2.0, t_end=1.0)
    for name in ("c", "h", "d", "dt", "t_end"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SimConfig(controller="linear", **{"c": 1.0, name: bad})


def test_sim_result_csv_shape(tmp_path, capsys):
    g = gen_path(3)
    cfg = SimConfig(controller="adaptive", c=1.0, dt=0.1, t_end=0.5, record_every=1, seed=2)
    res = simulate(g, [1], linear_unstable(0.2), cfg)
    graph, csv_path = tmp_path / "path3.txt", tmp_path / "run.csv"
    graph.write_text(format_edge_list(g))
    assert main(["simulate", str(graph), "--pins", "1", "--dynamics", "linear_unstable", "--a", "0.2",
                 "--controller", "adaptive", "--c", "1.0", "--dt", "0.1", "--T", "0.5",
                 "--record-every", "1", "--seed", "2", "--out-csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,e0,e1,e2,d1"
    assert len(lines) == 1 + len(res.times)
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) >= {"converged", "final_error"}


def test_check_criterion_is_the_spectral_test():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        g = rand_connected(rng, n, extra=3)
        pins = [0]
        lam = lambda1(ground(g, pins).matrix)
        c = float(rng.uniform(0.5, 2.0))
        assert check_criterion(g, pins, c * lam - 1e-6, c)
        assert not check_criterion(g, pins, c * lam + 1e-6, c)


def test_check_criterion_is_exact_where_the_bounds_decide():
    # K8 under three pins: lambda1 is exactly 3, and the eigensolve a few ulps above
    assert ground(gen_complete(8), [2, 6, 1]).lambda1 > 3.0
    assert not check_criterion(gen_complete(8), [2, 6, 1], 3.0, 1.0)
    assert check_criterion(gen_complete(8), [2, 6, 1], 2.9, 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
def test_check_criterion_refuses_non_positive_coupling(c):
    with pytest.raises(ValueError, match="coupling strength must be positive"):
        check_criterion(gen_path(4), [0], 0.1, c)


def test_linear_stability_oracle_growth_rate():
    g = gen_path(4)
    pins = (0, 2)
    a, c, d = 0.7, 1.3, 2.0
    m = a * np.eye(4) - c * laplacian(g)
    m[0, 0] -= c * d
    m[2, 2] -= c * d
    expect = np.linalg.eigvalsh(m)[-1]
    assert linear_stability_oracle(g, pins, a, c, d) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("name", ["a", "c", "d"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_linear_stability_oracle_refuses_non_finite_scalars(name, value):
    scalars = {"a": 1.0, "c": 1.0, "d": 1.0, name: value}
    with pytest.raises(ValueError, match="finite"):
        linear_stability_oracle(gen_star(6), [0], **scalars)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_linear_stability_oracle_refuses_an_overflowing_matrix():
    # c * degree and c * d pass float range although each scalar is finite
    with pytest.raises(ValueError, match="finite"):
        linear_stability_oracle(gen_star(6), [0], 1.0, 1e308, 1.0)
    with pytest.raises(ValueError, match="finite"):
        linear_stability_oracle(gen_star(6), [0], 1.0, 1e308, -1e308)


def test_linear_stability_oracle_sign_predicts_outcome():
    g = gen_star(5)
    a, c = 0.3, 1.0
    stable_d, weak_d = 4.0, 0.01
    assert linear_stability_oracle(g, [0], a, c, stable_d) < 0
    assert linear_stability_oracle(g, [0], a, c, weak_d) > 0
    ok = simulate(g, [0], linear_unstable(a), SimConfig(controller="linear", c=c, d=stable_d, dt=5e-3, t_end=120.0, seed=4))
    bad = simulate(g, [0], linear_unstable(a), SimConfig(controller="linear", c=c, d=weak_d, dt=5e-3, t_end=120.0, seed=4))
    assert ok.converged and not bad.converged


def test_chua_one_sided_growth_certificate():
    dyn = chua()
    rng = np.random.default_rng(53)
    y = rng.uniform(-3, 3, size=(500, 3))
    z = rng.uniform(-3, 3, size=(500, 3))
    lhs = np.einsum("ij,ij->i", y - z, dyn.f(y) - dyn.f(z))
    rhs = dyn.alpha_min * np.einsum("ij,ij->i", y - z, y - z)
    assert np.all(lhs <= rhs + 1e-9)
    assert dyn.alpha > dyn.alpha_min
    assert dyn.dim == 3 and dyn.default_s0.shape == (3,)


def _chua_literal(x):
    """Chua's field as its literal expressions, one fresh array per operation."""
    a, b, m0, m1 = 9.0, 100.0 / 7.0, -8.0 / 7.0, -5.0 / 7.0
    u, v, w = x[..., 0], x[..., 1], x[..., 2]
    phi = m1 * u + 0.5 * (m0 - m1) * (np.abs(u + 1) - np.abs(u - 1))
    return np.stack([a * (v - u - phi), u - v + w, -b * v], axis=-1)


def test_chua_field_equals_its_literal_expressions_bit_for_bit():
    f = chua().f
    rng = np.random.default_rng(57)
    signs = rng.choice([-1.0, 1.0], size=(6000, 3))
    spread = signs * 10.0 ** rng.uniform(-8.0, 8.0, size=(6000, 3))
    # u near the diode's knees at +-1, where |u + 1| - |u - 1| changes form
    knees = rng.choice([-1.0, 1.0], size=(2000, 3)) + rng.normal(scale=1e-9, size=(2000, 3))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 2.5, 5e-324]
    special = np.array(list(itertools.product(specials, repeat=3)))
    # a column view inside a wider array, as the stacked state hands f its rows
    wide = rng.normal(size=(50, 7))[:, 2:5]
    cases = [spread, knees, special, wide, spread.reshape(20, 30, 10, 3), knees.reshape(4, 500, 3),
             special[:8].reshape(2, 2, 2, 3), spread[0]]
    seen = {"-0.0 out": 0, "nan out": 0}
    for x in cases:
        before = x.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = f(x), _chua_literal(x)
        assert got.shape == want.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(x, before, equal_nan=True)
        seen["-0.0 out"] += int(np.sum((got == 0) & np.signbit(got)))
        seen["nan out"] += int(np.sum(np.isnan(got)))
    assert min(seen.values()) > 0, seen


def test_chua_field_returns_a_fresh_array_each_call():
    f = chua().f
    x = np.random.default_rng(58).normal(size=(9, 3))
    first, second = f(x), f(x)
    assert np.array_equal(first, second)
    for out in (first, second):
        assert not np.shares_memory(out, x)
    assert not np.shares_memory(first, second)
    second += 1.0
    assert np.array_equal(first, f(x))


def test_a_stage_by_stage_run_calls_f_once_per_stage():
    # wrapped as a tracer wraps it, by dataclasses.replace: 4 calls per RK4 step
    calls = []
    dyn = chua()
    field = dyn.f

    def counted(x):
        calls.append(x.shape)
        return field(x)

    dyn = dataclasses.replace(dyn, f=counted)
    g = gen_path(6)
    for controller in ("adaptive", "linear"):
        calls.clear()
        cfg = SimConfig(controller=controller, c=4.0, h=3.0, d=2.0, dt=1e-3, t_end=0.25, seed=4,
                        record_every=7)
        res = simulate(g, [0, 4], dyn, cfg)
        assert res.blowup_time is None
        assert len(calls) == 4 * 250
        assert set(calls) == {(7, 3)}


def test_chua_trajectory_stays_bounded_briefly():
    # double-scroll orbits are bounded; a short free run must not blow up
    dyn = chua()
    g = gen_path(3)
    cfg = SimConfig(controller="linear", c=1e-6, d=0.0, dt=1e-3, t_end=5.0, seed=6)
    res = simulate(g, [0], dyn, cfg)
    assert res.blowup_time is None
    assert np.all(np.isfinite(res.error_norms))


def test_linear_propagator_matches_stage_by_stage_rk4():
    # the exact propagator against the generic RK4 stage, forced by clearing linear_rate;
    # every fourth tuple starts the reference off zero, so its row of the propagator counts
    rng = np.random.default_rng(54)
    calls = []

    def counted(f):
        def wrapped(x):
            calls.append(1)
            return f(x)
        return wrapped

    outcomes = {"blowup": 0, "converged": 0, "neither": 0}
    for t in range(32):
        n = int(rng.integers(3, 13))
        g = rand_connected(rng, n, extra=int(rng.integers(0, n)))
        pins = rand_pins(rng, n, int(rng.integers(1, n)))
        a = float(rng.uniform(0.1, 1.2))
        dyn = linear_unstable(a)
        dyn = dataclasses.replace(dyn, f=counted(dyn.f))
        cfg = SimConfig(controller="linear", c=float(rng.uniform(0.2, 4.0)),
                        d=float(rng.uniform(0.0, 6.0)), dt=float(rng.choice([0.01, 0.05, 0.4])),
                        t_end=float(rng.choice([2.0, 40.0, 40.0])), seed=t,
                        record_every=int(rng.integers(1, 12)))
        s0 = np.array([rng.uniform(-1.0, 1.0) if t % 4 == 0 else 0.0])
        dyn = dataclasses.replace(dyn, default_s0=s0)
        calls.clear()
        fast = simulate(g, pins, dyn, cfg)
        assert not calls, "the linear run should not evaluate f"
        slow = simulate(g, pins, dataclasses.replace(dyn, linear_rate=None), cfg)
        assert calls
        assert np.array_equal(fast.times, slow.times)
        assert fast.converged == slow.converged
        assert fast.blowup_time == slow.blowup_time
        assert fast.error_norms.shape == slow.error_norms.shape
        # an error x_i - s is a difference of states, so with the reference off zero its
        # rounding scales with |s(t)| too; with s0 = 0 the scale is the row's largest error
        h = a * cfg.dt
        growth = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24  # one RK4 step of s' = a*s
        ref = abs(s0[0]) * growth ** np.round(slow.times / cfg.dt)
        scale = slow.error_norms.max(axis=1) + ref
        assert np.all(np.abs(fast.error_norms - slow.error_norms) <= 1e-12 * scale[:, None])
        outcomes["blowup" if slow.blowup_time is not None
                 else "converged" if slow.converged else "neither"] += 1
    assert min(outcomes.values()) >= 3, outcomes


def _stepwise_simulate(g, s, dyn, cfg):
    """simulate as it stepped before the stacked stages, kept as the reference.

    Fresh arrays for every stage, the pinned rows updated by fancy-indexed
    -=, products by the identity inner-product weight p = I that simulate
    skips, and a blowup test after every step.
    """
    steps = round(cfg.t_end / cfg.dt)
    pins = pin_set(g, s)
    pin_idx = np.array(pins, dtype=np.int64)
    n, lap, p, c, dt = g.n, g.laplacian, np.eye(dyn.dim), cfg.c, cfg.dt
    adaptive = cfg.controller == "adaptive"
    rng = np.random.default_rng(cfg.seed)
    z = np.empty((n + 1, dyn.dim))
    z[:n] = rng.uniform(-1.0, 1.0, size=(n, dyn.dim))
    z[n] = dyn.default_s0
    dvec = np.zeros(len(pins))

    if dyn.linear_rate is not None and not adaptive:
        with np.errstate(over="ignore", invalid="ignore"):
            prop = _linear_propagator(g, pin_idx, dyn.linear_rate, c, cfg.d, dt)

        def step(z, dv):
            return prop @ z, dv
    else:
        cd = c * cfg.d
        no_dd = np.zeros_like(dvec)

        def rhs(zs, ds):
            err = zs[pin_idx] - zs[n]
            err_p = err @ p
            dz = dyn.f(zs)
            dz[:n] -= c * (lap @ zs[:n]) @ p
            if adaptive:
                dz[pin_idx] -= ds[:, None] * err_p
                return dz, cfg.h * np.einsum("ij,ij->i", err, err_p)
            dz[pin_idx] -= cd * err_p
            return dz, no_dd

        half, sixth = 0.5 * dt, dt / 6.0

        def step(z, dv):
            k1z, k1d = rhs(z, dv)
            k2z, k2d = rhs(z + half * k1z, dv + half * k1d)
            k3z, k3d = rhs(z + half * k2z, dv + half * k2d)
            k4z, k4d = rhs(z + dt * k3z, dv + dt * k3d)
            return (z + sixth * (k1z + 2 * k2z + 2 * k3z + k4z),
                    dv + sixth * (k1d + 2 * k2d + 2 * k3d + k4d))

    times, errs, gains = [], [], []

    def record(k):
        times.append(k * dt)
        errs.append(np.linalg.norm(z[:n] - z[n], axis=1))
        if adaptive:
            gains.append(dvec.copy())

    record(0)
    blowup_time = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            z, dvec = step(z, dvec)
            if not np.abs(z[:n]).max() <= BLOWUP_LIMIT:
                blowup_time = k * dt
                break
            if k % cfg.record_every == 0 or k == steps:
                record(k)
    error_norms = np.array(errs)
    final_error = float(error_norms[-1].max())
    return SimResult(times=np.array(times), error_norms=error_norms,
                     gains=np.array(gains) if adaptive else None,
                     converged=blowup_time is None and final_error < TOL_SYNC,
                     final_error=final_error, blowup_time=blowup_time)


def test_stacked_stages_match_the_stepwise_reference_bit_for_bit():
    # both dynamics under both controllers, every eighth case with a coupling so
    # strong the first step blows up
    seen = {"blowup at step 1": 0, "blowup inside a scan block": 0, "no blowup": 0,
            "record_every 1": 0, "record_every > steps": 0, "record_every not dividing": 0}
    kinds = set()
    for t in range(48):
        rng = np.random.default_rng(1000 + t)
        n = int(rng.integers(3, 12))
        g = rand_connected(rng, n, extra=int(rng.integers(0, n)))
        pins = rand_pins(rng, n, int(rng.integers(1, n)))
        dyn = chua() if t % 2 else linear_unstable(float(rng.uniform(0.1, 3.0)))
        if t % 3 == 0:  # drawn for a weight p != I once; kept so later draws stay the same
            rng.normal(size=(dyn.dim, dyn.dim))
        controller = ("linear", "adaptive")[t // 2 % 2]
        kinds.add((dyn.name, controller))
        dt = float(rng.choice([0.01, 0.05]))
        steps = int(rng.choice([1, 37, 240]))
        every = (1, 7, 10, 10**6)[t // 4 % 4]
        c = 1e30 if t % 8 == 7 else float(rng.uniform(0.05, 60.0 if t % 5 == 0 else 4.0))
        cfg = SimConfig(controller=controller, c=c, h=float(rng.uniform(0.5, 10.0)),
                        d=float(rng.uniform(0.0, 6.0)), dt=dt, t_end=steps * dt, seed=t,
                        record_every=every)
        ref = _stepwise_simulate(g, pins, dyn, cfg)
        res = simulate(g, pins, dyn, cfg)
        assert np.array_equal(res.times, ref.times), t
        assert np.array_equal(res.error_norms, ref.error_norms), t
        assert (res.gains is None) == (ref.gains is None), t
        assert res.gains is None or np.array_equal(res.gains, ref.gains), t
        assert (res.final_error, res.blowup_time, res.converged) == \
            (ref.final_error, ref.blowup_time, ref.converged), t
        if ref.blowup_time is None:
            seen["no blowup"] += 1
        else:
            k = round(ref.blowup_time / dt)
            seen["blowup at step 1"] += k == 1
            seen["blowup inside a scan block"] += k % every != 0 and k != steps
        seen["record_every 1"] += every == 1
        seen["record_every > steps"] += every > steps
        seen["record_every not dividing"] += 1 < every < steps and steps % every != 0
    assert len(kinds) == 4
    assert min(seen.values()) >= 2, seen


def test_blowup_scan_block_does_not_grow_with_record_every():
    # 200,000 steps with only the first and last recorded: the scan block stays capped
    g = gen_path(3)
    cfg = SimConfig(controller="linear", c=2.0, d=4.0, dt=1e-3, t_end=200.0, seed=0,
                    record_every=10**9)
    dyn = linear_unstable(0.1)
    tracemalloc.start()
    try:
        res = simulate(g, [0], dyn, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.times.tolist() == [0.0, pytest.approx(200.0)] and res.converged
    assert peak < 2 * graphs.BLOCK_BYTES, peak
