"""Pinned-synchronization simulation with adaptive or constant feedback.

Integrates N coupled copies of a node dynamic toward a reference
trajectory, controlling only the pinned nodes. Fixed-step RK4 over
``round(t_end / dt)`` steps; the reference is carried as row N of the
state, so each stage evaluates the node dynamic once for nodes and
reference together and controller errors are consistent within each
stage.

Linear runs take an exact propagator. When the dynamic declares
``f(x) = a*x`` (``NodeDynamics.linear_rate``, set by
``linear_unstable``) and the controller is ``"linear"``, one RK4 step is
exactly the matrix ``P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24`` with
``h = dt`` and ``M = [[a*I - c*L - c*d*D, c*d*D*1], [0, a]]`` acting on
the stacked state (D marks the pinned nodes). ``P`` is built once and
each step is ``z = P @ z``. It keeps the step count, recording grid,
blowup test, verdict and ``blowup_time`` of stage-by-stage RK4, and its
error norms match that path to ~1e-13 of each row's largest norm, as
the products are summed in another order.

All other runs step one stacked state ``[z.ravel(), d]`` (nodes,
reference, gains), each RK4 stage written into buffers allocated once
per run in the element order of the plain expressions, so they match
the stepwise reference (fresh arrays per stage, a blowup test after
every step) bit for bit. Each stage calls the node dynamic once and
makes 8 more NumPy calls (10 with adaptive gains), with 0-d float64
scalars in place of Python floats, and 11 calls join a step's stages;
``chua().f`` is 14 ufunc calls, each one operation of its literal
expressions. Both controllers push ``d_i * e_i`` into the
pinned nodes: the linear controller's gains start at ``c * d`` and keep
it, as only the adaptive controller writes gain rates. Every run tests
for blowup once per block of steps up to the next record point (at most
``graphs.BLOCK_BYTES`` of node magnitudes) and takes the step from the
first failing row, so every output is that of a test after each step,
though a run that blows up steps on to the end of its block.

``SimConfig`` refuses a non-finite ``c``, ``h``, ``d``, ``dt`` or
``t_end``, a non-positive ``c``, ``dt`` or ``t_end``, and ``dt > t_end``
(which would integrate one ``dt`` past ``t_end``). ``simulate`` refuses
a run of more than ``MAX_RK4_STEPS`` steps with a ``BudgetError``
before it allocates any state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graphs import BudgetError, Graph, block_rows, ground, pin_set
from .spectra import eig_sym

__all__ = [
    "NodeDynamics",
    "linear_unstable",
    "chua",
    "SimConfig",
    "SimResult",
    "simulate",
    "check_criterion",
    "linear_stability_oracle",
    "MAX_RK4_STEPS",
]

BLOWUP_LIMIT = 1e12
# longest run simulate accepts, in RK4 steps round(t_end / dt)
MAX_RK4_STEPS = 2_000_000
# a run has converged when its largest final per-node error norm is below this
TOL_SYNC = 1e-6


@dataclass(frozen=True, eq=False)
class NodeDynamics:
    """An isolated node vector field with a one-sided growth certificate.

    For all y, z:  (y-z)' (f(y) - f(z))  <=  alpha_min * |y-z|^2,
    so the synchronization criterion holds with any alpha > alpha_min;
    the property `alpha` is alpha_min + 0.5, ready to use. The
    controllers act in the identity inner product, the one the
    certificate is stated in. `f` returns a new array; simulate only
    reads it, subtracting the coupling into a stage buffer of its own.
    `linear_rate`, when set, declares f(x) = linear_rate * x, which
    lets simulate use the exact linear propagator. The state size `dim`
    is that of the reference's start `default_s0`.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]  # rows are node states, (N, dim) -> (N, dim)
    alpha_min: float
    default_s0: np.ndarray
    linear_rate: float | None = None

    @property
    def dim(self) -> int:
        return len(self.default_s0)

    @property
    def alpha(self) -> float:
        return self.alpha_min + 0.5


def linear_unstable(a: float = 1.0) -> NodeDynamics:
    """Scalar dynamic f(x) = a*x; unstable for a > 0. alpha_min = a exactly."""

    def f(x: np.ndarray) -> np.ndarray:
        return a * x

    return NodeDynamics(
        name="linear_unstable",
        f=f,
        alpha_min=float(a),
        default_s0=np.zeros(1),
        linear_rate=float(a),
    )


def chua() -> NodeDynamics:
    """Chua circuit with the piecewise-linear diode, at the double-scroll
    parameters a = 9, b = 100/7 and diode slopes m0 = -8/7, m1 = -5/7.

    f(x) = (a*(v - u - phi), u - v + w, -b*v) for x = (u, v, w), with
    phi = m1*u + (m0 - m1)/2 * (|u + 1| - |u - 1|). Each call fills one
    fresh array by 14 ufunc calls on column views, each writing into an
    output column (the third positional argument is ``out``), with 0-d
    float64 constants. Each call is one operation of the literal
    expressions, in their order, so the bits are theirs, signed zeros and
    NaNs included. ``u - v`` is not taken as ``-(v - u)``: the two differ
    in the sign of a zero.

    The growth certificate is the largest eigenvalue of the symmetrized
    Jacobian, maximized over the two diode slopes (the Jacobian is
    affine in the slope, so the endpoints dominate).
    """
    a_p, b_p, m0, m1 = 9.0, 100.0 / 7.0, -8.0 / 7.0, -5.0 / 7.0
    a, neg_b, outer, knee, one = (np.array(x) for x in (a_p, -b_p, m1, 0.5 * (m0 - m1), 1.0))
    add, sub, mul, absolute = np.add, np.subtract, np.multiply, np.absolute

    def f(x: np.ndarray) -> np.ndarray:
        u, v, w = x[..., 0], x[..., 1], x[..., 2]
        out = np.empty(x.shape)
        o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
        # o2 holds the temporaries until -b*v, which needs v alone
        add(u, one, o2)
        absolute(o2, o2)
        sub(u, one, o1)
        absolute(o1, o1)
        sub(o2, o1, o2)
        mul(knee, o2, o2)
        mul(outer, u, o0)
        add(o0, o2, o0)  # phi
        sub(v, u, o2)
        sub(o2, o0, o0)
        mul(a, o0, o0)
        sub(u, v, o1)
        add(o1, w, o1)
        mul(neg_b, v, o2)
        return out

    def mu2(slope: float) -> float:
        jac = np.array([
            [-a_p * (1.0 + slope), a_p, 0.0],
            [1.0, -1.0, 1.0],
            [0.0, -b_p, 0.0],
        ])
        return float(eig_sym((jac + jac.T) / 2.0)[-1])

    alpha_min = max(mu2(m0), mu2(m1))
    return NodeDynamics(
        name="chua",
        f=f,
        alpha_min=alpha_min,
        default_s0=np.array([0.7, 0.0, 0.0]),
    )


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    controller: "adaptive" (per-node gains d_i, d_i' = h * e_i' e_i)
    or "linear" (constant u_i = -c * d * e_i on pinned nodes).
    Node states start uniform in [-1, 1]^dim under `seed`; the reference
    starts at the dynamic's `default_s0`.
    c, h, d, dt and t_end must be finite; c, dt and t_end positive; and
    dt must not exceed t_end, so the run covers round(t_end / dt) >= 1
    whole steps and never passes t_end by a step.
    """

    controller: str
    c: float
    h: float = 1.0
    d: float = 0.0
    dt: float = 1e-3
    t_end: float = 50.0
    seed: int = 0
    record_every: int = 10

    def __post_init__(self):
        if self.controller not in ("adaptive", "linear"):
            raise ValueError(f"controller must be 'adaptive' or 'linear', got {self.controller!r}")
        for name in ("c", "h", "d", "dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c <= 0:
            raise ValueError(f"coupling strength must be positive, got c={self.c}")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True, eq=False)
class SimResult:
    """Recorded per-node error norms (and adaptive gains) over time."""

    times: np.ndarray
    error_norms: np.ndarray  # (samples, N)
    gains: np.ndarray | None  # (samples, l) in adaptive mode
    converged: bool
    final_error: float
    blowup_time: float | None


def _closed_loop(g: Graph, pin_idx: np.ndarray, a: float, c: float, d: float) -> np.ndarray:
    """a*I - c*(L + D), D carrying d at the pinned diagonal entries."""
    m = -c * g.laplacian
    m[pin_idx, pin_idx] -= c * d
    m[np.diag_indices(g.n)] += a
    return m


def _linear_propagator(g: Graph, pin_idx: np.ndarray, a: float, c: float,
                       d: float, dt: float) -> np.ndarray:
    """One RK4 step of z' = M z as a matrix, z = nodes stacked over the reference.

    M = [[a*I - c*L - c*d*D, c*d*D*1], [0, a]]; RK4 applied to a linear
    system is exactly P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24.
    """
    n = g.n
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = _closed_loop(g, pin_idx, a, c, d)
    m[pin_idx, n] = c * d
    m[n, n] = a
    hm = dt * m
    prop = np.eye(n + 1)
    term = np.eye(n + 1)
    for j in range(1, 5):
        term = term @ hm / j
        prop += term
    return prop


def _rk4_stages(g: Graph, pin_idx: np.ndarray, dyn: NodeDynamics, cfg: SimConfig,
                w: np.ndarray) -> Callable[[], None]:
    """One RK4 step of the stacked state w = [z.ravel(), d], done in place.

    z holds the node states with the reference as row n, and d the
    pinned gains, fixed at c * d under the linear controller. Every
    stage is written into buffers allocated here once, in the element
    order of ``w + dt/2 * k`` and ``w + dt/6 * (((k1 + 2*k2) + 2*k3) +
    k4)``, so a step gives the floats of the plain expressions.

    Each stage is bound here to its state and rate arrays, calls ``f``
    once and makes 8 more NumPy calls, 10 under the adaptive controller.
    One gather takes every pinned entry, the reference entry beside it
    and the pin's gain, so the errors and pushes d_i * e_i are 1-D
    products; the pushes go by ``put`` into a vector that is +0.0 off
    the pins, and as k - 0.0 is k, signed zeros and NaNs included, one
    subtraction gives the fancy-indexed ``k[pins] -= push``. The scalars
    are 0-d float64 arrays, the bits of the Python floats at a cheaper
    ufunc call, and one call each gives ``[dt/2 * k2, 2 * k2]`` and
    ``[dt * k3, 2 * k3]``, so 11 calls join the stages. The third
    positional argument of a ufunc is its ``out``.
    """
    n, dim = g.n, dyn.dim
    nz = (n + 1) * dim
    lap, f = g.laplacian, dyn.f
    c, h, half, sixth = (np.array(x) for x in (cfg.c, cfg.h, 0.5 * cfg.dt, cfg.dt / 6.0))
    half_two, dt_two = np.array([[0.5 * cfg.dt], [2.0]]), np.array([[cfg.dt], [2.0]])
    adaptive = cfg.controller == "adaptive"
    l = len(pin_idx)
    pin_flat = (pin_idx[:, None] * dim + np.arange(dim)).ravel()
    # each pinned entry, the reference entry beside it and the pin's gain
    gather = np.concatenate((pin_flat, nz - dim + np.tile(np.arange(dim), l),
                             nz + np.repeat(np.arange(l), dim)))
    add, sub, mul, matmul, einsum = np.add, np.subtract, np.multiply, np.matmul, np.einsum

    k1, k2, k3, k4, u, acc = np.zeros((6, len(w)))
    k2s, k3s = np.empty((2, 2, len(w)))  # [dt/2 * k2, 2 * k2] and [dt * k3, 2 * k3]
    got = np.empty((3, l * dim))
    got_flat = got.reshape(-1)
    pinned, ref_at, gain_at = got
    err = np.empty((l, dim))
    err_flat = err.reshape(-1)
    push = np.zeros(nz)  # d_i * e_i on the pinned entries, +0.0 elsewhere
    cpl = np.zeros((n + 1, dim))  # c * L z on the node rows; row n stays zero
    cpl_nodes = cpl[:n]

    def rhs(v: np.ndarray, k: np.ndarray) -> Callable[[], None]:
        """The stage k = rhs(v), bound to the two arrays."""
        zs = v[:nz].reshape(n + 1, dim)
        nodes, take = zs[:n], v.take
        kz_flat, kd = k[:nz], k[nz:]
        kz = kz_flat.reshape(n + 1, dim)

        def stage():
            take(gather, out=got_flat, mode="clip")  # "raise" would buffer out
            sub(pinned, ref_at, err_flat)
            matmul(lap, nodes, cpl_nodes)
            mul(c, cpl_nodes, cpl_nodes)
            sub(f(zs), cpl, kz)
            mul(gain_at, err_flat, pinned)  # the pushes, over the gathered entries
            push.put(pin_flat, pinned)
            sub(kz_flat, push, kz_flat)
            if adaptive:  # fixed gains keep their zero rates
                einsum("ij,ij->i", err, err, out=kd)
                mul(h, kd, kd)

        return stage

    stage1, stage2, stage3, stage4 = rhs(w, k1), rhs(u, k2), rhs(u, k3), rhs(u, k4)
    half_k2, two_k2 = k2s
    dt_k3, two_k3 = k3s

    def step():
        stage1()
        mul(half, k1, u)
        add(w, u, u)
        stage2()
        mul(half_two, k2, k2s)
        add(w, half_k2, u)
        stage3()
        mul(dt_two, k3, k3s)
        add(w, dt_k3, u)
        stage4()
        add(k1, two_k2, acc)
        add(acc, two_k3, acc)
        add(acc, k4, acc)
        mul(sixth, acc, acc)
        add(w, acc, w)

    return step


def simulate(g: Graph, s: Iterable[int], dyn: NodeDynamics, cfg: SimConfig) -> SimResult:
    """Integrate the pinned network and report error trajectories.

    Convergence means the largest per-node error norm at the end of the
    run is below TOL_SYNC. A state magnitude beyond 1e12 (or any
    non-finite value) stops the run early and is reported as a blowup.
    Linear dynamics under the linear controller step by the exact
    propagator (see the module notes); all other runs stage by stage.
    A run of more than MAX_RK4_STEPS steps raises BudgetError.
    """
    ratio = cfg.t_end / cfg.dt
    # clipped as a float first: round() fails on an infinite T / dt
    steps = round(min(ratio, MAX_RK4_STEPS + 1))
    if steps > MAX_RK4_STEPS:
        raise BudgetError(
            f"T / dt = {ratio:.6g} RK4 steps exceeds the cap of {MAX_RK4_STEPS}"
        )
    pins = pin_set(g, s)
    pin_idx = np.array(pins, dtype=np.int64)
    n, dim = g.n, dyn.dim
    nz = (n + 1) * dim
    adaptive = cfg.controller == "adaptive"

    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(nz + len(pins))  # node states, the reference as row n, then the gains
    z = w[:nz].reshape(n + 1, dim)
    z[:n] = rng.uniform(-1.0, 1.0, size=(n, dim))
    z[n] = dyn.default_s0
    dvec = w[nz:]
    dvec[:] = 0.0 if adaptive else cfg.c * cfg.d
    dt = cfg.dt

    if dyn.linear_rate is not None and not adaptive:
        # a non-finite P is a blowup at the first step, reported like any other
        with np.errstate(over="ignore", invalid="ignore"):
            prop = _linear_propagator(g, pin_idx, dyn.linear_rate, cfg.c, cfg.d, dt)
        znext = np.empty_like(z)

        def step():
            np.matmul(prop, z, out=znext)
            np.copyto(z, znext)
    else:
        step = _rk4_stages(g, pin_idx, dyn, cfg, w)

    times: list[float] = []
    errs: list[np.ndarray] = []
    gains: list[np.ndarray] = []

    def record(k: int):
        times.append(k * dt)
        errs.append(np.linalg.norm(z[:n] - z[n], axis=1))
        if adaptive:
            gains.append(dvec.copy())

    # |node state| of each step up to the next record point, scanned once per block
    every = cfg.record_every
    block = np.empty((min(steps, every, block_rows(8 * n * dim)), n * dim))
    nodes = w[: n * dim]
    record(0)
    blowup_time: float | None = None
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps:
            stop = min(steps, k - k % every + every, k + len(block))
            rows = block[: stop - k]
            for row in rows:
                step()
                np.abs(nodes, out=row)
            # NaN fails the comparison too, so this also catches any non-finite entry
            if not rows.max() <= BLOWUP_LIMIT:
                first = int(np.argmax(~(rows.max(axis=1) <= BLOWUP_LIMIT)))
                blowup_time = (k + 1 + first) * dt
                break
            k = stop
            if k % every == 0 or k == steps:
                record(k)

    error_norms = np.array(errs)
    final_error = float(error_norms[-1].max())
    return SimResult(
        times=np.array(times),
        error_norms=error_norms,
        gains=np.array(gains) if adaptive else None,
        converged=blowup_time is None and final_error < TOL_SYNC,
        final_error=final_error,
        blowup_time=blowup_time,
    )


def check_criterion(g: Graph, s: Iterable[int], alpha: float, c: float) -> bool:
    """Sufficient synchronization test: c * lambda1(grounded) > alpha."""
    if not c > 0:
        raise ValueError(f"coupling strength must be positive, got c={c}")
    return bool(c * ground(g, s).lambda1 > alpha)


def linear_stability_oracle(g: Graph, s: Iterable[int], a: float, c: float, d: float) -> float:
    """Exact growth rate for scalar linear dynamics under constant gains.

    Largest eigenvalue of a*I - c*(L + D) with D carrying d at pinned
    diagonal entries; negative means every error mode decays.
    """
    m = _closed_loop(g, np.array(pin_set(g, s), dtype=np.int64), a, c, d)
    return float(eig_sym(m)[-1])
