"""Output checks, computed with the benchmark's own numpy code.

``check(cmd, stdout)`` returns None when the output of one command is
correct and a one-line reason otherwise. Every number must parse and be
finite; beyond that each command kind has its own checks.
"""

from __future__ import annotations

import json
import math

import numpy as np

import graphgen
from workloads import Command

TOL = 1e-9
SWEEP_COLUMNS = ["l", "q", "lambda1_mean", "lambda1_std", "upper_spectrum",
                 "upper_kmin", "upper_avg_boundary", "lower_min_boundary"]


class Mismatch(Exception):
    pass


def _expect(ok: bool, why: str) -> None:
    if not ok:
        raise Mismatch(why)


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= TOL * max(1.0, abs(ref))


def _le(a: float, b: float) -> bool:
    return a <= b + TOL * max(1.0, abs(b))


def _reject_constant(name: str):
    raise Mismatch(f"non-finite number {name} in output")


def _json(stdout: str) -> dict:
    _expect(stdout.endswith("\n") and stdout.count("\n") == 1, "expected one JSON line")
    try:
        return json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"bad JSON: {exc}") from None


def grounded_lambda1(g: graphgen.Graph, pins) -> float:
    keep = np.setdiff1d(np.arange(g.n), np.asarray(pins, dtype=np.int64))
    lap = g.laplacian()
    return float(np.linalg.eigvalsh(lap[np.ix_(keep, keep)])[0])


def _pins_ok(g: graphgen.Graph, pins: list, l: int | None) -> None:
    _expect(pins == sorted(set(pins)) and all(0 <= v < g.n for v in pins), f"bad pin set {pins}")
    _expect(0 < len(pins) < g.n, f"pin set size {len(pins)} out of range")
    if l is not None:
        _expect(len(pins) == l, f"pin set has {len(pins)} nodes, asked for {l}")


def _select(cmd: Command, stdout: str) -> None:
    g, res = cmd.graph, _json(stdout)
    pins = res["pin_set"]
    _pins_ok(g, pins, cmd.params["l"])
    _expect(res["l"] == len(pins), "l field disagrees with the pin set")
    lam = grounded_lambda1(g, pins)
    _expect(_close(res["lambda1"], lam), f"lambda1 {res['lambda1']!r} != recomputed {lam!r}")
    _expect(res["lambda1_runs"] == [res["lambda1"]], "lambda1_runs should hold lambda1 alone")
    if cmd.kind == "select.dominating":
        pinned = np.zeros(g.n, dtype=bool)
        pinned[pins] = True
        hit = np.zeros(g.n, dtype=bool)
        u, v = g.edges[:, 0], g.edges[:, 1]
        hit[u[pinned[v]]] = hit[v[pinned[u]]] = True
        _expect(bool(np.all(pinned | hit)), "dominating pin set leaves a node without a pinned neighbour")


def _analyze(cmd: Command, stdout: str) -> None:
    g, res = cmd.graph, _json(stdout)
    pins, alpha = cmd.params["pins"], cmd.params["alpha_over_c"]
    lam = grounded_lambda1(g, pins)
    _expect(_close(res["lambda1"], lam), f"lambda1 {res['lambda1']!r} != recomputed {lam!r}")
    uppers = [res["upper_spectrum"], res["upper_kmin"], res["upper_avg_boundary"]]
    if len(pins) == 1:
        uppers.append(res["upper_single_pin"])
    _expect(all(_le(res["lower_min_boundary"], lam) and _le(lam, u) for u in uppers),
            f"bound sandwich broken: {res}")
    _expect(res["alpha_over_c"] == alpha, "alpha_over_c not echoed")
    _expect(res["satisfied"] == (None if alpha is None else lam > alpha), "criterion verdict wrong")


def _sweep(cmd: Command, stdout: str) -> None:
    lines = stdout.splitlines()
    _expect(lines[0] == ",".join(SWEEP_COLUMNS), f"unexpected CSV header {lines[0]!r}")
    rows = [dict(zip(SWEEP_COLUMNS, map(float, ln.split(",")))) for ln in lines[1:]]
    cells = [(l, q) for l in cmd.params["ls"] for q in cmd.params["qs"]]
    _expect([(int(r["l"]), r["q"]) for r in rows] == cells, "rows do not cover the (l, q) grid")
    for r in rows:
        _expect(all(math.isfinite(x) for x in r.values()), f"non-finite value in row {r}")
        lam = r["lambda1_mean"]
        _expect(_le(r["lower_min_boundary"], lam), f"lower bound above lambda1 in row {r}")
        for col in ("upper_spectrum", "upper_kmin", "upper_avg_boundary"):
            _expect(_le(lam, r[col]), f"lambda1 above {col} in row {r}")


def _simulate(cmd: Command, stdout: str) -> None:
    res = _json(stdout)
    _expect(set(res) <= {"converged", "final_error", "blowup_time"}, f"unexpected keys {sorted(res)}")
    _expect(not res["converged"] or res["final_error"] < 1e-6, "converged with a large final error")
    mu = cmd.params.get("mu")
    if mu is not None and abs(mu) > 0.05:
        _expect(res["converged"] == (mu < 0), f"verdict {res['converged']} disagrees with oracle mu={mu:.4f}")


def _gen(cmd: Command, stdout: str) -> None:
    g = graphgen.parse(stdout)
    _expect(g.text() == stdout, "edge list is not canonical (sorted, u < v, no duplicates)")
    fam, n = cmd.params["family"], cmd.params["n"]
    _expect(g.n == n, f"{fam}: {g.n} nodes, expected {n}")
    m = len(g.edges)
    expected_m = {"ba": 6 + 3 * (n - 4), "star": n - 1, "path": n - 1,
                  "double_star": n - 1, "complete": n * (n - 1) // 2}.get(fam)
    _expect(expected_m is None or m == expected_m, f"{fam}: {m} edges, expected {expected_m}")
    if fam == "nw":
        deg = np.bincount(g.edges.ravel(), minlength=n)
        _expect(int(deg.min()) >= 4, "nw graph lost lattice edges")


_CHECKS = {"select": _select, "analyze": _analyze, "sweep": _sweep, "simulate": _simulate, "gen": _gen}


def check(cmd: Command, stdout: str) -> str | None:
    """None if ``stdout`` is a correct output of ``cmd``, else why not."""
    try:
        _CHECKS[cmd.kind.split(".")[0]](cmd, stdout)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
