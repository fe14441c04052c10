"""Command-line front end: gen, analyze, select, sweep, simulate.

Exit codes: 0 success, 1 usage error, 2 data error (missing or
malformed input file, or an output file that cannot be written), 3
budget refusal (exhaustive search too large, or a simulation over its
step cap).
All output is deterministic for a fixed seed: repeated invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import generators as gen_mod
from . import strategies as strat_mod
from . import sync as sync_mod
from .graphs import BudgetError, EdgeListError, Graph, check_l, format_edge_list, parse_edge_list, pin_set

__all__ = ["main", "sweep_rows", "SWEEP_COLUMNS"]


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise UsageError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: a non-negative integer, as numpy's seeding requires."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _read_text(path: str) -> str:
    """The file's text; a file that cannot be read or is not UTF-8 is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _read_graph(path: str) -> Graph:
    try:
        return parse_edge_list(_read_text(path))
    except EdgeListError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_pins(args, g: Graph) -> tuple[int, ...]:
    if (args.pins is None) == (args.pins_file is None):
        raise UsageError("exactly one of --pins / --pins-file is required")
    if args.pins is not None:
        try:
            ids = [int(tok) for tok in args.pins.split(",") if tok.strip() != ""]
        except ValueError:
            raise UsageError(f"--pins must be comma-separated integers, got {args.pins!r}") from None
    else:
        text = _read_text(args.pins_file)
        try:  # split("\n") gives the lines file iteration gives; splitlines() also breaks at \x85
            ids = [int(t) for line in text.split("\n") for t in line.split("#", 1)[0].split()]
        except ValueError:
            raise DataError(f"{args.pins_file}: pin ids must be integers") from None
    try:
        return pin_set(g, ids)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_file(path: str, text: str) -> None:
    """Write `text` to `path`; a file that cannot be written is a data error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _flag_values(args, command: str, flags) -> list:
    """The values of `flags` in order; a flag left at None was not given."""
    values = [getattr(args, flag) for flag in flags]
    for flag, value in zip(flags, values):
        if value is None:
            raise UsageError(f"{command}: --{flag} is required")
    return values


# One table per CLI concept; its keys are the argparse choices. Entries look
# their function up on the module when called, never holding it, so that a
# function rebound there (as a tracing harness does) is the one called.


# -- gen ---------------------------------------------------------------------

# The flags of each generators.gen_<family>, in its parameter order.
GEN_FLAGS = {
    "star": ("n",),
    "double_star": ("k",),
    "complete": ("n",),
    "path": ("n",),
    "ba": ("n", "m0", "m", "seed"),
    "nw": ("n", "K", "p", "seed"),
    "erdos_renyi": ("n", "p", "seed"),
}


def cmd_gen(args) -> int:
    fam = args.family
    values = _flag_values(args, f"gen {fam}", GEN_FLAGS[fam])
    try:
        g = getattr(gen_mod, f"gen_{fam}")(*values)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"gen {fam}: {exc}") from None
    _write_out(format_edge_list(g), args.out)
    return 0


# -- analyze -----------------------------------------------------------------

def cmd_analyze(args) -> int:
    g = _read_graph(args.graph)
    pins = _parse_pins(args, g)
    report = bounds_mod.bound_report(g, pins, alpha_over_c=args.alpha_over_c)
    sys.stdout.write(report.to_json() + "\n")
    return 0


# -- select ------------------------------------------------------------------

# Each strategy: the select flags it needs, checked in this order, and
# its call (g, l, q, seed, runs, budget) -> SelectionResult.
STRATEGIES = {
    "degree_mix": (("q", "l"), lambda g, l, q, seed, runs, budget: strat_mod.select_degree_mix(
        g, strat_mod.StrategyConfig(l=l, q=q, seed=seed, runs=runs))),
    "betweenness": (("l",), lambda g, l, *_: strat_mod.select_betweenness(g, l)),
    "greedy": (("l",), lambda g, l, *_: strat_mod.greedy_max_lambda1(g, l)),
    "brute_force": (("l",), lambda g, l, q, seed, runs, budget: strat_mod.brute_force_max_lambda1(
        g, l, budget=budget)),
    "dominating": ((), lambda g, l, q, seed, *_: strat_mod.dominating_partition(g, seed=seed)),
}


def cmd_select(args) -> int:
    g = _read_graph(args.graph)
    needs, call = STRATEGIES[args.strategy]
    _flag_values(args, f"select {args.strategy}", needs)
    try:
        res = call(g, args.l, args.q, args.seed, args.runs, args.budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sys.stdout.write(res.to_json() + "\n")
    return 0


# -- sweep -------------------------------------------------------------------

SWEEP_COLUMNS = [
    "l",
    "q",
    "lambda1_mean",
    "lambda1_std",
    "upper_spectrum",
    "upper_kmin",
    "upper_avg_boundary",
    "lower_min_boundary",
]


def _sweep_pin_sets(g: Graph, strategy: str, l: int, q: float | None, runs: int, seed: int,
                    budget: int) -> list[tuple[int, ...]]:
    """The pin sets one sweep cell averages over: one per tie-breaking run
    for degree_mix, the selected set for the other strategies."""
    if strategy == "degree_mix":
        return [strat_mod.degree_mix_pins(g, l, q, seed, r) for r in range(runs)]
    _, call = STRATEGIES[strategy]
    return [call(g, l, q, seed, runs, budget).pin_set]


def sweep_rows(
    g: Graph,
    strategy: str,
    ls: list[int],
    qs: list[float] | None,
    runs: int,
    seed: int,
    with_brute: bool = False,
    budget: int = strat_mod.BRUTE_FORCE_BUDGET,
) -> list[dict]:
    """One dict per (l, q) cell; bound columns are averaged over the same
    tie-breaking runs as lambda1_mean, so every row keeps
    lower_min_boundary <= lambda1_mean <= each upper column."""
    rows: list[dict] = []
    q_list: list[float | None] = [None]
    if strategy == "degree_mix":
        q_list = [] if qs is None else list(qs)
        if not q_list:
            raise UsageError("sweep degree_mix: --q is required")
        if runs < 1:
            raise ValueError(f"need runs >= 1, got runs={runs}")
    # every cell, in order, before the first solve: C(n, l) is not monotone in l
    for l in ls:
        check_l(g, l, budget if with_brute or strategy == "brute_force" else None)
    for q in q_list if strategy == "degree_mix" else ():
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got q={q}")
    for l in ls:
        brute = strat_mod.brute_force_max_lambda1(g, l, budget=budget) if with_brute else None
        for q in q_list:
            # a brute-force sweep's own search is the brute column's search
            pin_sets = ([brute.pin_set] if brute is not None and strategy == "brute_force"
                        else _sweep_pin_sets(g, strategy, l, q, runs, seed, budget))
            # one report per pin set, each freeing its grounding on return
            reports = [bounds_mod.bound_report(g, pins) for pins in pin_sets]
            lams = [r.lambda1 for r in reports]
            row = {
                "l": l,
                "q": q,
                "lambda1_mean": float(np.mean(lams)),
                "lambda1_std": float(np.std(lams)),
                "upper_spectrum": reports[0].upper_spectrum,
                "upper_kmin": float(np.mean([r.upper_kmin for r in reports])),
                "upper_avg_boundary": float(np.mean([r.upper_avg_boundary for r in reports])),
                "lower_min_boundary": float(np.mean([r.lower_min_boundary for r in reports])),
            }
            if with_brute:
                row["lambda1_brute"] = brute.lambda1
            rows.append(row)
    return rows


def format_sweep_csv(rows: list[dict], with_brute: bool) -> str:
    cols = SWEEP_COLUMNS + (["lambda1_brute"] if with_brute else [])
    lines = [",".join(cols)]
    for row in rows:
        vals = []
        for col in cols:
            v = row[col]
            if v is None:
                vals.append("")
            elif col == "l":
                vals.append(str(v))
            else:
                vals.append(f"{v:.10g}")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def _parse_l_range(spec: str) -> list[int]:
    parts = spec.split(":")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--l-range must be A:B[:STEP] or a single integer, got {spec!r}") from None
    if len(nums) == 1:
        return nums
    if len(nums) == 2:
        a, b = nums
        step = 1
    elif len(nums) == 3:
        a, b, step = nums
    else:
        raise UsageError(f"--l-range must be A:B[:STEP], got {spec!r}")
    if step < 1 or b < a:
        raise UsageError(f"--l-range needs A <= B and STEP >= 1, got {spec!r}")
    return list(range(a, b + 1, step))


def cmd_sweep(args) -> int:
    g = _read_graph(args.graph)
    ls = _parse_l_range(args.l_range)
    qs = None
    if args.q is not None:
        try:
            qs = [float(t) for t in args.q.split(",") if t.strip() != ""]
        except ValueError:
            raise UsageError(f"--q must be comma-separated floats, got {args.q!r}") from None
    try:
        rows = sweep_rows(
            g,
            args.strategy,
            ls,
            qs,
            runs=args.runs,
            seed=args.seed,
            with_brute=args.with_brute_force,
            budget=args.budget,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_out(format_sweep_csv(rows, args.with_brute_force), args.out)
    return 0


# -- simulate ----------------------------------------------------------------

# Each node dynamics, built from the growth rate --a.
DYNAMICS = {
    "linear_unstable": lambda a: sync_mod.linear_unstable(a),
    "chua": lambda a: sync_mod.chua(),
}


def cmd_simulate(args) -> int:
    g = _read_graph(args.graph)
    pins = _parse_pins(args, g)
    dyn = DYNAMICS[args.dynamics](args.a)
    try:
        cfg = sync_mod.SimConfig(
            controller=args.controller,
            c=args.c,
            h=args.h,
            d=args.d,
            dt=args.dt,
            t_end=args.t_end,
            seed=args.seed,
            record_every=args.record_every,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    res = sync_mod.simulate(g, pins, dyn, cfg)
    if args.out_csv is not None:
        _write_file(args.out_csv, res.to_csv())
    sys.stdout.write(res.summary_json() + "\n")
    return 0


# -- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="pinopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pinned = _Parser(add_help=False)
    pinned.add_argument("--pins", default=None, help="comma-separated node ids")
    pinned.add_argument("--pins-file", default=None, help="file of whitespace-separated node ids")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0)
    searched = _Parser(add_help=False, parents=[seeded])
    searched.add_argument("--runs", type=int, default=1)
    searched.add_argument("--budget", type=int, default=strat_mod.BRUTE_FORCE_BUDGET)

    p_gen = sub.add_parser("gen", parents=[seeded], help="generate a graph and print its edge list")
    p_gen.add_argument("--family", required=True, choices=GEN_FLAGS)
    p_gen.add_argument("--n", type=int, default=None, help="node count")
    p_gen.add_argument("--k", type=int, default=None, help="leaves per hub (double_star)")
    p_gen.add_argument("--m0", type=int, default=None, help="seed clique size (ba)")
    p_gen.add_argument("--m", type=int, default=None, help="attachments per new node (ba)")
    p_gen.add_argument("--K", type=int, default=None, help="lattice degree (nw)")
    p_gen.add_argument("--p", type=float, default=None, help="edge/shortcut probability")
    p_gen.add_argument("--out", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", parents=[pinned], help="bounds and lambda1 for one pin set")
    p_an.add_argument("graph")
    p_an.add_argument("--alpha-over-c", type=_finite_float, default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sel = sub.add_parser("select", parents=[searched], help="pick a pin set with one strategy")
    p_sel.add_argument("graph")
    p_sel.add_argument("--strategy", required=True, choices=STRATEGIES)
    p_sel.add_argument("--l", type=int, default=None)
    p_sel.add_argument("--q", type=float, default=None)
    p_sel.set_defaults(func=cmd_select)

    p_sw = sub.add_parser("sweep", parents=[searched], help="lambda1 and bounds across l (and q)")
    p_sw.add_argument("graph")
    p_sw.add_argument("--strategy", required=True, choices=[s for s in STRATEGIES if s != "dominating"])
    p_sw.add_argument("--l-range", required=True, help="A:B[:STEP] inclusive, or a single l")
    p_sw.add_argument("--q", default=None, help="comma-separated q values (degree_mix)")
    p_sw.add_argument("--with-brute-force", action="store_true",
                      help="append an exact-max column (budget applies)")
    p_sw.add_argument("--out", default=None, help="output file (default stdout)")
    p_sw.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[pinned, seeded], help="integrate the pinned network")
    p_sim.add_argument("graph")
    p_sim.add_argument("--dynamics", required=True, choices=DYNAMICS)
    p_sim.add_argument("--a", type=_finite_float, default=1.0, help="growth rate (linear_unstable)")
    p_sim.add_argument("--controller", required=True, choices=["adaptive", "linear"])
    p_sim.add_argument("--c", type=_finite_float, required=True, help="coupling strength")
    p_sim.add_argument("--h", type=_finite_float, default=1.0, help="adaptation rate")
    p_sim.add_argument("--d", type=_finite_float, default=0.0, help="constant gain (linear controller)")
    p_sim.add_argument("--dt", type=_finite_float, default=1e-3, help="RK4 step, at most --T")
    p_sim.add_argument("--T", dest="t_end", type=_finite_float, default=50.0)
    p_sim.add_argument("--record-every", type=int, default=10)
    p_sim.add_argument("--out-csv", default=None, help="write the error/gain time series here")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


# The exit code of each error a command may raise.
EXIT_CODES = {UsageError: 1, DataError: 2, BudgetError: 3}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
