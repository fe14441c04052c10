"""Command-line front end: gen, analyze, select, sweep, simulate.

Exit codes: 0 success, 1 usage error (a bad flag, or a value the
library refuses with ValueError), 2 data error (missing or malformed
input file, or an output file that cannot be written), 3 budget refusal
(exhaustive search too large, or a simulation over its step cap).
All output is deterministic for a fixed seed: repeated invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

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


def _non_negative_int(text: str) -> int:
    """argparse type: a non-negative integer, as numpy's seeding and a
    subset budget require."""
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
    return pin_set(g, ids)


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


# Fields a JSON line leaves out when unset; every other unset field prints null.
_OMITTED_IF_NONE = ("q", "blowup_time")


def _json_line(fields: dict) -> None:
    """Print `fields` on stdout as one JSON object on one line."""
    kept = {k: v for k, v in fields.items() if v is not None or k not in _OMITTED_IF_NONE}
    sys.stdout.write(json.dumps(kept) + "\n")


def _csv(cols: list[str], rows) -> str:
    """A header line of `cols`, then one line per row: None as an empty
    cell, an int in digits and any other value to 10 significant digits."""
    lines = [",".join(cols)]
    lines += [",".join("" if v is None else str(v) if isinstance(v, int) else f"{v:.10g}"
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _flag_values(args, command: str, table: dict, choice: str, also=()) -> dict:
    """The flags of `choice`'s row of `table`, and `also`, that were given,
    by name. A needed flag not given (or given an empty list) is a usage
    error, and so is a given flag that another row of `table` names and
    this call does not read; --seed, which every subcommand accepts, is
    never refused."""
    needs, reads = table[choice][:2]
    for flag in needs:
        if getattr(args, flag) in (None, []):
            raise UsageError(f"{command} {choice}: --{flag} is required")
    own = needs + reads + also
    for row in table.values():
        for flag in row[0] + row[1]:
            if flag not in own and flag != "seed" and getattr(args, flag) is not None:
                raise UsageError(f"{command} {choice}: --{flag} is not read by {choice}")
    return {flag: getattr(args, flag) for flag in own if getattr(args, flag) is not None}


# One table per CLI concept; its keys are the argparse choices. Each row
# names, by argparse dest, the flags its choice needs (checked in this
# order) and the flags it may read; _flag_values refuses every other flag
# a row of the table names. Only given flags are passed, by keyword, so a
# flag left out keeps the default of the function or dataclass it feeds.
# Row calls look their function up on the module when called, never
# holding it, so that a function rebound there (as a tracing harness
# does) is the one called, and they pass l by position, as that harness
# reads it.


# -- gen ---------------------------------------------------------------------

# The flags of each generators.gen_<family>: (needs, reads).
GEN_FLAGS = {
    "star": (("n",), ()),
    "double_star": (("k",), ()),
    "complete": (("n",), ()),
    "path": (("n",), ()),
    "ba": (("n", "m0", "m"), ("seed",)),
    "nw": (("n", "K", "p"), ("seed",)),
    "erdos_renyi": (("n", "p"), ("seed",)),
}


def cmd_gen(args) -> int:
    fam = args.family
    flags = _flag_values(args, "gen", GEN_FLAGS, fam)
    try:
        g = getattr(gen_mod, f"gen_{fam}")(**flags)
    except ValueError as exc:
        raise UsageError(f"gen {fam}: {exc}") from None
    _write_out(format_edge_list(g), args.out)
    return 0


# -- analyze -----------------------------------------------------------------

def cmd_analyze(args) -> int:
    g = _read_graph(args.graph)
    pins = _parse_pins(args, g)
    report = bounds_mod.bound_report(g, pins, alpha_over_c=args.alpha_over_c)
    _json_line(asdict(report))
    return 0


# -- select ------------------------------------------------------------------

# Each strategy: (needs, reads, its call (g, **flags) -> SelectionResult).
STRATEGIES = {
    "degree_mix": (("q", "l"), ("seed", "runs"), lambda g, **kw: strat_mod.select_degree_mix(
        g, strat_mod.StrategyConfig(**kw))),
    "betweenness": (("l",), (), lambda g, l: strat_mod.select_betweenness(g, l)),
    "greedy": (("l",), (), lambda g, l: strat_mod.greedy_max_lambda1(g, l)),
    "brute_force": (("l",), ("budget",), lambda g, l, **kw: strat_mod.brute_force_max_lambda1(
        g, l, **kw)),
    "dominating": ((), ("seed",), lambda g, **kw: strat_mod.dominating_partition(g, **kw)),
}


def cmd_select(args) -> int:
    g = _read_graph(args.graph)
    flags = _flag_values(args, "select", STRATEGIES, args.strategy)
    _json_line(asdict(STRATEGIES[args.strategy][2](g, **flags)))
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


def sweep_rows(
    g: Graph,
    strategy: str,
    ls: list[int] | range,
    qs: list[float] | None = None,
    with_brute: bool = False,
    budget: int = strat_mod.BRUTE_FORCE_BUDGET,
    **flags,
) -> list[dict]:
    """One dict per (l, q) cell, q None but for degree_mix, whose cells
    each take the tie-breaking runs of StrategyConfig(l, q, **flags).
    Bound columns are averaged over the same runs as lambda1_mean, so
    every row keeps lower_min_boundary <= lambda1_mean <= each upper
    column. `budget` bounds the brute-force searches."""
    searched = with_brute or strategy == "brute_force"
    # every cell, in order, before the first solve: C(n, l) is not monotone in l
    for l in ls:
        check_l(g, l, budget if searched else None)
    q_list = qs if strategy == "degree_mix" else [None]
    # then each degree-mix cell's q and runs, through the config that checks them
    configs = {(l, q): strat_mod.StrategyConfig(l=l, q=q, **flags)
               for l in ls for q in q_list} if strategy == "degree_mix" else {}
    rows: list[dict] = []
    for l in ls:
        brute = strat_mod.brute_force_max_lambda1(g, l, budget=budget) if searched else None
        for q in q_list:
            if strategy == "degree_mix":
                cfg = configs[l, q]
                # one report per pin set, each freeing its grounding on return
                reports = [bounds_mod.bound_report(g, strat_mod.degree_mix_pins(g, cfg, r))
                           for r in range(cfg.runs)]
            else:  # brute force's search is the brute column's; its report reuses its solve
                picked = brute if strategy == "brute_force" else STRATEGIES[strategy][2](g, l, **flags)
                reports = [bounds_mod.bound_report(g, picked.pin_set, lambda1=picked.lambda1)]
            lams = [r.lambda1 for r in reports]
            mean = float(np.mean(lams))
            # upper_spectrum bounds every run's lambda1 and their mean, which can round above them
            values = [l, q, mean, float(np.std(lams)), max(mean, *(r.upper_spectrum for r in reports))]
            values += [float(np.mean([getattr(r, col) for r in reports])) for col in SWEEP_COLUMNS[5:]]
            row = dict(zip(SWEEP_COLUMNS, values))
            if with_brute:
                row["lambda1_brute"] = brute.lambda1
            rows.append(row)
    return rows


def _l_range(spec: str) -> range:
    """argparse type: A:B[:STEP] inclusive, or a single l; a range, so check_l refuses a huge one."""
    try:
        nums = [int(p) for p in spec.split(":")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be A:B[:STEP] or a single integer, got {spec!r}") from None
    if len(nums) == 1:
        return range(nums[0], nums[0] + 1)
    if len(nums) > 3:
        raise argparse.ArgumentTypeError(f"must be A:B[:STEP], got {spec!r}")
    a, b, step = nums + [1] * (3 - len(nums))
    if step < 1 or b < a:
        raise argparse.ArgumentTypeError(f"needs A <= B and STEP >= 1, got {spec!r}")
    return range(a, b + 1, step)


def _floats(text: str) -> list[float]:
    """argparse type: comma-separated floats, empty items skipped."""
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated floats, got {text!r}") from None


def cmd_sweep(args) -> int:
    g = _read_graph(args.graph)
    # --budget also bounds the brute column's search
    also = ("budget",) if args.with_brute_force else ()
    flags = _flag_values(args, "sweep", STRATEGIES, args.strategy, also)
    rows = sweep_rows(g, args.strategy, flags.pop("l"), flags.pop("q", None),
                      with_brute=args.with_brute_force, **flags)
    cols = SWEEP_COLUMNS + (["lambda1_brute"] if args.with_brute_force else [])
    _write_out(_csv(cols, ([row[col] for col in cols] for row in rows)), args.out)
    return 0


# -- simulate ----------------------------------------------------------------

# Each node dynamics: (needs, reads, its builder).
DYNAMICS = {
    "linear_unstable": ((), ("a",), lambda **kw: sync_mod.linear_unstable(**kw)),
    "chua": ((), (), lambda: sync_mod.chua()),
}

# The SimConfig flags of each controller: (needs, reads).
_STEPPING = ("dt", "t_end", "record_every")
CONTROLLERS = {
    "adaptive": ((), ("h",) + _STEPPING),
    "linear": ((), ("d",) + _STEPPING),
}


def cmd_simulate(args) -> int:
    g = _read_graph(args.graph)
    pins = _parse_pins(args, g)
    dyn = DYNAMICS[args.dynamics][2](**_flag_values(args, "simulate", DYNAMICS, args.dynamics))
    flags = _flag_values(args, "simulate", CONTROLLERS, args.controller)
    cfg = sync_mod.SimConfig(controller=args.controller, c=args.c, seed=args.seed, **flags)
    res = sync_mod.simulate(g, pins, dyn, cfg)
    if args.out_csv is not None:
        cols = ["t"] + [f"e{i}" for i in range(g.n)]
        series = [res.times[:, None], res.error_norms]
        if res.gains is not None:
            cols += [f"d{i}" for i in pins]
            series.append(res.gains)
        _write_file(args.out_csv, _csv(cols, np.hstack(series).tolist()))
    _json_line({"converged": res.converged, "final_error": res.final_error,
                "blowup_time": res.blowup_time})
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
    seeded.add_argument("--seed", type=_non_negative_int, default=0)
    searched = _Parser(add_help=False, parents=[seeded])
    searched.add_argument("--runs", type=int)
    searched.add_argument("--budget", type=_non_negative_int)

    p_gen = sub.add_parser("gen", parents=[seeded], help="generate a graph and print its edge list")
    p_gen.add_argument("--family", required=True, choices=GEN_FLAGS)
    p_gen.add_argument("--n", type=int, help="node count")
    p_gen.add_argument("--k", type=int, help="leaves per hub (double_star)")
    p_gen.add_argument("--m0", type=int, help="seed clique size (ba)")
    p_gen.add_argument("--m", type=int, help="attachments per new node (ba)")
    p_gen.add_argument("--K", type=int, help="lattice degree (nw)")
    p_gen.add_argument("--p", type=float, help="edge/shortcut probability")
    p_gen.add_argument("--out", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", parents=[pinned], help="bounds and lambda1 for one pin set")
    p_an.add_argument("graph")
    p_an.add_argument("--alpha-over-c", type=_finite_float, default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sel = sub.add_parser("select", parents=[searched], help="pick a pin set with one strategy")
    p_sel.add_argument("graph")
    p_sel.add_argument("--strategy", required=True, choices=STRATEGIES)
    p_sel.add_argument("--l", type=int)
    p_sel.add_argument("--q", type=float)
    p_sel.set_defaults(func=cmd_select)

    p_sw = sub.add_parser("sweep", parents=[searched], help="lambda1 and bounds across l (and q)")
    p_sw.add_argument("graph")
    p_sw.add_argument("--strategy", required=True, choices=[s for s in STRATEGIES if s != "dominating"])
    p_sw.add_argument("--l-range", dest="l", type=_l_range, required=True,
                      help="A:B[:STEP] inclusive, or a single l")
    p_sw.add_argument("--q", type=_floats, help="comma-separated q values (degree_mix)")
    p_sw.add_argument("--with-brute-force", action="store_true",
                      help="append an exact-max column (budget applies)")
    p_sw.add_argument("--out", default=None, help="output file (default stdout)")
    p_sw.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[pinned, seeded], help="integrate the pinned network")
    p_sim.add_argument("graph")
    p_sim.add_argument("--dynamics", required=True, choices=DYNAMICS)
    p_sim.add_argument("--a", type=_finite_float, help="growth rate (linear_unstable)")
    p_sim.add_argument("--controller", required=True, choices=CONTROLLERS)
    p_sim.add_argument("--c", type=_finite_float, required=True, help="coupling strength")
    p_sim.add_argument("--h", type=_finite_float, help="adaptation rate (adaptive)")
    p_sim.add_argument("--d", type=_finite_float, help="constant gain (linear)")
    p_sim.add_argument("--dt", type=_finite_float, help="RK4 step, at most --T")
    p_sim.add_argument("--T", dest="t_end", type=_finite_float)
    p_sim.add_argument("--record-every", type=int)
    p_sim.add_argument("--out-csv", default=None, help="write the error/gain time series here")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


# The exit code of each error a command may raise, by the first class that
# matches; a ValueError is a value the library refuses.
EXIT_CODES = {UsageError: 1, DataError: 2, BudgetError: 3, ValueError: 1}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
