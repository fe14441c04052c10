#!/usr/bin/env python3
"""Time pin-set searches and searched sweeps the benchmark decks leave out.

    python3 scripts/offdeck_search.py [--src DIR] [--case NAME ...] [--json]

Each case runs in a fresh subprocess with one BLAS thread, with pinopt
imported from DIR (default: this checkout's src/). A search case is a
graph, a search (brute force or greedy) and l. Per case it prints the
wall time of the search, the peak RSS of the process, the rows given
a Ritz ceiling at each Krylov depth, the rows solved, and the winning
set with the repr of its lambda1. The counts come from wrapping
``strategies.ritz_ceilings`` and ``Graph.grounded_lambda1s``, so the
script also runs against older checkouts.

A sweep case is a graph, a strategy and a range of l: the rows of
``sweep --strategy <strategy> --l-range``, made by ``cli.sweep_rows``.
Per case it prints the wall time of the rows, the peak RSS, the
eigensolves (``numpy.linalg.eigvalsh`` calls, the Laplacian's spectrum
among them) per row, and the sha256 of the rows' repr, so two
checkouts can be seen to print the same rows.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (graph expression over pinopt.generators and pinopt, strategy, l,
# brute-force budget or None)
CASES = {
    "ring_lattice_200_l2": ("gen_nw(200, 4, 0.0, 0)", "brute_force", 2, None),
    "dolphins_l4": ("pinopt.load_dolphins()", "brute_force", 4, None),
    "complete_30_l3": ("gen_complete(30)", "brute_force", 3, None),
    "ba_400_l3": ("gen_ba(400, 3, 3, 0)", "brute_force", 3, 11_000_000),
    # greedy on large sparse graphs, where the dense Laplacian product is weakest
    "nw_1000_greedy_l3": ("gen_nw(1000, 4, 0.01, 0)", "greedy", 3, None),
    "ba_1000_greedy_l3": ("gen_ba(1000, 3, 3, 0)", "greedy", 3, None),
}
# strategy -> its search in pinopt.strategies
SEARCHES = {"brute_force": "brute_force_max_lambda1", "greedy": "greedy_max_lambda1"}
# name -> (graph expression, strategy, l range): searched sweeps, whose rows
# report the search's own solve
SWEEPS = {
    f"{graph}_sweep_{strategy}": (expr, strategy, range(1, 9))
    for graph, expr in (("ba_400", "gen_ba(400, 3, 3, 0)"), ("nw_1000", "gen_nw(1000, 4, 0.01, 0)"))
    for strategy in ("betweenness", "greedy")
}


def run_sweep(name: str) -> dict:
    """Run one sweep case in this process and return its record."""
    import hashlib
    import resource
    from time import perf_counter

    import numpy as np

    from pinopt.cli import sweep_rows
    from pinopt.generators import gen_ba, gen_nw  # noqa: F401 (used by eval)

    expr, strategy, ls = SWEEPS[name]
    g = eval(expr)
    solves, real = [0], np.linalg.eigvalsh

    def counted(*args, **kwargs):
        solves[0] += 1
        return real(*args, **kwargs)

    np.linalg.eigvalsh = counted
    t0 = perf_counter()
    rows = sweep_rows(g, strategy, ls)
    wall = perf_counter() - t0
    return {
        "case": name,
        "strategy": strategy,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": len(rows),
        "eigensolves": solves[0],
        "rows_sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


def run_case(name: str) -> dict:
    """Run one case in this process and return its record."""
    import resource
    from collections import Counter
    from time import perf_counter

    import pinopt
    import pinopt.bounds
    import pinopt.strategies as strategies
    from pinopt.generators import gen_ba, gen_complete, gen_nw  # noqa: F401 (used by eval)
    from pinopt.graphs import Graph

    expr, strategy, l, budget = CASES[name]
    g = eval(expr)
    ritz_rows, solved = Counter(), [0]
    ritz, solve = strategies.ritz_ceilings, Graph.grounded_lambda1s

    def counted_ritz(g, pins, *args, **kwargs):
        ritz_rows[pinopt.bounds.RITZ_DEPTH] += len(pins)
        return ritz(g, pins, *args, **kwargs)

    def counted_solve(g, pins):
        solved[0] += len(pins)
        return solve(g, pins)

    strategies.ritz_ceilings = counted_ritz
    Graph.grounded_lambda1s = counted_solve
    kwargs = {} if budget is None else {"budget": budget}
    t0 = perf_counter()
    res = getattr(strategies, SEARCHES[strategy])(g, l, **kwargs)
    wall = perf_counter() - t0
    return {
        "case": name,
        "strategy": strategy,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ritz_rows_by_depth": {str(d): c for d, c in sorted(ritz_rows.items())},
        "rows_solved": solved[0],
        "pin_set": list(res.pin_set),
        "lambda1": repr(res.lambda1),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding pinopt")
    p.add_argument("--case", action="append", choices=sorted([*CASES, *SWEEPS]), help="run only these cases")
    p.add_argument("--json", action="store_true", help="print one JSON record per case")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps((run_sweep if args.child in SWEEPS else run_case)(args.child)))
        return 0
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name in args.case or [*CASES, *SWEEPS]:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.json:
            print(json.dumps(rec), flush=True)
            continue
        if name in SWEEPS:
            print(f"{name}: {rec['wall_s']:.3f} s, peak RSS {rec['peak_rss_mb']:.1f} MB, "
                  f"{rec['eigensolves']} eigensolves over {rec['rows']} rows "
                  f"({rec['eigensolves'] / rec['rows']:.3f} per row), rows sha256 {rec['rows_sha256'][:16]}",
                  flush=True)
            continue
        print(f"{name}: {rec['wall_s']:.3f} s, peak RSS {rec['peak_rss_mb']:.1f} MB, "
              f"Ritz rows by depth {rec['ritz_rows_by_depth']}, {rec['rows_solved']} rows solved, "
              f"winner {tuple(rec['pin_set'])} lambda1 {rec['lambda1']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
