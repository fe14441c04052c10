#!/usr/bin/env python3
"""Digest the exit code and stdout of every benchmark deck command, and
of a fixed group of commands the decks never run.

    python3 scripts/deck_digest.py --seed 1 [--src DIR] > digests-seed1.txt

Builds the full deck of each of the four workloads in
``perfbench/workloads.py`` at the seed, writing its input files to a
temporary directory, and runs every command once in-process through
``pinopt.cli.main``, with pinopt imported from DIR (default: this
checkout's ``src/``) and one BLAS thread as the benchmark uses. It
prints one line per command, ``<workload> <index> <sha256 of the exit
code and stdout>``, so two trees give the same lines exactly when every
command exits and prints alike. Each ``simulate`` command also writes
its ``--out-csv`` series to a temporary file, and its line ends in
``csv <sha256 of that file>``, so the recorded error norms and adaptive
gains are compared too, not just the final error.

Then it runs the ``offdeck`` group, the same at every seed (see
``OFFDECK``): CLI paths no deck takes, such as sweeps of every
strategy, dominating selection, tie-heavy searches, degenerate graphs
and refusals. Its lines read ``offdeck <index> <sha256>``, as above.
It writes nothing under ``perfbench/``. One copy of the script digests
either of two trees through ``--src``, so both run the same commands.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402

sys.dont_write_bytecode = True  # no __pycache__ under perfbench/ or src/

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def run(argv) -> tuple[str, str]:
    """The exit code (or the exception raised) and the stdout of one command."""
    from pinopt import cli  # from --src, put on the path once the arguments are parsed

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = repr(cli.main(list(argv)))
    except (Exception, SystemExit) as exc:
        code = f"raised {type(exc).__name__}"
    return code, out.getvalue()


def digest(argv) -> str:
    """sha256 of the exit code (or the exception raised) and the stdout of one command."""
    code, out = run(argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def file_digest(path: str) -> str:
    """sha256 of a file's bytes, or ``missing`` when the command wrote none."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return "missing"


# The graphs the off-deck commands read: the flags of a `gen` command, whose
# digest is printed and whose output is the file, or an edge-list text.
OFFDECK_GRAPHS = {
    "ba60": "--family ba --n 60 --m0 3 --m 2 --seed 5",
    "ba300": "--family ba --n 300 --m0 3 --m 3 --seed 7",
    "nw40": "--family nw --n 40 --K 4 --p 0.1 --seed 2",
    "er30": "--family erdos_renyi --n 30 --p 0.15 --seed 4",
    "ds5": "--family double_star --k 5",
    "path9": "--family path --n 9",
    # tie-heavy: every node, or every leaf, alike
    "k12": "--family complete --n 12",
    "k30": "--family complete --n 30",
    "star15": "--family star --n 15",
    "ring20": "--family nw --n 20 --K 4 --p 0 --seed 0",
    "ring60": "--family nw --n 60 --K 4 --p 0 --seed 0",
    "edgeless": "6\n",
    "split": "9\n0 1\n1 2\n3 4\n5 6\n6 7\n5 7\n",
    # K8 as text, so that no gen line moves the indices of the commands
    "k8": ("8\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n1 2\n1 3\n1 4\n1 5\n1 6\n1 7\n"
           "2 3\n2 4\n2 5\n2 6\n2 7\n3 4\n3 5\n3 6\n3 7\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n"),
    # the component 0-4-3-5 holds no pin when node 2 is pinned
    "pinless": "6\n0 4\n1 2\n3 4\n3 5\n",
}

# The off-deck commands, split on spaces once each {graph} is a path.
OFFDECK = [
    # sweeps of the strategies the sweep deck leaves out
    "sweep {ba60} --strategy betweenness --l-range 1:12",
    "sweep {ba300} --strategy betweenness --l-range 1:40:3",
    "sweep {split} --strategy betweenness --l-range 1:8",
    # greedy where an isolated node holds every set's lambda1 at 0 in the
    # first rounds, far below its first-tier ceiling, the start's quotient
    "sweep {split} --strategy greedy --l-range 1:8",
    "select {edgeless} --strategy greedy --l 2",
    "sweep {ba60} --strategy greedy --l-range 1:5",
    "sweep {ba300} --strategy greedy --l-range 1:6",
    "sweep {er30} --strategy brute_force --l-range 1:3",
    "sweep {nw40} --strategy brute_force --l-range 1:3",
    "sweep {path9} --strategy brute_force --l-range 1:8",
    "sweep {er30} --strategy greedy --l-range 1:3 --with-brute-force",
    "sweep {nw40} --strategy degree_mix --q 0,0.5,1 --runs 3 --l-range 1:3 --with-brute-force",
    # dominating at several seeds
    *(f"select {{{g}}} --strategy dominating --seed {s}"
      for g in ("ba60", "ba300", "nw40", "ring20", "k12", "star15", "split") for s in range(6)),
    # searches on tie-heavy graphs
    *(f"select {{{g}}} --strategy {s} --l {l}"
      for g, l in (("k12", 3), ("k30", 3), ("star15", 2), ("star15", 5), ("ring20", 2),
                   ("ring20", 4), ("ring60", 2))
      for s in ("brute_force", "greedy", "betweenness")),
    # analyze on degenerate graphs
    "analyze {edgeless} --pins 0,3",
    "analyze {edgeless} --pins 5 --alpha-over-c 0.5",
    "analyze {split} --pins 0,5",
    "analyze {split} --pins 3 --alpha-over-c 0.1",
    # simulate pairs the simulate deck leaves out
    "simulate {nw40} --pins 0,10,20 --dynamics linear_unstable --a 0.5 --controller adaptive"
    " --c 2 --h 1 --T 2 --dt 0.01",
    "simulate {ba60} --pins 0,1,2,3 --dynamics linear_unstable --a 1 --controller adaptive"
    " --c 4 --h 2 --T 10 --dt 0.005 --record-every 7",
    "simulate {ds5} --pins 0,6 --dynamics chua --controller linear --c 3 --d 5 --T 1 --dt 0.002",
    "simulate {nw40} --pins 0,13,26 --dynamics chua --controller linear --c 8 --d 20 --T 5 --dt 0.002",
    "simulate {split} --pins 0,3,5 --dynamics chua --controller linear --c 2 --d 4 --T 1 --dt 0.005",
    # adaptive gains grow past RK4's stability limit: a blowup at step 331, row 6 of its scan block
    "simulate {nw40} --pins 0,13,26 --dynamics chua --controller adaptive --c 2 --h 2e4 --T 4"
    " --dt 0.01 --record-every 25",
    # refusals: usage (exit 1), data (exit 2) and budget (exit 3)
    "select {ba60} --strategy greedy --l 0",
    "select {ba60} --strategy greedy --l 60",
    "select {ba60} --strategy greedy --l 3 --q 0.5",
    "analyze {ba60} --pins ,",  # an empty pin set
    "analyze {ba60} --pins 0,60",
    "sweep {ba60} --strategy greedy --l-range 1:500",
    "simulate {ds5} --pins 0 --dynamics chua --controller linear --c 1 --d 1 --T 1 --dt 2",
    "analyze {missing} --pins 0",
    "select {ba60} --strategy brute_force --l 5 --budget 100",
    "sweep {ba60} --strategy greedy --l-range 1:3 --with-brute-force --budget 10",
    "simulate {ds5} --pins 0 --dynamics chua --controller linear --c 1 --d 1 --T 1e6 --dt 1e-3",
    # verdicts at a threshold the exact lambda1 equals, where the
    # eigensolve lands a few ulps above it (K8) and below it (K30)
    "analyze {k8} --pins 2,6,1 --alpha-over-c 3",
    "analyze {k30} --pins 0,1,2 --alpha-over-c 3",
    # lambda1 0 by structure, where the eigensolve lands a few ulps above it
    "analyze {pinless} --pins 2 --alpha-over-c 0",
    "select {pinless} --strategy degree_mix --l 1 --q 0 --runs 3",
    # upper_spectrum, 1 exactly, where the spectrum's eigensolve lands below lambda1
    "analyze {star15} --pins 0",
    # a degree-mix selection averaged over several tie-breaking runs
    "select {ba300} --strategy degree_mix --l 30 --q 0.5 --runs 5 --seed 3",
    # greedy over many rounds, each from the last winner's bottom vector
    "select {ba300} --strategy greedy --l 40",
]


def offdeck(workdir: str):
    """Write the off-deck graphs into `workdir`, then yield the argv of
    every off-deck command: one `gen` per generated graph, then OFFDECK."""
    paths = {name: os.path.join(workdir, f"{name}.txt") for name in [*OFFDECK_GRAPHS, "missing"]}
    for name, spec in OFFDECK_GRAPHS.items():
        argv = ("gen", *spec.split()) if spec.startswith("--") else None
        text = spec if argv is None else run(argv)[1]
        with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if argv is not None:
            yield argv
    for line in OFFDECK:
        yield tuple(line.format(**paths).split())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding pinopt")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as workdir:
        csv = os.path.join(workdir, "series.csv")
        groups = [(w, [cmd.argv for cmd in workloads.build(w, args.seed, "full", os.path.join(workdir, w))])
                  for w in workloads.WORKLOADS]
        os.makedirs(os.path.join(workdir, "offdeck"))
        groups.append(("offdeck", offdeck(os.path.join(workdir, "offdeck"))))
        for group, commands in groups:
            for i, argv in enumerate(commands):
                if argv[0] != "simulate":
                    print(group, i, digest(argv), flush=True)
                    continue
                with contextlib.suppress(FileNotFoundError):
                    os.remove(csv)
                line = digest(argv + ("--out-csv", csv))
                print(group, i, line, "csv", file_digest(csv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
