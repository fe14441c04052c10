#!/usr/bin/env python3
"""Digest the exit code and stdout of every benchmark deck command.

    python3 scripts/deck_digest.py --seed 1 > digests-seed1.txt

Builds the full deck of each of the four workloads in
``perfbench/workloads.py`` at the seed, writing its input files to a
temporary directory, and runs every command once in-process through
``pinopt.cli.main`` from this checkout's ``src/``, with one BLAS thread
as the benchmark uses. It prints one line per command, ``<workload>
<index> <sha256 of the exit code and stdout>``, so two checkouts give
the same lines exactly when every command exits and prints alike. Each
``simulate`` command also writes its ``--out-csv`` series to a
temporary file, and its line ends in ``csv <sha256 of that file>``, so
the recorded error norms and adaptive gains are compared too, not just
the final error. It writes nothing under ``perfbench/``.
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
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from pinopt import cli  # noqa: E402


def digest(argv) -> str:
    """sha256 of the exit code (or the exception raised) and the stdout of one command."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = repr(cli.main(list(argv)))
    except (Exception, SystemExit) as exc:
        code = f"raised {type(exc).__name__}"
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def file_digest(path: str) -> str:
    """sha256 of a file's bytes, or ``missing`` when the command wrote none."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return "missing"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        csv = os.path.join(workdir, "series.csv")
        for workload in workloads.WORKLOADS:
            deck = workloads.build(workload, args.seed, "full", os.path.join(workdir, workload))
            for i, cmd in enumerate(deck):
                if workload != "simulate":
                    print(workload, i, digest(cmd.argv), flush=True)
                    continue
                with contextlib.suppress(FileNotFoundError):
                    os.remove(csv)
                line = digest(cmd.argv + ("--out-csv", csv))
                print(workload, i, line, "csv", file_digest(csv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
