#!/usr/bin/env python3
"""Benchmark for the pinopt command line, run from the repository root.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload search --seed 1 --seconds 1 --trace 1 --size smoke

One client issues ``pinopt.cli.main(argv)`` calls in-process, in a closed
loop: the next command starts when the previous one returns. The
commands come from the workload's deck (see ``workloads.py``), built
from ``--seed`` during set-up.

``--trace 0`` cycles through the deck for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs each command of the deck twice,
with and without spans around pinopt's public functions, and reports
the per-layer metrics plus the tracing overhead (traced time minus
untraced time for the same commands). Every output is checked
after the timed region. The last line of stdout is the result object;
the line before it is a report with the machine block, the tail level
and the failures.
"""

from __future__ import annotations

import os

# A fixed BLAS thread count, set before numpy loads OpenBLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import sys  # noqa: E402

sys.dont_write_bytecode = True  # every import compiles, so set-up costs the same on each run

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many commands above it

E2E_UNITS = {"cmds_per_s": "1/s", "cmd_ms_p50": "ms", "cmd_ms_tail": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "overhead_s": "s", "order_mean": "rows",
               "eig_per_candidate": "ratio", "rk4_steps": "count", "us_per_step": "us",
               "f_calls_per_step": "ratio", "spans": "count", "overhead_frac": "ratio"}


@dataclass
class Record:
    index: int  # position in the deck
    seconds: float
    code: int | None  # None when main raised
    stdout: str
    error: str


def run_command(cli, argv) -> tuple[float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        code, failure = None, exc
    seconds = perf_counter() - t0
    error = err.getvalue() if failure is None else "".join(traceback.format_exception(failure))
    return seconds, code, out.getvalue(), error


def drive(cli, deck, seconds: float = 0.0) -> list[Record]:
    """Closed loop over the deck: at least one whole pass, then on until
    ``seconds`` have passed."""
    records: list[Record] = []
    t0 = perf_counter()
    while len(records) < len(deck) or perf_counter() - t0 < seconds:
        i = len(records) % len(deck)
        records.append(Record(i, *run_command(cli, deck[i].argv)))
    return records


def traced_pass(cli, deck, tracer: spans.Tracer) -> tuple[list[Record], list[Record]]:
    """Each command of the deck once with spans and once without, the two
    runs back to back in alternating order, so the difference measures
    tracing and not a drift in machine speed."""
    traced, plain = [], []
    for i, cmd in enumerate(deck):
        for with_spans in ((True, False) if i % 2 == 0 else (False, True)):
            if not with_spans:
                plain.append(Record(i, *run_command(cli, cmd.argv)))
                continue
            tracer.current_command = i
            tracer.install()
            try:
                traced.append(Record(i, *run_command(cli, cmd.argv)))
            finally:
                tracer.restore()
            left = spans.wrappers_left()
            if left:
                raise RuntimeError(f"wrappers survived restore: {left}")
    return traced, plain


def failures(cli, deck, records: list[Record]) -> list[str]:
    """One reason per failed record, found after the timed region: a
    non-zero exit or traceback, output that differs between runs of the
    same command, or output that fails ``verify.check``."""
    ref: dict[int, str] = {}
    for r in records:
        if r.code == 0:
            ref.setdefault(r.index, r.stdout)
    why = {i: verify.check(deck[i], out) for i, out in ref.items()}
    for i, out in ref.items():
        if why[i] is None and deck[i].kind == "gen":
            _, code, again, _ = run_command(cli, deck[i].argv)
            if (code, again) != (0, out):
                why[i] = "gen output changed when repeated"
    reasons = []
    for r in records:
        if r.code != 0:
            lines = r.error.strip().splitlines() or [""]
            reason = f"exit {r.code}: {lines[-1]}"
        elif r.stdout != ref[r.index]:
            reason = "output differs from an earlier run of the same command"
        else:
            reason = why[r.index]
        if reason:
            reasons.append(f"{' '.join(deck[r.index].argv)}: {reason}")
    return reasons


def import_cli():
    """Import pinopt afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pinopt"]:
        del sys.modules[name]
    cli = importlib.import_module("pinopt.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported pinopt from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, size: str, workdir: str):
    """Import pinopt, build and write the inputs, run the untimed warm-up
    (one pass of the smoke deck on its own inputs)."""
    t0 = perf_counter()
    cli = import_cli()
    deck = workloads.build(workload, seed, size, os.path.join(workdir, "deck"))
    for cmd in workloads.build(workload, seed, "smoke", os.path.join(workdir, "warm")):
        run_command(cli, cmd.argv)
    return perf_counter() - t0, cli, deck


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_sha256() -> str:
    """Digest of pinopt's sources, which identifies the code when no git rev exists."""
    paths = []
    for dirpath, _, files in os.walk(os.path.join(SRC, "pinopt")):
        paths += [os.path.join(dirpath, f) for f in files if f.endswith((".py", ".txt"))]
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.relpath(p, SRC).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine(seed: int) -> dict:
    try:
        blas_version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        blas_version = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas_version, "blas_threads": blas_threads(),
            "git_rev": git_rev(), "src_sha256": src_sha256(), "seed": seed}


def end_to_end(records: list[Record], n_failed: int, wall: float, setups: list[float], rss_mb: float):
    """Latency percentiles are taken over the deck's commands, each at the
    median of its runs, so they do not depend on how many passes fit in
    the run; the tail keeps TAIL_BEYOND commands above it."""
    runs: dict[int, list[float]] = {}
    for r in records:
        runs.setdefault(r.index, []).append(r.seconds * 1e3)
    ms = sorted(statistics.median(v) for v in runs.values())
    # smoke decks are too small for that tail, and report the slowest command
    k = len(ms) - 1 - (TAIL_BEYOND if len(ms) > TAIL_BEYOND else 0)
    metrics = {
        "cmds_per_s": (len(records) - n_failed) / wall,
        "cmd_ms_p50": statistics.median(ms),
        "cmd_ms_tail": ms[k],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    tail = {"tail_percentile": 100.0 * (k + 1) / len(ms), "tail_samples": len(ms)}
    return metrics, tail


def measure(args, workdir: str) -> tuple[dict, dict]:
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        seconds, cli, deck = set_up(args.workload, args.seed, args.size, workdir)
        setups.append(seconds)
    report: dict = {"workload": args.workload, "size": args.size, "trace": args.trace,
                    "deck_commands": len(deck), "setup_runs_s": setups}
    if args.trace:
        tracer = spans.Tracer()
        traced, plain = traced_pass(cli, deck, tracer)
        records = traced + plain
        metrics = tracer.layer_metrics()
        t_traced = sum(r.seconds for r in traced)
        t_plain = sum(r.seconds for r in plain)
        metrics["trace.overhead_s"] = t_traced - t_plain
        metrics["trace.overhead_frac"] = (t_traced - t_plain) / t_plain
        reasons = failures(cli, deck, records)
    else:
        t0 = perf_counter()
        records = drive(cli, deck, seconds=args.seconds)
        wall = perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
        reasons = failures(cli, deck, records)
        metrics, tail = end_to_end(records, len(reasons), wall, setups, rss_mb)
        report.update(tail, wall_s=wall)
    report.update(commands=len(records), failed_frac=len(reasons) / len(records), failures=reasons[:10])
    units = E2E_UNITS if not args.trace else {m: LAYER_UNITS[m.rsplit(".", 1)[-1]] for m in metrics}
    result = {"correct": not reasons, "attempted": len(records), "failed": len(reasons),
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    return result, report


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop (trace 0)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="smoke: tiny inputs, a whole run takes seconds")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pinopt", "cli.py")):
        print(f"error: no pinopt sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if blas_threads() not in (None, BLAS_THREADS):
        print(f"error: OpenBLAS runs {blas_threads()} threads, expected {BLAS_THREADS}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        result, report = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run is using it
    report["machine"] = machine(args.seed)
    for reason in report["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
