#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size; it takes a few seconds.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit on every workload, that a corrupted or failed command is counted
as failed, and that no tracing wrapper survives into the untraced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run  # first: pins the BLAS thread count before numpy loads
import spans
import workloads

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def _run(*argv: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    assert code == 0, f"run.py {' '.join(argv)} exited {code}"
    return json.loads(buf.getvalue().splitlines()[-1])


def check_metrics_emitted(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = _run("--workload", w["name"], "--seed", "3", "--seconds", "0.2",
                       "--trace", str(trace), "--size", "smoke")
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{w['name']} trace={trace}: metrics differ: {set(got) ^ set(want)}"
            assert not spans.wrappers_left(), spans.wrappers_left()


def _corrupt(kind: str, out: str) -> str:
    """A wrong variant of a correct output."""
    if kind == "gen":
        return out + out.splitlines()[-1] + "\n"  # a duplicate edge
    if kind == "sweep":
        head, first, *rest = out.splitlines()
        cells = first.split(",")
        cells[2] = repr(float(cells[4]) + 1.0)  # lambda1_mean above upper_spectrum
        return "\n".join([head, ",".join(cells), *rest]) + "\n"
    res = json.loads(out)
    if kind.startswith("simulate"):
        res["converged"] = not res["converged"]
        if res["converged"]:
            res["final_error"] = 1.0
    else:
        res["lambda1"] += 1e-3
    return json.dumps(res) + "\n"


def check_failures_counted() -> None:
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    try:
        for w in workloads.WORKLOADS:
            _, cli, deck = run.set_up(w, 5, "smoke", workdir)
            records = run.drive(cli, deck)
            assert run.failures(cli, deck, records) == [], w
            bad = [run.Record(r.index, r.seconds, r.code, _corrupt(deck[r.index].kind, r.stdout), r.error)
                   for r in records]
            assert len(run.failures(cli, deck, bad)) == len(bad), f"{w}: a corrupted output passed"
            crashed = run.Record(0, 0.0, None, "", "Traceback ...")
            refused = run.Record(0, 0.0, 1, "", "error: usage")
            assert len(run.failures(cli, deck, records + [crashed, refused])) == 2, w
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_restore() -> None:
    run.import_cli()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = spans.wrappers_left()
        for name in ("pinopt.bounds.eig_sym", "pinopt.strategies.eig_sym", "pinopt.sync.eig_sym",
                     "numpy.linalg.eigvalsh", "pinopt.cli.main", "pinopt.sync.linear_unstable"):
            assert name in wrapped, f"{name} was not wrapped"
    finally:
        tracer.restore()
    assert not spans.wrappers_left(), spans.wrappers_left()


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "pinopt", "cli.py")):
        print(f"error: no pinopt sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    for check in (check_restore, check_failures_counted, lambda: check_metrics_emitted(spec)):
        check()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
