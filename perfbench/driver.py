"""The workload process: one fresh interpreter per benchmark run.

    python3 perfbench/driver.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/driver.py --workload NAME --setup-only

Set-up imports the package from ``src/`` of the checkout and builds the
field and domain tables the workload uses; the process then writes the
CLOCK_MONOTONIC time at which it was ready to issue its first op.  With
``--setup-only`` it stops there.

Otherwise it issues ops (each a list of ``fqsimplex.cli.main(argv)`` calls
with stdout captured) until the ops have taken ``--seconds`` in total.  Each
invocation's output goes to ``DIR/<op>-<call>.out`` for ``run.py`` to check
after this process has ended.  With ``--trace 1`` the ops run untraced for
half the time, then the same ops run again under the boundary tracer; the
traced outputs go to ``<op>-<call>.traced`` and must match byte for byte.
The last line of stdout is one JSON object with the timings.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def monotonic() -> float:
    # System-wide on Linux, so run.py can subtract its own start time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def set_up(workload):
    if not (SRC / "fqsimplex" / "__init__.py").is_file():
        raise SystemExit(f"driver: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    from fqsimplex import cli, domain
    from fqsimplex.field import PrimeField

    if Path(cli.__file__).resolve().parent != SRC / "fqsimplex":
        raise SystemExit(f"driver: imported fqsimplex from {cli.__file__}, not from {SRC}")
    for q, d in workload.tables:
        PrimeField(q)
        domain.coords_matrix(q, d)
        domain.lengths_vector(q, d)
    return cli


def blas_info() -> dict:
    """BLAS library and the thread count it runs with in this process."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def call(cli, argv: list):
    """One CLI invocation: (exit status, stdout text, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), error


def run_ops(cli, ops, out_dir: Path, suffix: str, budget: float | None, tracer=None) -> list:
    """Run ``ops`` (an iterable of (seed, [argv...])) until ``budget`` seconds
    of op time have passed (all of them when ``budget`` is None); return
    [(seed, seconds, [(rc, error), ...]), ...]."""
    done = []
    busy = 0.0
    for i, (seed, argvs) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        outputs = []
        t0 = time.perf_counter()
        for argv in argvs:
            outputs.append(call(cli, argv))
        dt = time.perf_counter() - t0
        busy += dt
        for j, (_, text, _) in enumerate(outputs):
            (out_dir / f"{i}-{j}.{suffix}").write_text(text)
        done.append((seed, dt, [(rc, error) for rc, _, error in outputs]))
        if budget is not None and busy >= budget:
            break
    return done


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, op_seed

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cli = set_up(workload)
    ready = monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    ops = ((s, workload.op(s)) for s in map(functools.partial(op_seed, args.seed), itertools.count()))
    result = {"ready": ready, "machine": blas_info()}
    if not args.trace:
        done = run_ops(cli, ops, args.out, "out", args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        import tracer as tracing

        done = run_ops(cli, ops, args.out, "out", args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_ops(cli, [(seed, workload.op(seed)) for seed, _, _ in done],
                             args.out, "traced", None, tracer)
        finally:
            tracer.uninstall()
        untraced_s = sum(dt for _, dt, _ in done)
        traced_s = sum(dt for _, dt, _ in traced)
        result["layers"] = tracing.layer_metrics(tracer, len(done), untraced_s, traced_s)
        result["functions"] = {name: [v / len(done) for v in row] for name, row in tracer.stats().items()}
        result["spans"] = tracer.write_spans(args.out / "spans.jsonl")
        result["traced"] = [[dt, calls] for _, dt, calls in traced]
    result["ops"] = [[seed, dt, calls] for seed, dt, calls in done]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
