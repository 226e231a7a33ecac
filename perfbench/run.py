"""fqsimplex benchmark: end-to-end timings of CLI workloads, or a traced run
that reports time and counts per package layer.

    python3 perfbench/run.py --workload trials-k2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seed

Workloads are defined in ``workloads.py``.  For one run this script

1. times ``SETUP_PROBES`` fresh set-up processes (interpreter start, package
   import, field and domain tables for the workload);
2. starts one fresh driver process (``driver.py``), which sets up the same
   way and then issues ops for ``--seconds`` seconds of op time;
3. checks every op's output (``checks.py``) after the driver has ended;
4. prints a human-readable report, a provenance line, and as the last line
   one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones in ``E2E``; with
``--trace 1`` they are the per-layer ones in ``tracer.LAYER_METRICS``, and
the spans of the traced ops are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Exit status: 0 when a result was printed (even if some op failed its check;
``failed`` says so), 1 when the run could not be completed, 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS  # noqa: E402

RUN_SECONDS = 30
SETUP_PROBES = 8
# Every run must end within 180 s; leave room for the checks.
DEADLINE_S = 165
# op_s.p90 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

E2E = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fqsimplex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(machine: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **machine,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def driver_cmd(workload: str, *extra: str) -> list:
    return [sys.executable, str(HERE / "driver.py"), "--workload", workload, *extra]


def run_driver(cmd: list, deadline: float) -> tuple:
    """Run a driver process to completion; (start time, its JSON result)."""
    start = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"driver did not finish in time: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"driver exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def check_ops(workload, ops: list, out_dir: Path) -> tuple:
    """(number of failed ops, problems) for the untraced ops."""
    reference = checks.load_reference() if workload.name == "lemmas" else None
    failed, problems = 0, []
    for i, (seed, _, calls) in enumerate(ops):
        found = []
        for j, (argv, (rc, error)) in enumerate(zip(workload.op(seed), calls)):
            text = (out_dir / f"{i}-{j}.out").read_text()
            found += checks.check_invocation(argv, rc, text, error, reference)
        if found:
            failed += 1
            problems += [f"op {i} (seed {seed}): {p}" for p in found]
    return failed, problems


def check_traced(ops: list, traced: list, out_dir: Path) -> tuple:
    """A traced op fails unless its output and status equal the untraced op's."""
    failed, problems = 0, []
    for i, ((_, _, calls), (_, traced_calls)) in enumerate(zip(ops, traced)):
        same = calls == traced_calls and all(
            (out_dir / f"{i}-{j}.out").read_bytes() == (out_dir / f"{i}-{j}.traced").read_bytes()
            for j in range(len(calls)))
        if not same:
            failed += 1
            problems.append(f"traced op {i}: output differs from the untraced run")
    return failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple:
    """(result object, report lines, provenance) of one run."""
    workload = WORKLOADS[name]
    setup = []
    for _ in range(SETUP_PROBES):
        start, res = run_driver(driver_cmd(name, "--setup-only"), deadline)
        setup.append(res["ready"] - start)

    out_dir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        start, res = run_driver(driver_cmd(name, "--seed", str(seed), "--seconds", str(seconds),
                                           "--trace", str(int(trace)), "--out", str(out_dir)), deadline)
        setup.append(res["ready"] - start)
        ops = res["ops"]
        failed, problems = check_ops(workload, ops, out_dir)
        attempted = len(ops)
        if trace:
            t_failed, t_problems = check_traced(ops, res["traced"], out_dir)
            failed += t_failed
            problems += t_problems
            attempted += len(res["traced"])
            spans = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.jsonl"
            (out_dir / "spans.jsonl").replace(spans)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    lat = [dt for _, dt, _ in ops]
    lines = [f"workload {name}  seed {seed}  ops {len(ops)}  op time {sum(lat):.2f} s",
             f"  setup samples (s): {' '.join(f'{s:.4f}' for s in setup)}",
             f"  op latencies (s): {' '.join(f'{x:.3f}' for x in lat)}",
             f"  fail_ratio: {failed}/{attempted} = {failed / attempted:.3f}"]
    lines += [f"  FAILED {p}" for p in problems[:20]]
    if trace:
        metrics = res["layers"]
        units = tracing.LAYER_METRICS
        lines += layer_report(res, spans)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(lat) / sum(lat),
            "op_s.p50": statistics.median(lat),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
        units = E2E
        beyond = len(lat) - int(0.9 * len(lat))
        if beyond >= TAIL_SAMPLES:
            p90 = statistics.quantiles(lat, n=10)[-1]
            lines.append(f"  op_s.p90 = {p90:.4f} s ({beyond} samples beyond it)")
        else:
            lines.append(f"  op_s.p90 omitted: {beyond} samples beyond it, need {TAIL_SAMPLES}")
    lines += [f"  {m} = {metrics[m]:.6g} {units[m]}" for m in units]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return result, lines, provenance(res["machine"])


def layer_report(res: dict, spans: Path) -> list:
    layers, functions = res["layers"], res["functions"]
    wall = layers["trace.traced_op_s"]
    lines = [f"  traced op {wall:.3f} s, untraced op {layers['trace.untraced_op_s']:.3f} s, "
             f"overhead {layers['trace.overhead_s']:+.3f} s per op; {res['spans']} spans in {spans.name}",
             # With --threads 2 two threads are busy at once, so shares can sum past 100%.
             f"  busy thread time {sum(row[2] for row in functions.values()):.3f} s per op",
             "  layer       self s/op  share of wall  calls/op"]
    for m in tracing.MODULES:
        calls = sum(row[0] for name, row in functions.items() if name.split(".")[0] == m)
        self_s = layers[f"{m}.self_s"]
        lines.append(f"  {m:<10} {self_s:10.4f} {self_s / wall:13.1%} {calls:9.0f}")
    lines.append("  top functions by self time:  calls/op  incl s/op  self s/op  share")
    top = sorted(functions.items(), key=lambda kv: -kv[1][2])[:12]
    for name, (calls, incl, self_s) in top:
        lines.append(f"  {name:<40} {calls:9.0f} {incl:10.4f} {self_s:10.4f} {self_s / wall:6.1%}")
    return lines


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS, help="op time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills the driver it waits for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fqsimplex" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            result, lines, prov = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            print("\n".join(lines))
            print("provenance " + json.dumps(prov, sort_keys=True))
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
