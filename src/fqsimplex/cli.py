"""Experiment orchestration CLI.

Every subcommand emits JSON lines: one record per check carrying
{check, params, value, bound, pass}, then a summary record.  Exit status is
0 exactly when every asserted bound passed, 1 when a bound failed (the
failing records carry "pass": false), and 2 on usage errors.  Output is
deterministic for a fixed configuration and seed.  A subcommand accepts
only the options its run reads, with one exception: random-experiment still
accepts --threads, for existing command lines, and it has no effect: trials
run serially.

The argparse namespace is the configuration: every run_* function takes it
as is, and each subparser names its runner with set_defaults(run=...).
check_args makes the range checks argparse cannot.  The parser is built
once, at import, and parse_args keeps no state between calls.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from . import domain
from .charsums import (
    WEIL_CONSTANT,
    gauss_sum,
    quadratic_sum_table,
    weil_bound_audit,
)
from .counting import (
    PointSet,
    check_lemma_work,
    check_work,
    count_isometric_copies,
    random_set_experiment,
    verify_count_asymptotic,
    verify_dependent_bound,
    verify_error_lemma,
)
from .field import PrimeField
from .linalg import (
    Simplex,
    construct_extremal_simplex,
    embed_simplex,
    find_simplex_of_rank,
    reorder_for_prefix_ranks,
    simplex_from_json,
    standard_simplex,
)
from .measures import measure_suite, sample_anchor_tuple

DEFAULT_ACCEPT = 3.0
DEFAULT_TOLERANCE = 1e-9
# The one encoder of JSONL records: json.dumps with these separators
# would build a new encoder for every record.
JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"))


def resolve_simplex(args, field: PrimeField) -> Simplex:
    """Build the reference simplex from --simplex, --extremal, or --k/--r,
    embed it into F_q^d, and put it in prefix-rank order."""
    if args.simplex is not None:
        s = simplex_from_json(field, args.simplex)
        if s.d != args.d:
            raise ValueError(f"simplex lives in dimension {s.d}, expected {args.d}")
    elif args.extremal is not None:
        k, r = args.extremal
        s = embed_simplex(field, construct_extremal_simplex(field, k, r), args.d)
    elif args.k is not None:
        if args.r is None or args.r == args.k:
            s = standard_simplex(field, args.d, args.k)
        else:
            s = find_simplex_of_rank(field, args.d, args.k, args.r)
    else:
        raise ValueError("no simplex given: use --simplex, --extremal, or --k")
    return reorder_for_prefix_ranks(field, s)


# ---------------------------------------------------------------------------
# record plumbing
# ---------------------------------------------------------------------------

def record(check: str, params: dict, value, bound, passed: bool, **extra) -> dict:
    out = {"check": check, "params": params, "value": value, "bound": bound, "pass": bool(passed)}
    out.update(extra)
    return out


def summary_record(check: str, params: dict, records: list, **extra) -> dict:
    all_pass = all(r["pass"] for r in records)
    out = {
        "check": "summary",
        "params": {"of": check, **params},
        "value": sum(1 for r in records if not r["pass"]),
        "bound": 0,
        "pass": all_pass,
        "records": len(records),
    }
    out.update(extra)
    return out


def emit(records: list, out_path: Optional[str], fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        keys: list = []
        for r in records:
            for key in r:
                if key not in keys:
                    keys.append(key)
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in records:
            writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list)) else v for k, v in r.items()})
        text = buf.getvalue()
    else:
        text = "".join(JSONL_ENCODER.encode(r) + "\n" for r in records)
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_verify_gauss(args) -> list:
    field = PrimeField(args.q)
    q, d = args.q, args.d
    tol = args.tolerance
    check_lemma_work(q, d, "verify-gauss")
    records = []
    g = gauss_sum(field)
    g_err = abs(abs(g) - math.sqrt(q)) / math.sqrt(q)
    records.append(record("gauss-modulus", {"q": q}, g_err, tol, g_err <= tol,
                          re=g.real, im=g.imag))
    table = quadratic_sum_table(field, d)
    bs = domain.coords_matrix(q, d).tolist()
    lengths = domain.lengths_vector(q, d).astype(np.int64)
    for a in field.units():
        # quadratic_sum_closed_form's product, one value per argument -|b|^2/4a
        scale = (g ** d) * (field.eta(a) ** d)
        closed = np.array([scale * field.chi(k) for k in range(q)])
        closed = closed[-lengths * field.inv((4 * a) % q) % q]
        brute = table[a - 1]
        # np.hypot rounds as Python's abs(complex) does; np.abs does not
        diff = closed - brute
        rel = np.hypot(diff.real, diff.imag) / np.maximum(1.0, np.hypot(brute.real, brute.imag))
        for b, err in zip(bs, rel.tolist()):
            records.append(record("verify-gauss", {"q": q, "d": d, "a": a, "b": b},
                                  err, tol, err <= tol))
    return records


def run_charsum_audit(args) -> list:
    records = []
    for row in weil_bound_audit(args.q_max):
        rec = record("charsum-audit", {"q": row.q}, row.ratio_to_sqrt_q, WEIL_CONSTANT, row.passed)
        rec.update(row.to_dict())
        records.append(rec)
    if not records:
        raise ValueError(f"no odd prime up to q-max = {args.q_max}: nothing to check")
    records.append(summary_record("charsum-audit", {"q_max": args.q_max}, records[:]))
    return records


def run_verify_measures(args) -> list:
    field = PrimeField(args.q)
    check_lemma_work(args.q, args.d, "verify-measures", samples=args.samples)
    records = []
    for rep in measure_suite(field, args.d, seed=args.seed, samples=args.samples):
        passed = rep["implied_constant"] <= args.accept_constant
        rec = record("verify-measures",
                     {"q": args.q, "d": args.d, "accept_constant": args.accept_constant},
                     rep["implied_constant"], rep["bound"], passed)
        rec.update(rep)
        records.append(rec)
    return records


def run_count(args) -> list:
    field = PrimeField(args.q)
    simplex = resolve_simplex(args, field)
    check_work(args.q, args.d, simplex.k)
    if args.set == "full":
        A = PointSet.full(args.q, args.d)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        A = PointSet.random(args.q, args.d, args.alpha, rng)
    rep = count_isometric_copies(A, simplex, field=field)
    rec = record("count",
                 {"q": args.q, "d": args.d, "k": simplex.k, "set": args.set, "seed": args.seed},
                 rep.exact_count, None, True)
    rec.update(rep.to_dict())
    return [rec]


def run_random_experiment(args) -> list:
    field = PrimeField(args.q)
    simplex = resolve_simplex(args, field)
    reports = random_set_experiment(field, simplex, args.alpha, args.trials, args.seed)
    params = {"q": args.q, "d": args.d, "k": simplex.k, "alpha": args.alpha,
              "trials": args.trials, "seed": args.seed}
    records = []
    for rep in reports:
        rec = record("random-experiment", {**params, "trial": rep.trial},
                     rep.normalized_error, args.accept_constant,
                     rep.normalized_error <= args.accept_constant)
        rec.update(rep.to_dict())
        records.append(rec)
    errs = [rep.normalized_error for rep in reports]
    records.append(summary_record("random-experiment", params, records,
                                  max_normalized_error=max(errs),
                                  mean_normalized_error=sum(errs) / len(errs),
                                  trials=args.trials))
    return records


def run_verify_lemma(args) -> list:
    field = PrimeField(args.q)
    simplex = resolve_simplex(args, field)
    k, which, j_opt = simplex.k, args.which, args.j
    if args.samples < 1:
        raise ValueError("samples must be positive")
    records = []
    if which == "4.1":
        if k < 2:
            raise ValueError("the dependent-mass bound needs k >= 2")
        if j_opt is not None and not 2 <= j_opt <= k:
            raise ValueError("need 2 <= j <= k")
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        for i in range(args.samples):
            j = j_opt if j_opt is not None else 2 + int(rng.integers(k - 1))
            anchors = sample_anchor_tuple(field, simplex, j, rng)
            rep = verify_dependent_bound(field, simplex, j, anchors)
            rec = record("verify-lemma", {"which": which, "q": args.q, "d": args.d, "sample": i},
                         rep["value"], rep["bound"], rep["pass"])
            rec.update(rep)
            records.append(rec)
    elif which == "4.2":
        js = [j_opt] if j_opt is not None else list(range(1, k + 1))
        for j in js:
            check_lemma_work(args.q, args.d, which, j)
        for j in js:
            rep = verify_count_asymptotic(field, simplex, j)
            passed = rep["implied_constant"] <= args.accept_constant
            rec = record("verify-lemma", {"which": which, "q": args.q, "d": args.d,
                                          "accept_constant": args.accept_constant},
                         rep["implied_constant"], rep["bound"], passed)
            rec.update(rep)
            records.append(rec)
    else:
        j = j_opt if j_opt is not None else k
        n = args.q ** args.d
        if n <= 2048:
            xis = None
        else:
            rng = np.random.default_rng(np.random.SeedSequence(args.seed))
            idxs = 1 + rng.permutation(n - 1)[:args.samples]
            xis = [domain.point_of(int(ix), args.q, args.d) for ix in idxs]
        rep = verify_error_lemma(field, simplex, j, xis)
        passed = rep["implied_constant"] <= args.accept_constant
        rec = record("verify-lemma", {"which": which, "q": args.q, "d": args.d,
                                      "accept_constant": args.accept_constant},
                     rep["implied_constant"], rep["bound"], passed)
        rec.update(rep)
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The fqsimplex parser.  Each subcommand takes exactly the options its
    run_* reads: the shared ones it names from shared, then its own."""
    parser = argparse.ArgumentParser(prog="fqsimplex",
                                     description="verification experiments over F_q^d")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--q": dict(type=int, required=True, help="odd prime modulus"),
        "--d": dict(type=int, default=2, help="ambient dimension"),
        "--simplex": dict(help="JSON array of points, e.g. [[0,0],[1,0]]"),
        "--extremal": dict(nargs=2, type=int, metavar=("K", "R"),
                           help="extremal simplex of size K and rank R"),
        "--k": dict(type=int, help="standard simplex size"),
        "--r": dict(type=int, help="target rank for --k"),
        "--seed": dict(type=int, default=0),
        "--threads": dict(type=int, default=1,
                          help="has no effect (trials run serially); kept so existing "
                               "command lines still parse"),
        "--accept-constant": dict(type=float, default=DEFAULT_ACCEPT),
        "--tolerance": dict(type=float, default=DEFAULT_TOLERANCE),
        "--alpha": dict(type=float, default=0.3),
        "--out": dict(default="-", help="output path (default: stdout)"),
        "--format": dict(choices=("jsonl", "csv"), default="jsonl"),
    }
    simplex = ("--simplex", "--extremal", "--k", "--r")

    def add(name, run, help, *opts):
        p = sub.add_parser(name, help=help)
        for opt in opts + ("--out", "--format"):
            p.add_argument(opt, **shared[opt])
        p.set_defaults(run=run)
        return p

    add("verify-gauss", run_verify_gauss, "closed-form quadratic sums vs direct summation",
        "--q", "--d", "--tolerance")

    p = add("charsum-audit", run_charsum_audit, "normalized twisted-sum maxima per modulus")
    p.add_argument("--q-max", type=int, default=101)

    p = add("verify-measures", run_verify_measures, "spectral decay of the simplex measures",
            "--q", "--d", "--seed", "--accept-constant")
    p.add_argument("--samples", type=int, default=2, help="anchor samples per case")

    p = add("count", run_count, "exact embedding count in a point set",
            "--q", "--d", *simplex, "--seed", "--alpha")
    p.add_argument("--set", choices=("full", "random"), default="full")

    p = add("random-experiment", run_random_experiment, "embedding statistics over random sets",
            "--q", "--d", *simplex, "--seed", "--threads", "--accept-constant", "--alpha")
    p.add_argument("--trials", type=int, default=10)

    p = add("verify-lemma", run_verify_lemma, "counting inequalities and asymptotics",
            "--q", "--d", *simplex, "--seed", "--accept-constant")
    p.add_argument("--which", choices=("4.1", "4.2", "4.3"), required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--j", type=int, default=None,
                   help="step j: 2 <= j <= k for 4.1 and 4.3, 1 <= j <= k for 4.2")

    return parser


PARSER = build_parser()


def check_args(args) -> None:
    """The range checks argparse cannot make, first failure first.  An
    option a subcommand lacks passes.
    --q is checked after these, by the PrimeField each runner builds first."""
    opts = vars(args)
    k, r = opts.get("k"), opts.get("r")
    if opts.get("d", 1) < 1:
        raise ValueError("d must be at least 1")
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    if r is not None and k is not None and not 0 <= r <= k:
        raise ValueError("need 0 <= r <= k")
    if not 0 < opts.get("alpha", 1) <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if opts.get("trials", 1) < 1:
        raise ValueError("trials must be positive")
    if opts.get("threads", 1) < 1:
        raise ValueError("threads must be positive")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        check_args(args)
        records = args.run(args)
        if not records or records[-1]["check"] != "summary":
            records.append(summary_record(args.command, {"q": args.q, "d": args.d}, records[:]))
        emit(records, args.out, args.format)
        return 0 if all(r["pass"] for r in records) else 1
    except (ValueError, ZeroDivisionError) as exc:
        PARSER.exit(2, f"{PARSER.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
