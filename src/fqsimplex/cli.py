"""Experiment orchestration CLI.

Every subcommand emits JSON lines: one record per check carrying
{check, params, value, bound, pass}, then a summary record.  Exit status is
0 exactly when every asserted bound passed, 1 when a bound failed (the
failing records carry "pass": false), and 2 on usage errors.  Output is
deterministic for a fixed configuration and seed.  --threads is still
accepted, for existing command lines, and has no effect: trials run
serially.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charsums import gauss_sum, quadratic_sum_closed_form, quadratic_sum_table, weil_bound_audit
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


@dataclass
class ExperimentConfig:
    q: int
    d: int
    k: Optional[int] = None
    r: Optional[int] = None
    simplex_literal: Optional[str] = None
    extremal: Optional[tuple] = None
    alpha: float = 0.3
    trials: int = 10
    seed: int = 0
    accept_constant: float = DEFAULT_ACCEPT
    tolerance: float = DEFAULT_TOLERANCE

    def field(self) -> PrimeField:
        return PrimeField(self.q)


def resolve_simplex(cfg: ExperimentConfig, field: PrimeField) -> Simplex:
    """Build the reference simplex from --simplex, --extremal, or --k/--r,
    embed it into F_q^d, and put it in prefix-rank order."""
    if cfg.simplex_literal is not None:
        s = simplex_from_json(field, cfg.simplex_literal)
        if s.d != cfg.d:
            raise ValueError(f"simplex lives in dimension {s.d}, expected {cfg.d}")
    elif cfg.extremal is not None:
        k, r = cfg.extremal
        s = embed_simplex(field, construct_extremal_simplex(field, k, r), cfg.d)
    elif cfg.k is not None:
        if cfg.r is None or cfg.r == cfg.k:
            s = standard_simplex(field, cfg.d, cfg.k)
        else:
            s = find_simplex_of_rank(field, cfg.d, cfg.k, cfg.r)
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
        text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_verify_gauss(cfg: ExperimentConfig) -> list:
    field = cfg.field()
    q, d = cfg.q, cfg.d
    tol = cfg.tolerance
    check_lemma_work(q, d, "verify-gauss")
    records = []
    g = gauss_sum(field)
    g_err = abs(abs(g) - math.sqrt(q)) / math.sqrt(q)
    records.append(record("gauss-modulus", {"q": q}, g_err, tol, g_err <= tol,
                          re=g.real, im=g.imag))
    table = quadratic_sum_table(field, d)
    for a in field.units():
        for b_idx, brute in enumerate(table[a - 1].tolist()):
            b = tuple((b_idx // q ** c) % q for c in range(d))
            closed = quadratic_sum_closed_form(field, a, b, g=g)
            rel = abs(closed - brute) / max(1.0, abs(brute))
            records.append(record("verify-gauss", {"q": q, "d": d, "a": a, "b": list(b)},
                                  rel, tol, rel <= tol))
    return records


def run_charsum_audit(q_max: int) -> list:
    records = []
    for row in weil_bound_audit(q_max):
        rec = record("charsum-audit", {"q": row.q}, row.ratio_to_sqrt_q, 2.0, row.passed)
        rec.update(row.to_dict())
        records.append(rec)
    return records


def run_verify_measures(cfg: ExperimentConfig, samples: int) -> list:
    field = cfg.field()
    records = []
    for rep in measure_suite(field, cfg.d, seed=cfg.seed, samples=samples):
        passed = rep["implied_constant"] <= cfg.accept_constant
        rec = record("verify-measures",
                     {"q": cfg.q, "d": cfg.d, "accept_constant": cfg.accept_constant},
                     rep["implied_constant"], rep["bound"], passed)
        rec.update(rep)
        records.append(rec)
    return records


def run_count(cfg: ExperimentConfig, set_mode: str) -> list:
    field = cfg.field()
    simplex = resolve_simplex(cfg, field)
    check_work(cfg.q, cfg.d, simplex.k)
    if set_mode == "full":
        A = PointSet.full(cfg.q, cfg.d)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        A = PointSet.random(cfg.q, cfg.d, cfg.alpha, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = count_isometric_copies(A, simplex, field=field)
    rec = record("count",
                 {"q": cfg.q, "d": cfg.d, "k": simplex.k, "set": set_mode, "seed": cfg.seed},
                 rep.exact_count, None, True)
    rec.update(rep.to_dict())
    return [rec]


def run_random_experiment(cfg: ExperimentConfig) -> list:
    field = cfg.field()
    simplex = resolve_simplex(cfg, field)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = random_set_experiment(field, simplex, cfg.alpha, cfg.trials, cfg.seed)
    params = {"q": cfg.q, "d": cfg.d, "k": simplex.k, "alpha": cfg.alpha,
              "trials": cfg.trials, "seed": cfg.seed}
    records = []
    for rep in reports:
        rec = record("random-experiment", {**params, "trial": rep.trial},
                     rep.normalized_error, cfg.accept_constant,
                     rep.normalized_error <= cfg.accept_constant)
        rec.update(rep.to_dict())
        records.append(rec)
    errs = [rep.normalized_error for rep in reports]
    records.append(summary_record("random-experiment", params, records,
                                  max_normalized_error=max(errs),
                                  mean_normalized_error=sum(errs) / len(errs),
                                  trials=cfg.trials))
    return records


def run_verify_lemma(cfg: ExperimentConfig, which: str, samples: int, j_opt: Optional[int]) -> list:
    field = cfg.field()
    simplex = resolve_simplex(cfg, field)
    k = simplex.k
    if samples < 1:
        raise ValueError("samples must be positive")
    records = []
    if which == "4.1":
        if k < 2:
            raise ValueError("the dependent-mass bound needs k >= 2")
        if j_opt is not None and not 2 <= j_opt <= k:
            raise ValueError("need 2 <= j <= k")
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        for i in range(samples):
            j = j_opt if j_opt is not None else 2 + int(rng.integers(k - 1))
            anchors = sample_anchor_tuple(field, simplex, j, rng)
            rep = verify_dependent_bound(field, simplex, j, anchors)
            rec = record("verify-lemma", {"which": which, "q": cfg.q, "d": cfg.d, "sample": i},
                         rep["value"], rep["bound"], rep["pass"])
            rec.update(rep)
            records.append(rec)
    elif which == "4.2":
        js = [j_opt] if j_opt is not None else list(range(1, k + 1))
        for j in js:
            check_lemma_work(cfg.q, cfg.d, which, j)
        for j in js:
            rep = verify_count_asymptotic(field, simplex, j)
            passed = rep["implied_constant"] <= cfg.accept_constant
            rec = record("verify-lemma", {"which": which, "q": cfg.q, "d": cfg.d,
                                          "accept_constant": cfg.accept_constant},
                         rep["implied_constant"], rep["bound"], passed)
            rec.update(rep)
            records.append(rec)
    else:
        j = j_opt if j_opt is not None else k
        n = cfg.q ** cfg.d
        if n <= 2048:
            xis = None
        else:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
            idxs = 1 + rng.permutation(n - 1)[:samples]
            xis = [tuple(int(ix // cfg.q ** c) % cfg.q for c in range(cfg.d)) for ix in idxs]
        rep = verify_error_lemma(field, simplex, j, xis)
        passed = rep["implied_constant"] <= cfg.accept_constant
        rec = record("verify-lemma", {"which": which, "q": cfg.q, "d": cfg.d,
                                      "accept_constant": cfg.accept_constant},
                     rep["implied_constant"], rep["bound"], passed)
        rec.update(rep)
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fqsimplex",
                                     description="verification experiments over F_q^d")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, simplex_opts=False, alpha=False, trials=False):
        p.add_argument("--q", type=int, required=True, help="odd prime modulus")
        p.add_argument("--d", type=int, default=2, help="ambient dimension")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (trials run serially)")
        p.add_argument("--accept-constant", type=float, default=DEFAULT_ACCEPT)
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
        p.add_argument("--out", default="-", help="output path (default: stdout)")
        p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        if simplex_opts:
            p.add_argument("--simplex", help="JSON array of points, e.g. [[0,0],[1,0]]")
            p.add_argument("--extremal", nargs=2, type=int, metavar=("K", "R"),
                           help="extremal simplex of size K and rank R")
            p.add_argument("--k", type=int, help="standard simplex size")
            p.add_argument("--r", type=int, help="target rank for --k")
        if alpha:
            p.add_argument("--alpha", type=float, default=0.3)
        if trials:
            p.add_argument("--trials", type=int, default=10)

    p = sub.add_parser("verify-gauss", help="closed-form quadratic sums vs direct summation")
    common(p)

    p = sub.add_parser("charsum-audit", help="normalized twisted-sum maxima per modulus")
    p.add_argument("--q-max", type=int, default=101)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    p = sub.add_parser("verify-measures", help="spectral decay of the simplex measures")
    common(p)
    p.add_argument("--samples", type=int, default=2, help="anchor samples per case")

    p = sub.add_parser("count", help="exact embedding count in a point set")
    common(p, simplex_opts=True, alpha=True)
    p.add_argument("--set", choices=("full", "random"), default="full")

    p = sub.add_parser("random-experiment", help="embedding statistics over random sets")
    common(p, simplex_opts=True, alpha=True, trials=True)

    p = sub.add_parser("verify-lemma", help="counting inequalities and asymptotics")
    common(p, simplex_opts=True)
    p.add_argument("--which", choices=("4.1", "4.2", "4.3"), required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--j", type=int, default=None,
                   help="step j: 2 <= j <= k for 4.1 and 4.3, 1 <= j <= k for 4.2")

    return parser


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig(
        q=args.q,
        d=args.d,
        k=getattr(args, "k", None),
        r=getattr(args, "r", None),
        simplex_literal=getattr(args, "simplex", None),
        extremal=tuple(args.extremal) if getattr(args, "extremal", None) else None,
        alpha=getattr(args, "alpha", 0.3),
        trials=getattr(args, "trials", 10),
        seed=args.seed,
        accept_constant=args.accept_constant,
        tolerance=args.tolerance,
    )
    if cfg.d < 1:
        raise ValueError("d must be at least 1")
    if cfg.k is not None and cfg.k < 1:
        raise ValueError("k must be at least 1")
    if cfg.r is not None and cfg.k is not None and not 0 <= cfg.r <= cfg.k:
        raise ValueError("need 0 <= r <= k")
    if not 0 < cfg.alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if cfg.trials < 1:
        raise ValueError("trials must be positive")
    if args.threads < 1:
        raise ValueError("threads must be positive")
    PrimeField(cfg.q)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "charsum-audit":
            records = run_charsum_audit(args.q_max)
            if not records:
                raise ValueError(f"no odd prime up to q-max = {args.q_max}: nothing to check")
            records.append(summary_record("charsum-audit", {"q_max": args.q_max}, records[:]))
            emit(records, args.out, args.format)
            return 0 if all(r["pass"] for r in records) else 1

        cfg = config_from_args(args)
        if args.command == "verify-gauss":
            records = run_verify_gauss(cfg)
        elif args.command == "verify-measures":
            records = run_verify_measures(cfg, args.samples)
        elif args.command == "count":
            records = run_count(cfg, args.set)
        elif args.command == "random-experiment":
            records = run_random_experiment(cfg)
        elif args.command == "verify-lemma":
            records = run_verify_lemma(cfg, args.which, args.samples, args.j)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        if not records or records[-1].get("check") != "summary":
            records.append(summary_record(args.command, {"q": cfg.q, "d": cfg.d}, records[:]))
        emit(records, args.out, args.format)
        return 0 if all(r["pass"] for r in records) else 1
    except (ValueError, ZeroDivisionError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
