"""Self-tests of the benchmark: python -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import driver  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402

from fqsimplex import cli, counting, domain  # noqa: E402
from fqsimplex.counting import PointSet, count_isometric_copies  # noqa: E402
from fqsimplex.field import PrimeField  # noqa: E402
from fqsimplex.linalg import make_simplex  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL_COMMANDS = [
    "count --q 5 --d 3 --k 2 --set random --alpha 0.4 --seed 3",
    "random-experiment --q 5 --d 3 --k 1 --alpha 0.5 --trials 3 --threads 2 --seed 4",
    "verify-measures --q 7 --d 3 --seed 2",
    "verify-lemma --which 4.3 --q 5 --d 3 --k 2",
    "verify-lemma --which 4.1 --q 5 --d 4 --k 3 --samples 5 --seed 2",
    "charsum-audit --q-max 31",
    "verify-gauss --q 3 --d 2",
]


def test_traced_output_is_byte_identical():
    untraced = [driver.call(cli, c.split()) for c in SMALL_COMMANDS]
    original = domain.translate_values
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert domain.translate_values is not original
        traced = [driver.call(cli, c.split()) for c in SMALL_COMMANDS]
    finally:
        tracer.uninstall()
    assert domain.translate_values is original
    assert counting.span_mask.__module__ == "fqsimplex.measures"
    for c, a, b in zip(SMALL_COMMANDS, untraced, traced):
        assert a[0] == 0 and a[2] is None, c
        assert a == b, c
    stats = tracer.stats()
    assert stats["counting.count_isometric_copies"][0] == 4  # one count + three trials
    assert stats["cli.main"][0] == len(SMALL_COMMANDS)
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 1.0)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["domain.translate_values.calls"] > 0
    assert metrics["fourier.fourier_transform.calls"] > 0


def standard_simplex(field, d, k):
    pts = [[0] * d]
    for j in range(k):
        e = [0] * d
        e[j] = 1
        pts.append(e)
    return make_simplex(field, pts)


@pytest.mark.filterwarnings("ignore:d = .* the count may be degenerate")
@pytest.mark.parametrize("q,d,k,alpha", [(3, 2, 1, 0.6), (3, 3, 2, 0.7), (5, 3, 2, 0.5),
                                         (5, 4, 3, 0.3), (7, 3, 1, 0.4), (5, 3, 3, 1.0)])
def test_independent_counter_agrees_with_package(q, d, k, alpha):
    field = PrimeField(q)
    rng = np.random.default_rng(q * 100 + d * 10 + k)
    mask = rng.random(q ** d) < alpha
    report = count_isometric_copies(PointSet(q, d, mask), standard_simplex(field, d, k), field=field)
    assert checks.count_over_set(mask, q, d, checks.standard_gram(k)) == report.exact_count


def test_independent_counter_refuses_singular_gram():
    with pytest.raises(ValueError):
        checks.count_over_set(np.ones(25, dtype=bool), 5, 2, [[1, 2], [2, 4]])


def test_count_check_catches_a_wrong_count():
    argv = "count --q 5 --d 3 --k 2 --set random --alpha 0.4 --seed 3".split()
    rc, text, error = driver.call(cli, argv)
    assert checks.check_invocation(argv, rc, text, error, None) == []
    records = checks.parse_records(text)
    records[0]["exact_count"] += 2
    records[0]["unordered_count"] += 1
    bad = "".join(json.dumps(r) + "\n" for r in records)
    assert checks.check_invocation(argv, rc, bad, error, None)


def test_reference_compare_uses_tolerance():
    ref = [{"a": 1, "x": 0.5, "s": "t", "l": [1.0, 2]}]
    assert checks.compare([{"a": 1, "x": 0.5 + 1e-12, "s": "t", "l": [1.0, 2]}], ref) is None
    assert checks.compare([{"a": 1, "x": 0.5 + 1e-6, "s": "t", "l": [1.0, 2]}], ref)
    assert checks.compare([{"a": 2, "x": 0.5, "s": "t", "l": [1.0, 2]}], ref)
    assert checks.compare([{"a": 1, "x": 0.5, "s": "u", "l": [1.0, 2]}], ref)


def test_lemma_reference_covers_default_seed_invocations():
    reference = checks.load_reference()
    for argv in WORKLOADS["lemmas"].op(op_seed(1, 0)):
        assert checks.reference_key(argv) in reference


def test_op_seeds_are_deterministic_and_distinct():
    seeds = [op_seed(1, i) for i in range(50)]
    assert seeds == [op_seed(1, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert op_seed(2, 0) != op_seed(1, 0)


def test_names_and_benchmark_file_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_METRICS
    names = [w["name"] for w in bench["workloads"]] + list(run.E2E) + list(tracing.LAYER_METRICS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
