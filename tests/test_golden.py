"""Seeded CLI outputs pinned byte for byte.

Each command's JSONL stdout is stored in tests/golden/<name>.jsonl.  These
files record the outputs the tool is meant to keep: regenerate them only
when a change is meant to alter outputs, with

    PYTHONPATH=src python tests/test_golden.py

and say in the change which outputs moved and why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from fqsimplex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RANDOM = ("--set", "random")
COMMANDS = {
    "count_5_4_3_s11_a01": ("count", "--q", "5", "--d", "4", "--k", "3", *RANDOM,
                            "--alpha", "0.1", "--seed", "11"),
    "count_5_4_3_s11_a09": ("count", "--q", "5", "--d", "4", "--k", "3", *RANDOM,
                            "--alpha", "0.9", "--seed", "11"),
    "count_5_4_3_s12_a01": ("count", "--q", "5", "--d", "4", "--k", "3", *RANDOM,
                            "--alpha", "0.1", "--seed", "12"),
    "count_5_4_3_s12_a09": ("count", "--q", "5", "--d", "4", "--k", "3", *RANDOM,
                            "--alpha", "0.9", "--seed", "12"),
    "count_7_4_2_random": ("count", "--q", "7", "--d", "4", "--k", "2", *RANDOM),
    "count_5_4_3_r2": ("count", "--q", "5", "--d", "4", "--k", "3", "--r", "2", *RANDOM,
                       "--alpha", "0.5", "--seed", "3"),
    "count_5_4_2_r1": ("count", "--q", "5", "--d", "4", "--k", "2", "--r", "1", *RANDOM,
                       "--alpha", "0.5", "--seed", "3"),
    "count_5_3_extremal_2_1": ("count", "--q", "5", "--d", "3", "--extremal", "2", "1", *RANDOM,
                               "--alpha", "0.4", "--seed", "7"),
    "count_40009_1_1_full": ("count", "--q", "40009", "--d", "1", "--k", "1", "--set", "full"),
    "random_experiment_5_3_2": ("random-experiment", "--q", "5", "--d", "3", "--k", "2",
                                "--trials", "3"),
    "random_experiment_7_4_2": ("random-experiment", "--q", "7", "--d", "4", "--k", "2",
                                "--alpha", "0.3", "--trials", "3", "--seed", "1"),
    "count_11_4_2_random": ("count", "--q", "11", "--d", "4", "--k", "2", *RANDOM,
                            "--alpha", "0.3", "--seed", "1"),
    # Lemma commands whose arithmetic never reaches a BLAS gemm, so their
    # bits do not depend on the CPU's kernels.  Lemma 4.3, verify-measures
    # and charsum-audit go through zgemm and are not pinned here.
    "verify_gauss_5_2": ("verify-gauss", "--q", "5", "--d", "2"),
    "verify_gauss_3_4": ("verify-gauss", "--q", "3", "--d", "4"),
    "verify_lemma_42_5_4_3": ("verify-lemma", "--which", "4.2", "--q", "5", "--d", "4", "--k", "3"),
    "verify_lemma_41_7_4_3_s5": ("verify-lemma", "--which", "4.1", "--q", "7", "--d", "4", "--k", "3",
                                 "--seed", "5"),
}


def run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    code, text = run(COMMANDS[name])
    assert code == 0
    assert text == (GOLDEN / f"{name}.jsonl").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        code, text = run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.jsonl").write_text(text)
