import json
import os
import subprocess
import sys

import pytest

from fqsimplex import domain
from fqsimplex.cli import main

ENVELOPE = {"check", "params", "value", "bound", "pass"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    return code, records, out


def test_verify_gauss(capsys):
    code, records, _ = run_cli(capsys, "verify-gauss", "--q", "7", "--d", "2")
    assert code == 0
    assert records[-1]["check"] == "summary" and records[-1]["pass"]
    per_pair = [r for r in records if r["check"] == "verify-gauss"]
    assert len(per_pair) == 6 * 49  # one record per (a, b)
    for r in records:
        assert ENVELOPE <= set(r)


@pytest.mark.parametrize("q,d", [(7, 3), (11, 2)])
def test_verify_gauss_values_are_the_per_pair_closed_form(q, d, capsys):
    # the former loop, one (a, b) at a time in Python complex arithmetic;
    # the row-at-a-time run must report the same bits
    from fqsimplex.charsums import gauss_sum, quadratic_sum_closed_form, quadratic_sum_table
    from fqsimplex.field import PrimeField

    field = PrimeField(q)
    g = gauss_sum(field)
    table = quadratic_sum_table(field, d)
    want = []
    for a in field.units():
        for b_idx, brute in enumerate(table[a - 1].tolist()):
            b = domain.point_of(b_idx, q, d)
            closed = quadratic_sum_closed_form(field, a, b, g=g)
            want.append((a, list(b), abs(closed - brute) / max(1.0, abs(brute))))
    _, records, _ = run_cli(capsys, "verify-gauss", "--q", str(q), "--d", str(d))
    got = [(r["params"]["a"], r["params"]["b"], r["value"]) for r in records if r["check"] == "verify-gauss"]
    assert got == want


def test_charsum_audit(capsys):
    code, records, _ = run_cli(capsys, "charsum-audit", "--q-max", "31")
    assert code == 0
    rows = [r for r in records if r["check"] == "charsum-audit"]
    assert {r["q"] for r in rows} == {3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for r in rows:
        assert {"q", "n", "a", "b", "abs_value", "ratio_to_sqrt_q"} <= set(r)
        assert r["ratio_to_sqrt_q"] <= 2.0


def test_verify_measures_schema(capsys):
    code, records, _ = run_cli(capsys, "verify-measures", "--q", "5", "--d", "3", "--seed", "3")
    assert code == 0
    rows = [r for r in records if r["check"] == "verify-measures"]
    assert rows
    for r in rows:
        assert {"lemma", "q", "d", "j", "rank", "max_err", "bound", "implied_constant"} <= set(r)
        assert r["lemma"] in {"3.2", "3.3", "3.4", "3.5"}


def test_count_full_space(capsys):
    code, records, _ = run_cli(
        capsys, "count", "--q", "5", "--d", "3",
        "--simplex", "[[0,0,0],[1,0,0],[0,1,0]]", "--set", "full",
    )
    assert code == 0
    rec = records[0]
    assert rec["exact_count"] == 15000
    assert rec["value"] == rec["exact_count"]
    assert isinstance(rec["exact_count"], int)


def test_count_extremal_flag(capsys):
    code, records, _ = run_cli(
        capsys, "count", "--q", "5", "--d", "3", "--extremal", "2", "1", "--set", "full",
    )
    assert code == 0
    assert records[0]["rank"] == 1


def test_count_random_set(capsys):
    code, records, _ = run_cli(
        capsys, "count", "--q", "5", "--d", "3", "--k", "1",
        "--set", "random", "--alpha", "0.4", "--seed", "7",
    )
    assert code == 0
    assert 0 < records[0]["alpha"] < 1


def test_random_experiment_summary(capsys):
    code, records, _ = run_cli(
        capsys, "random-experiment", "--q", "7", "--d", "3", "--k", "1",
        "--alpha", "0.3", "--trials", "4", "--seed", "42",
    )
    assert code == 0
    summary = records[-1]
    assert summary["check"] == "summary"
    assert {"max_normalized_error", "mean_normalized_error", "trials"} <= set(summary)
    trials = [r for r in records if r["check"] == "random-experiment"]
    assert [r["trial"] for r in trials] == [0, 1, 2, 3]


def test_random_experiment_byte_identical_across_threads(tmp_path):
    base = [sys.executable, "-m", "fqsimplex", "random-experiment", "--q", "7", "--d", "3",
            "--k", "1", "--alpha", "0.3", "--trials", "4", "--seed", "42"]
    outputs = []
    for threads in ("1", "2", "8"):
        proc = subprocess.run(base + ["--threads", threads], capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_lemma_subcommands(capsys):
    for which in ("4.1", "4.2", "4.3"):
        code, records, _ = run_cli(
            capsys, "verify-lemma", "--which", which, "--q", "5", "--d", "3",
            "--k", "2", "--samples", "5", "--seed", "1",
        )
        assert code == 0, which
        rows = [r for r in records if r["check"] == "verify-lemma"]
        assert rows and all(r["lemma"] == which for r in rows)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "6", "--d", "2", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["random-experiment", "--q", "7", "--d", "3", "--k", "1", "--alpha", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# every option a subcommand accepts is one its run reads; these it does not
BASE_ARGV = {
    "verify-gauss": ["verify-gauss", "--q", "3", "--d", "2"],
    "verify-measures": ["verify-measures", "--q", "5", "--d", "3"],
    "count": ["count", "--q", "5", "--d", "3", "--k", "1"],
    "random-experiment": ["random-experiment", "--q", "5", "--d", "3", "--k", "1"],
    "verify-lemma": ["verify-lemma", "--which", "4.2", "--q", "5", "--d", "3", "--k", "2"],
}


@pytest.mark.parametrize("command,option,value", [
    ("verify-gauss", "--seed", "1"),
    ("verify-gauss", "--threads", "2"),
    ("verify-gauss", "--accept-constant", "3"),
    ("verify-measures", "--threads", "2"),
    ("verify-measures", "--tolerance", "1e-6"),
    ("count", "--threads", "2"),
    ("count", "--accept-constant", "3"),
    ("count", "--tolerance", "1e-6"),
    ("random-experiment", "--tolerance", "1e-6"),
    ("verify-lemma", "--threads", "2"),
    ("verify-lemma", "--tolerance", "1e-6"),
])
def test_option_the_run_does_not_read_is_a_usage_error(command, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option}" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-lemma", "--which", "4.1", "--q", "7", "--d", "4", "--k", "3", "--samples", "0"],
    ["charsum-audit", "--q-max", "2"],
])
def test_empty_run_is_a_usage_error(argv, capsys):
    # a run that checks nothing must not report a pass
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("which,j,message", [
    # no level-0 tuple is walked, so j = 0 would report S = 0 as a failure
    ("4.2", "0", "need 1 <= j <= k"),
    ("4.2", "3", "need 1 <= j <= k"),
    # anchors for j > k have no reference prefix to match
    ("4.1", "5", "need 2 <= j <= k"),
    ("4.1", "1", "need 2 <= j <= k"),
])
def test_lemma_step_out_of_range_is_a_usage_error(which, j, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", "--which", which, "--q", "5", "--d", "3", "--k", "2", "--j", j])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_count_that_cannot_finish_is_refused(capsys):
    # q^d = 7^9 is under the dense-storage cap, but the work estimate
    # 7^(2*9 - 1) = 2.3e14 is not: refused at once, before any set is drawn
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "7", "--d", "9", "--k", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2.33e+14" in captured.err


def test_count_whose_wrapped_copy_exceeds_the_memo_budget_is_refused(capsys):
    # (9973, 2, 1) is under the work cap (9973^3 = 9.9e11), but the wrapped
    # copy of its set, 9973 x 19945 bytes, is not under 64 MiB
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "9973", "--d", "2", "--k", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1.99e+08 bytes" in captured.err


@pytest.mark.parametrize("argv,estimate", [
    (["verify-lemma", "--which", "4.2", "--q", "13", "--d", "5", "--k", "3"], "2.33e+13"),
    (["verify-lemma", "--which", "4.3", "--q", "13", "--d", "5", "--k", "3"], "1.51e+15"),
    (["verify-gauss", "--q", "101", "--d", "3"], "1.06e+14"),
])
def test_lemma_run_that_cannot_finish_is_refused(argv, estimate, capsys):
    # refused before any walk or table, with the estimate in the message
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{estimate} exceeds the cap" in captured.err


def test_verify_measures_that_cannot_fit_is_refused(monkeypatch, capsys):
    # 3^16 = 4.3e7 points is under the dense-storage cap and its work
    # estimate under the work cap, but 72 bytes per point is not under the
    # memory cap: refused before any table is built
    def no_table(*args):
        raise AssertionError("built a table past the memory cap")

    monkeypatch.setattr(domain, "coords_matrix", no_table)
    monkeypatch.setattr(domain, "lengths_vector", no_table)
    with pytest.raises(SystemExit) as exc:
        main(["verify-measures", "--q", "3", "--d", "16"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3.1e+09 bytes exceeds the cap" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-measures", "--q", "5", "--d", "4"],
    ["verify-lemma", "--which", "4.1", "--q", "5", "--d", "4", "--k", "3", "--samples", "3"],
])
def test_runs_reading_only_digits_build_no_full_coordinate_table(argv, monkeypatch, capsys):
    # the anchors' coordinates are read from the digits of their flat
    # indices, and the lengths from the table of squares
    coords_matrix = domain.coords_matrix

    def partial_only(q, d):
        if d == 4:
            raise AssertionError(f"built coords_matrix({q}, {d})")
        return coords_matrix(q, d)

    domain.lengths_vector.cache_clear()
    monkeypatch.setattr(domain, "coords_matrix", partial_only)
    code, records, _ = run_cli(capsys, *argv)
    assert code == 0 and records[-1]["pass"]


@pytest.mark.parametrize("q", [32749, 40009])
def test_count_exact_beyond_int16_coordinates(q, capsys):
    # y = +-1 for every x: 2q ordered embeddings, on both sides of 2^15
    code, records, _ = run_cli(capsys, "count", "--q", str(q), "--d", "1", "--k", "1", "--set", "full")
    assert code == 0
    assert records[0]["exact_count"] == 2 * q
    assert records[0]["unordered_count"] == q


def test_bound_violation_exit_code(capsys):
    code = main(["verify-measures", "--q", "5", "--d", "3", "--accept-constant", "0.01"])
    out = capsys.readouterr().out
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert any(not r["pass"] for r in records)
    assert not records[-1]["pass"]


def test_out_file_and_csv(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code = main(["count", "--q", "5", "--d", "3", "--k", "1", "--set", "full",
                 "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert json.loads(lines[0])["check"] == "count"

    csv_path = tmp_path / "report.csv"
    code = main(["count", "--q", "5", "--d", "3", "--k", "1", "--set", "full",
                 "--out", str(csv_path), "--format", "csv"])
    assert code == 0
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("check,")
    assert len(text) == 3  # header + record + summary


def test_threads_env_fallback(tmp_path):
    base = [sys.executable, "-m", "fqsimplex", "random-experiment", "--q", "7", "--d", "3",
            "--k", "1", "--alpha", "0.3", "--trials", "3", "--seed", "5"]
    env = dict(os.environ, FQSIMPLEX_THREADS="3")
    with_env = subprocess.run(base, capture_output=True, check=True, env=env)
    plain = subprocess.run(base, capture_output=True, check=True)
    assert with_env.stdout == plain.stdout


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process: a call with non-default flags
    # and a usage error must leave the next call's defaults as they were
    code = main(["count", "--q", "5", "--d", "3", "--k", "1", "--set", "random",
                 "--alpha", "0.5", "--format", "csv"])
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "5", "--d", "3", "--k", "1", "--alpha", "1.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["count", "--q", "5", "--d", "3", "--k", "1", "--set", "random"]
    assert main(argv) == 0
    fresh = subprocess.run([sys.executable, "-m", "fqsimplex"] + argv, capture_output=True, check=True, text=True)
    assert capsys.readouterr().out == fresh.stdout
