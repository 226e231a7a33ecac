"""Output checks for benchmark ops, run outside the timed region.

Every CLI invocation must exit 0 and every record must carry
``"pass": true``.  Count records are recomputed by ``count_over_set``, a
counter that lives here and shares no code with the package: it counts
tuples of points of A with given pairwise squared distances instead of
walking the support of the reference simplex over the whole domain.  Lemma
records are compared with reference values recorded from the package (see
``make_reference.py``): integers and strings exactly, floats within the
CLI's default tolerance.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference" / "lemmas.json.gz"
TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# the independent counter
# ---------------------------------------------------------------------------

def standard_gram(k: int) -> np.ndarray:
    """Gram matrix of the difference vectors of {0, e_1, ..., e_k}."""
    return np.eye(k, dtype=np.int64)


def set_points(mask: np.ndarray, q: int, d: int) -> np.ndarray:
    """(|A|, d) coordinates of the members of A; flat index = sum_c x_c q^c."""
    idx = np.nonzero(mask)[0].astype(np.int64)
    return (idx[:, None] // (q ** np.arange(d, dtype=np.int64))[None, :]) % q


def count_over_set(mask: np.ndarray, q: int, d: int, gram: np.ndarray) -> int:
    """Ordered tuples (x, y_1..y_k) with x and every x + y_i in A and
    y_i . y_j = gram[i][j] mod q.

    Written as a count of ordered (k+1)-tuples of points of A with given
    pairwise squared distances: with p_0 = x and p_i = x + y_i, q odd,
    y_i . y_j = (|p_i - p_0|^2 + |p_j - p_0|^2 - |p_i - p_j|^2) / 2.  The
    work grows with |A|, never with q^d.  The Gram matrix must be
    nonsingular mod q; then every matching tuple is linearly independent and
    no separate independence test is needed.
    """
    gram = np.asarray(gram, dtype=np.int64) % q
    k = gram.shape[0]
    if round(np.linalg.det(gram.astype(float))) % q == 0:
        raise ValueError("reference Gram matrix is singular mod q")
    pts = set_points(mask, q, d)
    n = len(pts)
    sq = (pts * pts).sum(axis=1)
    dist = (sq[:, None] + sq[None, :] - 2 * (pts @ pts.T)) % q
    lengths = np.concatenate([[0], np.diag(gram)])
    target = (lengths[:, None] + lengths[None, :]) % q
    target[1:, 1:] = (target[1:, 1:] - 2 * gram) % q

    def edge(i: int, j: int) -> np.ndarray:
        return dist == target[i, j]

    def allowed(prefix: list, pos: int) -> np.ndarray:
        ok = np.ones(n, dtype=bool)
        for i, p in enumerate(prefix):
            ok &= edge(i, pos)[p]
        return ok

    def count(prefix: list) -> int:
        m = len(prefix)
        if m + 2 < k:
            return sum(count(prefix + [p]) for p in np.nonzero(allowed(prefix, m))[0])
        # Positions m, k-1 and k remain (m = k - 2): the last two through one
        # exact float product of 0/1 matrices, entries at most |A|.
        rows = allowed(prefix, m)
        u = edge(m, k - 1)[rows] & allowed(prefix, k - 1)
        w = edge(m, k)[rows] & allowed(prefix, k)
        return int(round(float(((u.astype(float) @ edge(k - 1, k).astype(float)) * w).sum())))

    if k == 1:
        return int(np.count_nonzero(edge(0, 1)))
    return count([])


# ---------------------------------------------------------------------------
# record checks
# ---------------------------------------------------------------------------

def parse_records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _flag(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_count_record(rec: dict, mask: np.ndarray, q: int, d: int, k: int, where: str) -> list:
    problems = []
    if rec["exact_count"] != rec["unordered_count"] * rec["symmetry_factor"]:
        problems.append(f"{where}: exact_count != unordered_count * symmetry_factor")
    if rec["set_size"] != int(np.count_nonzero(mask)):
        problems.append(f"{where}: set_size {rec['set_size']} does not match the regenerated set")
        return problems
    expected = count_over_set(mask, q, d, standard_gram(k))
    if rec["exact_count"] != expected:
        problems.append(f"{where}: exact_count {rec['exact_count']} != independent count {expected}")
    return problems


def check_count(argv: list, records: list) -> list:
    q, d, k = int(_flag(argv, "--q")), int(_flag(argv, "--d")), int(_flag(argv, "--k"))
    seed, alpha = int(_flag(argv, "--seed", 0)), float(_flag(argv, "--alpha", 0.3))
    rows = [r for r in records if r["check"] == "count"]
    if len(rows) != 1:
        return [f"count: expected one count record, got {len(rows)}"]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mask = rng.random(q ** d) < alpha
    return _check_count_record(rows[0], mask, q, d, k, "count")


def check_random_experiment(argv: list, records: list) -> list:
    q, d, k = int(_flag(argv, "--q")), int(_flag(argv, "--d")), int(_flag(argv, "--k"))
    seed, alpha = int(_flag(argv, "--seed", 0)), float(_flag(argv, "--alpha", 0.3))
    trials = int(_flag(argv, "--trials", 10))
    rows = [r for r in records if r["check"] == "random-experiment"]
    if [r.get("trial") for r in rows] != list(range(trials)):
        return [f"random-experiment: expected trials 0..{trials - 1} in order"]
    children = np.random.SeedSequence(seed).spawn(trials)
    problems = []
    for i, rec in enumerate(rows):
        mask = np.random.default_rng(children[i]).random(q ** d) < alpha
        problems += _check_count_record(rec, mask, q, d, k, f"random-experiment trial {i}")
    return problems


def rounded(value):
    """A float as stored in the reference: error far below TOLERANCE."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return round(value, 11) if abs(value) < 1 else float(f"{value:.13g}")
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


def compare(got, ref, path: str = "") -> str | None:
    """First difference between a record tree and its reference, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or list(got) != list(ref):
            return f"{path}: keys differ"
        for key in ref:
            diff = compare(got[key], ref[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            diff = compare(g, r, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - ref) <= TOLERANCE * max(1.0, abs(ref)):
            return None
        return f"{path}: {got!r} != reference {ref!r}"
    if type(got) is not type(ref) or got != ref:
        return f"{path}: {got!r} != reference {ref!r}"
    return None


def load_reference() -> dict:
    with gzip.open(REFERENCE, "rt") as fh:
        return json.load(fh)


def reference_key(argv: list) -> str:
    return " ".join(argv)


def _check_seeded_lemma(argv: list, records: list) -> list:
    """Consistency checks for seeded lemma records with no stored reference."""
    problems = []
    for i, rec in enumerate(records[:-1]):
        where = f"{reference_key(argv)} record {i}"
        if argv[0] == "verify-measures":
            ic = rec["implied_constant"]
            if rec["value"] != ic or abs(ic - rec["max_err"] / rec["bound"]) > TOLERANCE * max(1.0, ic):
                problems.append(f"{where}: implied_constant is not max_err / bound")
        elif argv[0] == "verify-lemma":
            if not (isinstance(rec["value"], int) and 0 <= rec["value"] <= rec["bound"]):
                problems.append(f"{where}: dependent mass {rec['value']} not within bound {rec['bound']}")
            if rec["bound"] != int(argv[argv.index("--q") + 1]) ** (2 * rec["j"] - 1 - rec["rank"]):
                problems.append(f"{where}: bound is not q^(2j-1-rank)")
    return problems


def check_lemma(argv: list, records: list, reference: dict) -> list:
    ref = reference.get(reference_key(argv))
    if ref is None:
        if "--seed" in argv:
            return _check_seeded_lemma(argv, records)
        return [f"{reference_key(argv)}: no reference recorded"]
    diff = compare(records, ref, reference_key(argv))
    return [diff] if diff else []


def check_invocation(argv: list, rc, text: str, error: str | None, reference: dict | None) -> list:
    """Problems found in one CLI invocation's result; empty when it is correct."""
    where = reference_key(argv)
    if error:
        return [f"{where}: raised {error}"]
    if rc != 0:
        return [f"{where}: exit status {rc}"]
    try:
        records = parse_records(text)
    except json.JSONDecodeError as exc:
        return [f"{where}: output is not JSON lines ({exc})"]
    if not records or records[-1].get("check") != "summary":
        return [f"{where}: no summary record"]
    failing = [i for i, r in enumerate(records) if r.get("pass") is not True]
    if failing:
        return [f"{where}: {len(failing)} record(s) without pass=true, first #{failing[0]}"]
    if argv[0] == "count":
        return check_count(argv, records)
    if argv[0] == "random-experiment":
        return check_random_experiment(argv, records)
    return check_lemma(argv, records, reference or {})
