"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest bench/test_bench.py -q

The smoke tests run ``bench/run.py`` for its smallest length (two repeats)
and take about a minute.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from workloads import FALSE, TEMPLATES, VALID

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["structure", "wide"])
def test_same_seed_same_bytes(name):
    first = workloads.generate(name, 7, ROOT)
    again = workloads.generate(name, 7, ROOT)
    other = workloads.generate(name, 8, ROOT)
    assert [(f.name, f.text, f.verdicts) for f in first] == [
        (f.name, f.text, f.verdicts) for f in again
    ]
    assert [f.text for f in first] != [f.text for f in other]


def test_wide_uses_every_template_equally_for_any_seed():
    for seed in (1, 2):
        verdicts = [v for f in workloads.wide(seed) for v in f.verdicts.values()]
        expected = [t.verdict for t in TEMPLATES] * workloads.WIDE_COPIES
        assert sorted(verdicts) == sorted(expected)


def test_generated_files_parse():
    sys.path.insert(0, str(ROOT / "src"))
    from proofmgr import parse_theorem

    for name in ("structure", "wide"):
        for f in workloads.generate(name, 3, ROOT):
            assert parse_theorem(f.text).name == f.theorem


def test_corpus_is_the_committed_data():
    files = workloads.corpus(ROOT)
    assert len(files) == len(list((ROOT / "tests" / "data").rglob("*.tla")))
    assert not any(f.verdicts for f in files)


# -- template verdicts --------------------------------------------------------

_TOKEN = re.compile(r"\s*(<=>|=>|/\\|\\/|~|\(|\)|\w+)")


def _parse_prop(text: str):
    """A propositional formula as a function of an assignment (dict)."""
    tokens = _TOKEN.findall(text)
    assert "".join(tokens) == re.sub(r"\s+", "", text), text
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = tokens[pos]
        assert expected is None or tok == expected, (text, tok)
        pos += 1
        return tok

    def iff():
        left = imp()
        while peek() == "<=>":
            take()
            right, prev = imp(), left
            left = lambda a, l=prev, r=right: l(a) == r(a)  # noqa: E731
        return left

    def imp():
        left = disj()
        if peek() == "=>":
            take()
            right = imp()
            return lambda a: (not left(a)) or right(a)
        return left

    def disj():
        left = conj()
        while peek() == "\\/":
            take()
            right, prev = conj(), left
            left = lambda a, l=prev, r=right: l(a) or r(a)  # noqa: E731
        return left

    def conj():
        left = unary()
        while peek() == "/\\":
            take()
            right, prev = unary(), left
            left = lambda a, l=prev, r=right: l(a) and r(a)  # noqa: E731
        return left

    def unary():
        tok = take()
        if tok == "~":
            inner = unary()
            return lambda a: not inner(a)
        if tok == "(":
            inner = iff()
            take(")")
            return inner
        return lambda a: a[tok]

    formula = iff()
    assert pos == len(tokens), text
    return formula


def _truth_table_verdict(t) -> str:
    identity = {n: n for n in t.names}
    hyps = [_parse_prop(h.format(**identity)) for h in t.hyps]
    goal = _parse_prop(t.goal.format(**identity))
    for values in itertools.product((False, True), repeat=len(t.names)):
        a = dict(zip(t.names, values))
        if all(h(a) for h in hyps) and not goal(a):
            return FALSE
    return VALID


@pytest.mark.parametrize("t", [t for t in TEMPLATES if t.prop], ids=lambda t: t.name)
def test_propositional_template_verdicts(t):
    assert _truth_table_verdict(t) == t.verdict


def test_template_pool_shape():
    assert len({t.name for t in TEMPLATES}) == len(TEMPLATES)
    assert {t.verdict for t in TEMPLATES} == {VALID, FALSE}
    for t in TEMPLATES:
        used = set(re.findall(r"\{(\w+)\}", " ".join(t.hyps + (t.goal,))))
        assert used == set(t.names), t.name
        assert t.verdict == VALID or t.note or t.prop, f"{t.name}: no countermodel given"
    assert "eq_chain" in {t.name for t in TEMPLATES}


# -- output checks ------------------------------------------------------------


def _report(theorem, leaves, status):
    doc = {
        "theorem": theorem,
        "status": status,
        "leaves": [
            {"path": p, "outcome": o, "omitted": False, "millis": None} for p, o in leaves
        ],
        "errors": [],
    }
    return json.dumps(doc, indent=2).encode()


def test_check_accepts_consistent_output():
    spec = workloads.ProofFile("a.tla", "", "A", {"<1>1": VALID, "<1>2": FALSE})
    data = _report("A", [("<1>1", "unknown"), ("<1>2", "unknown"), ("<1>3", "proved")], "FAILED")
    checked = run.check_output([spec], 2, data)
    assert (checked.attempted, checked.mismatched) == (3, 1)


@pytest.mark.parametrize(
    "leaves, status, code",
    [
        ([("<1>1", "proved"), ("<1>2", "proved")], "PROVED", 0),  # false leaf proved
        ([("<1>1", "proved"), ("<1>2", "unknown")], "PROVED", 0),  # status contradicts leaves
        ([("<1>1", "proved"), ("<1>2", "unknown")], "FAILED", 0),  # exit code contradicts status
        ([("<1>1", "malformed"), ("<1>2", "unknown")], "FAILED", 2),
        ([("<1>1", "proved")], "PROVED", 0),  # a known leaf is missing
    ],
)
def test_check_rejects_contradictions(leaves, status, code):
    spec = workloads.ProofFile("a.tla", "", "A", {"<1>1": VALID, "<1>2": FALSE})
    with pytest.raises(run.CheckFailed):
        run.check_output([spec], code, _report("A", leaves, status))


# -- the command --------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    done = _bench("--workload", "wide", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["prover.replay_failed"] == workloads.WIDE_COPIES  # eq_chain
        assert metrics["prover.malformed"] == metrics["prover.timeout"] == 0


def test_spec_matches_the_command():
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_times_are_scaled_to_the_reference_speed():
    assert run.at_ref_speed(3.0, run.REF_MS, run.REF_MS) == 3.0
    assert run.at_ref_speed(3.0, 1.5 * run.REF_MS, 2.5 * run.REF_MS) == 1.5


def test_fails_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
