"""Report building, serialization round-trips, status rules, embeddings."""

import json

import pytest

from helpers import cantor_text, read_report
from proofmgr.engine import check_theorem
from proofmgr.meta import New, Obligation, fact, filter_obligation
from proofmgr.parser import parse_expression as pe, parse_theorem
from proofmgr.report import (
    LeafEntry,
    ObligationReport,
    build_report,
    compute_status,
    write_embeddings,
    write_report,
)


def checked_cantor():
    return check_theorem(parse_theorem(cantor_text()))


def all_proved(checked):
    return {i: ("proved", None) for i in range(len(checked.records))}


class TestBuild:
    def test_proved_report(self):
        checked = checked_cantor()
        report = build_report(None, checked, all_proved(checked))
        assert report.status == "PROVED"
        assert len(report.leaves) == 11
        assert report.leaves[0].path == "<1>1.<2>2.<3>1.<4>1"
        assert '"PROVED"' in write_report(report, "json")

    def test_structure_only_run_is_checked(self):
        checked = checked_cantor()
        report = build_report(None, checked, None)
        assert report.status == "CHECKED"
        assert all(l.outcome is None for l in report.leaves)

    def test_failed_when_some_leaf_unknown(self):
        checked = checked_cantor()
        outcomes = all_proved(checked)
        outcomes[4] = ("unknown", None)
        assert build_report(None, checked, outcomes).status == "FAILED"

    def test_incomplete_when_leaf_skipped(self):
        checked = checked_cantor()
        outcomes = all_proved(checked)
        del outcomes[4]
        assert build_report(None, checked, outcomes).status == "INCOMPLETE"

    def test_meaningless_carries_step_path(self):
        thm = parse_theorem(
            "THEOREM Bad == ASSUME NEW B, NEW C, B, C PROVE B /\\ C\n"
            "<1>1. TAKE x\n<1>2. QED OBVIOUS"
        )
        report = build_report("Bad", check_theorem(thm), {})
        assert report.status == "MEANINGLESS"
        assert report.errors[0].path == "<1>1"

    def test_filtered_shown_expanded_with_flag_for_raw(self):
        checked = checked_cantor()
        expanded = build_report(None, checked, None)
        filtered = [filter_obligation(r.obligation) for r in checked.records]
        raw = build_report(None, checked, None, filtered)
        golden = expanded.leaves[0]
        assert "T ==" not in golden.filtered
        assert "T ==" in raw.leaves[0].filtered


class TestStatusRule:
    def leaf(self, idx, omitted=False, outcome=None):
        return LeafEntry(idx, "<1>1", "obvious-goal", omitted, "o", "f", "e", outcome, None)

    def test_proved_iff_no_omitted_and_all_proved(self):
        leaves = [self.leaf(0, outcome="proved"), self.leaf(1, outcome="proved")]
        assert compute_status(leaves, False, attempted=True) == "PROVED"

    def test_incomplete_iff_omitted_and_others_proved(self):
        leaves = [self.leaf(0, outcome="proved"), self.leaf(1, omitted=True)]
        assert compute_status(leaves, False, attempted=True) == "INCOMPLETE"

    def test_failed_beats_incomplete(self):
        leaves = [self.leaf(0, outcome="unknown"), self.leaf(1, omitted=True)]
        assert compute_status(leaves, False, attempted=True) == "FAILED"

    def test_meaningless_dominates(self):
        assert compute_status([], True, attempted=True) == "MEANINGLESS"


class TestSerialization:
    def test_json_round_trip(self):
        checked = checked_cantor()
        report = build_report("Cantor", checked, all_proved(checked))
        assert read_report(write_report(report, "json")) == report

    def test_json_schema_field_names(self):
        checked = checked_cantor()
        raw = json.loads(write_report(build_report(None, checked, None), "json"))
        assert set(raw) == {"theorem", "status", "leaves", "errors"}
        assert set(raw["leaves"][0]) == {
            "id", "path", "kind", "omitted", "obligation", "filtered",
            "embedding", "outcome", "millis",
        }

    def test_text_format_ordered_by_step_path(self):
        checked = checked_cantor()
        text = write_report(build_report(None, checked, None), "text")
        lines = [l for l in text.splitlines() if l.strip().startswith("[")]
        paths = [l.split()[1] for l in lines]
        assert paths == sorted(paths, key=_path_sort_key)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_report(ObligationReport(None, "PROVED", ()), "xml")


def _path_sort_key(path):
    out = []
    for part in path.split("."):
        level, _, label = part.lstrip("<").partition(">")
        out.append((int(level), label))
    return out


class TestEmbeddings:
    def test_example_line(self):
        inner = Obligation((New("x"),), pe("P(x)"))
        o = Obligation((New("P"), fact(inner, hidden=True)), pe(r"\A x : P(x)"))
        assert write_embeddings([o]) == "!!P. (!!x. P(x)) ==> \\A x : P(x)\n"

    def test_empty_list_empty_document(self):
        assert write_embeddings([]) == ""

    def test_cantor_golden_embedding_line(self):
        checked = checked_cantor()
        report = build_report(None, checked, None)
        golden = report.leaves[0].embedding
        assert golden == (
            "!!S. !!f. (f \\in [S -> SUBSET S]) ==> !!x. (x \\in S) ==> "
            "(x \\in {z \\in S : z \\notin f[z]}) ==> "
            "f[x] # {z \\in S : z \\notin f[z]}"
        )
