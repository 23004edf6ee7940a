"""Adversarial inputs: unbound references, shadowing, deep files, and the
claim that every leaf of a closed root stays closed."""

import random

import pytest

from helpers import cantor_text, rejection
from proofmgr.engine import (
    MeaninglessError,
    check_claim,
    check_theorem,
    leaf_obligations,
    transform_step,
)
from proofmgr.meta import New, NotWellFormed, Obligation, check_well_formed, fact
from proofmgr.parser import (
    BeginStepToken,
    Binder,
    By,
    HaveStep,
    PickStep,
    Obvious,
    TakeStep,
    UseHideStep,
    WitnessItem,
    WitnessStep,
    parse_expression as pe,
    parse_theorem,
)
from proofmgr.prover import Budget, Proved, Sequent, check_trace, prove
from proofmgr.report import build_report
from proofmgr.syntax import Ident

TOK = BeginStepToken(2, None)


class TestUnboundReferences:
    def test_by_with_unknown_step_label(self):
        thm = parse_theorem("THEOREM TRUE\n<1>1. QED BY <9>9\n")
        checked = check_theorem(thm)
        assert not checked.meaningful
        assert "<9>9" in checked.errors[0].message

    def test_by_with_unbound_name(self):
        thm = parse_theorem(
            "THEOREM ASSUME NEW P, P PROVE P\n<1>1. QED BY Q\n"
        )
        checked = check_theorem(thm)
        assert not checked.meaningful

    def test_have_unbound(self):
        o = Obligation((New("P"),), pe("P => P"))
        with pytest.raises(MeaninglessError):
            transform_step(TOK, HaveStep(pe("Zoo")), o)

    def test_witness_unbound(self):
        o = Obligation((New("S"),), pe(r"\E x : x \in S"))
        with pytest.raises(MeaninglessError):
            transform_step(TOK, WitnessStep((WitnessItem(Ident("ghost")),)), o)

    def test_take_unbound_domain(self):
        o = Obligation((New("S"), New("P")), pe(r"\A x \in S : P(x)"))
        with pytest.raises(MeaninglessError):
            transform_step(TOK, TakeStep((Binder("x", Ident("Ghost")),)), o)

    def test_assert_unbound(self):
        thm = parse_theorem(
            "THEOREM ASSUME NEW P, P PROVE P\n"
            "<1>1. Mystery\n      OBVIOUS\n<1>2. QED OBVIOUS\n"
        )
        checked = check_theorem(thm)
        assert not checked.meaningful
        assert checked.errors[0].path == ("<1>1",)

    def test_pick_unbound_body(self):
        o = Obligation((New("S"),), pe(r"S \subseteq S"))
        with pytest.raises(MeaninglessError):
            transform_step(
                TOK, PickStep((Binder("w"),), pe(r"w \in Ghost"), Obvious()), o
            )

    def test_define_unbound_body(self):
        thm = parse_theorem(
            "THEOREM TRUE\n<1>1. DEFINE D == Ghost\n<1>2. QED OBVIOUS\n"
        )
        assert not check_theorem(thm).meaningful

    def test_unknown_reference_maps_to_meaningless_status(self):
        thm = parse_theorem("THEOREM TRUE\n<1>1. QED BY <9>9\n")
        report = build_report(None, check_theorem(thm), {})
        assert report.status == "MEANINGLESS"


class TestLeafClosedness:
    def test_all_cantor_leaves_closed(self):
        checked = check_theorem(parse_theorem(cantor_text()))
        for record in checked.records:
            check_well_formed(record.obligation)

    def test_erroneous_files_never_produce_open_leaves(self):
        texts = [
            "THEOREM TRUE\n<1>1. QED BY <9>9\n",
            "THEOREM ASSUME NEW P, P PROVE P\n<1>1. HAVE Zoo\n<1>2. QED OBVIOUS\n",
            "THEOREM TRUE\n<1>1. Spooky(Ghost)\n      OBVIOUS\n<1>2. QED OBVIOUS\n",
        ]
        for text in texts:
            checked = check_theorem(parse_theorem(text))
            for record in checked.records:
                check_well_formed(record.obligation)


class TestShadowing:
    def test_assume_redeclaring_a_name_is_rejected(self):
        # the inner declaration is not renamed apart from the outer x
        assert rejection(
            "THEOREM ASSUME NEW x, NEW S, x \\in S PROVE x \\in S\n"
            "<1>1. ASSUME NEW x PROVE x = x\n"
            "      OBVIOUS\n"
            "<1>2. QED OBVIOUS\n"
        ) == ("<1>1", "x is already bound")

    def test_suffices_redeclaring_a_name_is_rejected(self):
        assert rejection(
            "THEOREM ASSUME NEW x, NEW S, x \\in S PROVE x \\in S\n"
            "<1>1. SUFFICES ASSUME NEW x \\in S PROVE x \\in S\n"
            "      OBVIOUS\n"
            "<1>2. QED OBVIOUS\n"
        ) == ("<1>1", "x is already bound")

    def test_fragment_name_used_before_its_declaration_is_unbound(self):
        # a fragment's fact or NEW domain is read in the scope before the
        # step, not after the fragment's own later NEW
        for fragment in (
            "ASSUME x \\in S, NEW x PROVE x \\in S",
            "ASSUME NEW y \\in x, NEW x PROVE TRUE",
        ):
            assert rejection(
                "THEOREM ASSUME NEW S PROVE TRUE\n"
                f"<1>1. {fragment}\n"
                "      OBVIOUS\n"
                "<1>2. QED OBVIOUS\n"
            ) == ("<1>1", "asserted claim mentions x, not bound in the context")


class TestDeepProofs:
    def test_ten_level_hierarchy(self):
        lines = ["THEOREM ASSUME NEW P, P PROVE P"]
        for level in range(1, 11):
            indent = "  " * level
            lines.append(f"{indent}<{level}>1. P")
        lines.append("  " * 11 + "<11>1. QED OBVIOUS")
        for level in range(10, 0, -1):
            indent = "  " * level
            lines.append(f"{indent}<{level}>2. QED BY <{level}>1")
        text = "\n".join(lines) + "\n"
        checked = check_theorem(parse_theorem(text))
        assert checked.meaningful and checked.complete
        # one obvious leaf at the bottom, one side + goal leaf per QED BY
        assert len(checked.records) == 1 + 2 * 10
        deepest = checked.records[0]
        assert len(deepest.path) == 11
        check_well_formed(deepest.obligation)

    def test_deep_file_proves_end_to_end(self):
        from proofmgr.report import prepared_obligation
        from proofmgr.prover import sequent_from_obligation

        lines = ["THEOREM ASSUME NEW P, P PROVE P"]
        for level in range(1, 6):
            lines.append(f"<{level}>1. P")
        lines.append("<6>1. QED OBVIOUS")
        for level in range(5, 0, -1):
            lines.append(f"<{level}>2. QED BY <{level}>1")
        checked = check_theorem(parse_theorem("\n".join(lines) + "\n"))
        for record in checked.records:
            seq = sequent_from_obligation(prepared_obligation(record))
            out = prove(seq)
            assert isinstance(out, Proved) and check_trace(seq, out.trace)


class TestProverHardening:
    def test_gamma_reuse_required(self):
        # classically valid, needs two instantiations of the same universal
        seq = Sequent(("D",), (), pe(r"\E x : D(x) => (\A y : D(y))"))
        out = prove(seq, Budget(max_depth=16, timeout_ms=10000, gamma_reuse=3))
        assert isinstance(out, Proved)
        assert check_trace(seq, out.trace)

    def test_transitivity_chain(self):
        seq = Sequent(
            ("a", "b", "c", "d"),
            (pe("a = b"), pe("b = c"), pe("c = d")),
            pe("a = d"),
        )
        out = prove(seq)
        assert isinstance(out, Proved) and check_trace(seq, out.trace)

    def test_comprehension_inside_comprehension(self):
        seq = Sequent(
            ("S", "c"),
            (pe(r"c \in {z \in {w \in S : TRUE} : TRUE}"),),
            pe(r"c \in S"),
        )
        out = prove(seq)
        assert isinstance(out, Proved) and check_trace(seq, out.trace)

    def test_powerset_monotone(self):
        seq = Sequent(
            ("A", "B"),
            (pe(r"A \subseteq B"),),
            pe(r"SUBSET A \subseteq SUBSET B"),
        )
        out = prove(seq, Budget(max_depth=16, timeout_ms=10000, gamma_reuse=4))
        assert isinstance(out, Proved) and check_trace(seq, out.trace)


class TestSufficesVariants:
    """The same diagonal argument written with SUFFICES collapses one proof
    level; every leaf still proves, although the undecomposed root is beyond
    the prover (it cannot invent the diagonal set as a witness) - which is
    the point of decomposing."""

    @pytest.mark.parametrize(
        "name", ["cantor_suffices_labeled.tla", "cantor_suffices_plain.tla"]
    )
    def test_all_leaves_prove(self, name):
        from pathlib import Path

        from proofmgr.report import prepared_obligation
        from proofmgr.prover import sequent_from_obligation

        text = (Path(__file__).parent / "data" / name).read_text()
        checked = check_theorem(parse_theorem(text))
        assert checked.meaningful and checked.complete
        for record in checked.records:
            seq = sequent_from_obligation(prepared_obligation(record))
            out = prove(seq)
            assert isinstance(out, Proved), (record.path, out)
            assert check_trace(seq, out.trace)

    def test_labeled_form_has_one_extra_leaf(self):
        from pathlib import Path

        data = Path(__file__).parent / "data"
        labeled = check_theorem(
            parse_theorem((data / "cantor_suffices_labeled.tla").read_text())
        )
        plain = check_theorem(
            parse_theorem((data / "cantor_suffices_plain.tla").read_text())
        )
        # the labelled variant cites its own label (BY <3>1), adding one
        # use-fact side obligation
        assert len(labeled.records) == len(plain.records) + 1


class TestParserHardening:
    def test_two_theorems_rejected(self):
        from proofmgr.parser import ParseError

        with pytest.raises(ParseError):
            parse_theorem("THEOREM TRUE OBVIOUS THEOREM FALSE OBVIOUS")

    def test_crlf_and_tabs(self):
        text = "THEOREM T == TRUE\r\n<1>1.\tQED OBVIOUS\r\n"
        assert parse_theorem(text).name == "T"

    def test_open_root_obligation_rejected(self):
        thm = parse_theorem("THEOREM P => P\n<1>1. QED OBVIOUS\n")
        with pytest.raises(NotWellFormed):
            check_theorem(thm)
