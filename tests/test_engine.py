"""Checking and transformation rules: per-rule behavior, the golden example,
error recovery, determinism."""

import random

import pytest

from helpers import alpha_equal_obligation, cantor_text, rand_expr, rejection
from proofmgr.engine import (
    CheckedTheorem,
    MeaninglessError,
    check_claim,
    check_theorem,
    derivation_errors,
    expand_for_matching,
    leaf_obligations,
    theorem_obligation,
    transform_step,
)
from proofmgr.meta import (
    Def,
    DuplicateName,
    Fact,
    Lambda,
    New,
    Obligation,
    UnknownFact,
    check_well_formed,
    expand_all_usable,
    fact,
    filter_obligation,
    render_obligation,
)
from proofmgr.parser import (
    AssertStep,
    BeginStepToken,
    Binder,
    By,
    CaseStep,
    DefineStep,
    FactItem,
    GoalForm,
    HaveStep,
    NewItem,
    Obvious,
    Omitted,
    PickStep,
    SufficesStep,
    TakeStep,
    UseHideStep,
    WitnessItem,
    WitnessStep,
    parse_expression as pe,
    parse_theorem,
)
from proofmgr.syntax import Ident, Neg, pretty

TOK = BeginStepToken(2, None)
LAB = BeginStepToken(2, "5")


def obl(ctx, goal):
    return Obligation(tuple(ctx), pe(goal))


class TestUseHide:
    def test_use_emits_side_obligation_and_appends_fact(self):
        o = obl([New("P"), fact(pe("P"), hidden=True)], "P")
        out = transform_step(TOK, UseHideStep((pe("P"),), (), hide=False), o)
        leaves = leaf_obligations(out.node)
        assert len(leaves) == 1
        assert leaves[0].kind == "use-fact-side"
        # the side obligation sees the context with hidden facts made usable
        assert leaves[0].obligation == obl([New("P"), fact(pe("P"))], "P")
        assert out.output == obl(
            [New("P"), fact(pe("P"), hidden=True), fact(pe("P"))], "P"
        )

    def test_use_empty_fact_list_is_identity(self):
        o = obl([New("P")], "P")
        out = transform_step(TOK, UseHideStep((), (), hide=False), o)
        assert out.output == o and not leaf_obligations(out.node)

    def test_use_def_makes_definition_usable(self):
        o = Obligation(
            (New("S"), Def("T", Obligation((), Ident("S")), hidden=True)),
            pe(r"T \subseteq S"),
        )
        out = transform_step(TOK, UseHideStep((), ("T",), hide=False), o)
        assert out.output.context[1] == Def("T", Obligation((), Ident("S")))

    def test_hide_marks_most_recent_usable_fact(self):
        o = obl([New("P"), fact(pe("P"))], "P")
        out = transform_step(TOK, UseHideStep((pe("P"),), (), hide=True), o)
        assert out.output == obl([New("P"), fact(pe("P"), hidden=True)], "P")

    def test_hide_unknown_fact(self):
        o = obl([New("P")], "P")
        with pytest.raises(UnknownFact):
            transform_step(TOK, UseHideStep((pe("Q"),), (), hide=True), o)

    def test_side_leaves_share_the_twins_of_their_context(self):
        thm = parse_theorem(
            "THEOREM T == ASSUME NEW P PROVE P => P\n"
            "<1>1. P => P\n      OBVIOUS\n"
            "<1>2. P => P\n      OBVIOUS\n"
            "<1>3. QED BY <1>1, <1>2\n"
        )
        records = check_theorem(thm).records
        first, second = [r.obligation.context for r in records if r.kind == "use-fact-side"]
        main = next(r.obligation.context for r in records if r.kind == "by-goal")
        # the hidden label facts are shown in both, by the very same twins
        shown = [k for k, h in enumerate(first) if h is not main[k]]
        assert shown and all(main[k].hidden and not first[k].hidden for k in shown)
        assert all(a is b for a, b in zip(first, second))

    def test_hide_def_hides_definition(self):
        o = Obligation(
            (New("S"), Def("T", Obligation((), Ident("S")))), pe(r"T \subseteq S")
        )
        out = transform_step(TOK, UseHideStep((), ("T",), hide=True), o)
        assert out.output.context[1].hidden


class TestDefine:
    def test_define_appends_hidden_then_uses(self):
        o = obl([New("S")], "TRUE")
        out = transform_step(TOK, DefineStep("T", (), Ident("S")), o)
        # kernel rule inserts a hidden definition; the default lowering makes
        # proof-local definitions usable right away
        assert out.output.context[1] == Def("T", Obligation((), Ident("S")))

    def test_define_stays_hidden_without_lowering(self):
        o = obl([New("S")], "TRUE")
        out = transform_step(
            TOK, DefineStep("T", (), Ident("S")), o, local_defs_usable=False
        )
        assert out.output.context[1] == Def(
            "T", Obligation((), Ident("S")), hidden=True
        )

    def test_define_with_params_builds_lambda(self):
        o = obl([New("S")], "TRUE")
        out = transform_step(
            TOK, DefineStep("D", ("a",), pe(r"a \in S")), o
        )
        assert out.output.context[1] == Def("D", Lambda(("a",), pe(r"a \in S")))

    def test_duplicate_name_rejected(self):
        o = obl([New("T")], "TRUE")
        with pytest.raises(DuplicateName):
            transform_step(TOK, DefineStep("T", (), pe("TRUE")), o)
        # the redeclaration is reported before an unbound body
        with pytest.raises(DuplicateName):
            transform_step(TOK, DefineStep("T", (), pe("Ghost")), o)

    def test_parameter_that_reuses_a_bound_name_rejected(self):
        # a parameter is declared like the name: against the context, and
        # against the names the same step declared before it
        assert rejection(
            "THEOREM ASSUME NEW x, NEW S PROVE TRUE\n"
            "<1>1. DEFINE F(x) == x \\in S\n"
            "<1>2. QED OBVIOUS\n"
        ) == ("<1>1", "x is already bound")
        o = obl([New("S")], "TRUE")
        for params in (("F",), ("y", "y")):
            with pytest.raises(DuplicateName):
                transform_step(TOK, DefineStep("F", params, pe(r"S \in S")), o)


class TestHave:
    def test_have_splits_implication(self):
        o = obl([New("P"), New("Q")], "P => Q")
        out = transform_step(TOK, HaveStep(pe("P")), o)
        leaves = leaf_obligations(out.node)
        assert leaves[0].kind == "have-side"
        assert leaves[0].obligation == obl([New("P"), New("Q"), fact(pe("P"))], "P")
        assert out.output == obl([New("P"), New("Q"), fact(pe("P"))], "Q")

    def test_have_on_non_implication_is_meaningless(self):
        with pytest.raises(MeaninglessError):
            transform_step(TOK, HaveStep(pe("P")), obl([New("P")], "P"))


class TestTake:
    def test_empty_take_is_identity(self):
        o = obl([New("P")], "P")
        out = transform_step(TOK, TakeStep(()), o)
        assert out.output == o

    def test_unbounded(self):
        o = obl([New("P")], r"\A x : P(x)")
        out = transform_step(TOK, TakeStep((Binder("x"),)), o)
        assert out.output == obl([New("P"), New("x")], "P(x)")
        assert not leaf_obligations(out.node)

    def test_bounded_emits_subset_side_and_keeps_membership(self):
        o = obl([New("S"), New("P")], r"\A x \in S : P(x)")
        out = transform_step(TOK, TakeStep((Binder("x", Ident("S")),)), o)
        leaves = leaf_obligations(out.node)
        assert [l.kind for l in leaves] == ["take-subset-side"]
        assert leaves[0].obligation == obl([New("S"), New("P")], r"S \subseteq S")
        assert out.output == obl(
            [New("S"), New("P"), New("x"), fact(pe(r"x \in S"))], "P(x)"
        )

    def test_take_against_conjunction_is_meaningless(self):
        o = obl([New("B"), New("C"), fact(pe("B")), fact(pe("C"))], r"B /\ C")
        with pytest.raises(MeaninglessError) as exc:
            transform_step(TOK, TakeStep((Binder("x"),)), o)
        assert "TAKE" in str(exc.value)

    def test_boundedness_mismatch_is_meaningless(self):
        o = obl([New("S"), New("P")], r"\A x \in S : P(x)")
        with pytest.raises(MeaninglessError):
            transform_step(TOK, TakeStep((Binder("x"),)), o)

    def test_shadowed_name_rejected(self):
        # a TAKE binder may not redeclare a name of the context
        assert rejection(
            "THEOREM ASSUME NEW x, NEW P PROVE \\A x : P(x)\n"
            "<1>1. TAKE x\n"
            "<1>2. QED OMITTED\n"
        ) == ("<1>1", "x is already bound")

    # a usable definition with a parameter, heading the goal
    LAMBDA_F = Def("F", Lambda(("X",), pe(r"\A x \in X : P(x)")))

    def test_goal_headed_by_a_lambda_definition(self):
        o = obl([New("S"), New("P"), self.LAMBDA_F], "F(S)")
        out = transform_step(TOK, TakeStep((Binder("y", Ident("S")),)), o)
        assert out.output == obl(
            [New("S"), New("P"), self.LAMBDA_F, New("y"), fact(pe(r"y \in S"))], "P(y)"
        )

    @pytest.mark.parametrize("goal", ["F", "F(S, S)"], ids=["no-arguments", "two-arguments"])
    def test_lambda_definition_not_applied_to_its_parameters(self, goal):
        # the goal's head expands only when F gets one argument per parameter
        o = obl([New("S"), New("P"), self.LAMBDA_F], goal)
        with pytest.raises(MeaninglessError) as exc:
            transform_step(TOK, TakeStep((Binder("y", Ident("S")),)), o)
        assert "TAKE requires a universally quantified goal" in str(exc.value)

    def test_take_list_folds(self):
        o = obl([New("P")], r"\A x : \A y : P(x, y)")
        out = transform_step(TOK, TakeStep((Binder("x"), Binder("y"))), o)
        assert out.output == obl([New("P"), New("x"), New("y")], "P(x, y)")

    def test_side_leaves_in_binder_order(self):
        o = obl([New("S"), New("T"), New("P")], r"\A x \in S, y \in T : P(x, y)")
        binders = (Binder("a", Ident("S")), Binder("b", Ident("T")))
        leaves = leaf_obligations(transform_step(TOK, TakeStep(binders), o).node)
        assert [pretty(l.obligation.goal) for l in leaves] == [
            r"S \subseteq S",
            r"T \subseteq T",
        ]
        # each side sees the context before its own binder
        assert leaves[1].obligation.context[-2:] == (New("a"), fact(pe(r"a \in S")))

    def test_later_domain_reads_the_context(self):
        # x in the domain of y is the declared x, not the first binder
        o = obl([New("x"), New("T"), New("P")], r"\A x \in T, y \in x : P")
        binders = (Binder("z", Ident("T")), Binder("w", Ident("x")))
        out = transform_step(TOK, TakeStep(binders), o)
        leaves = leaf_obligations(out.node)
        assert [pretty(l.obligation.goal) for l in leaves] == [
            r"T \subseteq T",
            r"x \subseteq x",
        ]
        assert out.output.goal == pe("P")


class TestWitness:
    def test_unbounded(self):
        o = obl([New("S"), New("c"), fact(pe(r"c \in S"))], r"\E x : x \in S")
        out = transform_step(TOK, WitnessStep((WitnessItem(Ident("c")),)), o)
        assert out.output == obl(
            [New("S"), New("c"), fact(pe(r"c \in S"))], r"c \in S"
        )

    def test_bounded_two_sides_and_fact_persists(self):
        o = obl([New("S"), New("c"), fact(pe(r"c \in S"))], r"\E x \in S : x = c")
        out = transform_step(
            TOK, WitnessStep((WitnessItem(Ident("c"), Ident("S")),)), o
        )
        leaves = leaf_obligations(out.node)
        assert [l.kind for l in leaves] == [
            "witness-subset-side",
            "witness-membership-side",
        ]
        assert leaves[0].obligation.goal == pe(r"S \subseteq S")
        assert leaves[1].obligation.goal == pe(r"c \in S")
        assert out.output == obl(
            [New("S"), New("c"), fact(pe(r"c \in S")), fact(pe(r"c \in S"))],
            "c = c",
        )

    def test_witness_against_universal_is_meaningless(self):
        o = obl([New("P")], r"\A x : P(x)")
        with pytest.raises(MeaninglessError):
            transform_step(TOK, WitnessStep((WitnessItem(Ident("P")),)), o)

    def test_side_leaves_in_item_order(self):
        o = obl(
            [New("S"), New("T"), New("c"), New("d"), New("P")],
            r"\E x \in S, y \in T : P(x, y)",
        )
        items = (WitnessItem(Ident("c"), Ident("S")), WitnessItem(Ident("d"), Ident("T")))
        out = transform_step(TOK, WitnessStep(items), o)
        leaves = leaf_obligations(out.node)
        assert [(l.kind, pretty(l.obligation.goal)) for l in leaves] == [
            ("witness-subset-side", r"S \subseteq S"),
            ("witness-membership-side", r"c \in S"),
            ("witness-subset-side", r"T \subseteq T"),
            ("witness-membership-side", r"d \in T"),
        ]
        assert leaves[2].obligation.context[-1] == fact(pe(r"c \in S"))
        assert out.output.goal == pe("P(c, d)")


class TestAssert:
    def test_unlabeled_subclaim_carries_hidden_negated_goal(self):
        o = obl([New("P"), New("Q"), fact(pe("P"))], "Q")
        body = AssertStep(GoalForm((), pe("P")), Obvious())
        out = transform_step(TOK, body, o)
        (claim,) = out.node.children
        assert claim.input == Obligation(
            (New("P"), New("Q"), fact(pe("P")), fact(Neg(pe("Q")), hidden=True)),
            pe("P"),
        )
        # output context gains the asserted fact, usable
        assert out.output == obl(
            [New("P"), New("Q"), fact(pe("P")), fact(pe("P"))], "Q"
        )

    def test_labeled_binds_definition_and_hidden_citation(self):
        o = obl([New("P")], "P")
        body = AssertStep(GoalForm((), pe("P")), Obvious())
        out = transform_step(LAB, body, o)
        alpha = Obligation((), pe("P"))
        assert out.output == Obligation(
            (
                New("P"),
                Def("<2>5", alpha),
                Fact(Obligation((), Ident("<2>5")), hidden=True),
            ),
            pe("P"),
        )
        (claim,) = out.node.children
        assert claim.input == Obligation(
            (New("P"), fact(Neg(pe("P")), hidden=True), Def("<2>5", alpha)),
            pe("P"),
        )

    def test_assume_prove_fragment_reflected(self):
        o = obl([New("S"), New("P")], r"\A x \in S : P(x)")
        gf = GoalForm((NewItem("x", Ident("S")),), pe("P(x)"))
        out = transform_step(TOK, AssertStep(gf, Obvious()), o)
        (claim,) = out.node.children
        assert claim.input.context[-2:] == (New("x"), fact(pe(r"x \in S")))
        assert claim.input.goal == pe("P(x)")

    def test_case_is_assertion_sugar(self):
        o = obl([New("P"), New("Q"), fact(pe(r"P \/ Q"))], "Q")
        out = transform_step(TOK, CaseStep(pe("P"), Obvious()), o)
        (claim,) = out.node.children
        assert claim.input.context[-1] == fact(pe("P"))
        assert claim.input.goal == pe("Q")
        assert out.output.context[-1] == Fact(
            Obligation((fact(pe("P")),), pe("Q"))
        )


class TestSuffices:
    def test_unlabeled(self):
        o = obl([New("P"), New("Q"), fact(pe("P <=> Q"))], "P")
        body = SufficesStep(GoalForm((), pe("Q")), Obvious())
        out = transform_step(TOK, body, o)
        (claim,) = out.node.children
        # the subproof derives the old goal from the new assertion
        assert claim.input == obl(
            [New("P"), New("Q"), fact(pe("P <=> Q")), fact(pe("Q"))], "P"
        )
        assert out.output == Obligation(
            (
                New("P"),
                New("Q"),
                fact(pe("P <=> Q")),
                fact(Neg(pe("P")), hidden=True),
            ),
            pe("Q"),
        )

    def test_labeled(self):
        o = obl([New("P"), New("Q"), fact(pe("P <=> Q"))], "P")
        body = SufficesStep(GoalForm((), pe("Q")), Obvious())
        out = transform_step(LAB, body, o)
        alpha = Obligation((), pe("Q"))
        (claim,) = out.node.children
        assert claim.input.context[-2:] == (
            Def("<2>5", alpha),
            Fact(Obligation((), Ident("<2>5")), hidden=True),
        )
        assert out.output.context[-2:] == (
            fact(Neg(pe("P")), hidden=True),
            Def("<2>5", alpha),
        )
        assert out.output.goal == pe("Q")


class TestPick:
    def test_pick_checks_existence_and_extends_context(self):
        o = obl([New("S"), New("c"), fact(pe(r"c \in S"))], r"c \in S")
        body = PickStep((Binder("z"),), pe(r"z \in S"), Obvious())
        out = transform_step(TOK, body, o)
        (claim,) = out.node.children
        assert claim.input == obl(
            [New("S"), New("c"), fact(pe(r"c \in S"))], r"\E z : z \in S"
        )
        assert out.output == obl(
            [New("S"), New("c"), fact(pe(r"c \in S")), New("z"), fact(pe(r"z \in S"))],
            r"c \in S",
        )
        leaves = leaf_obligations(out.node)
        assert [l.kind for l in leaves] == ["pick-existence"]

    def test_pick_shadowed_binder_rejected(self):
        # rejected before its existence subproof is checked
        assert rejection(
            "THEOREM ASSUME NEW S, NEW z, z \\in S PROVE z \\in S\n"
            "<1>1. PICK z : z \\in S\n"
            "      OBVIOUS\n"
            "<1>2. QED OBVIOUS\n"
        ) == ("<1>1", "z is already bound")

    def test_redeclared_binder_rejected_domain_reads_the_context(self):
        pick = "<1>1. PICK x \\in T, y \\in x : TRUE\n      OMITTED\n<1>2. QED OMITTED\n"
        assert rejection("THEOREM ASSUME NEW x, NEW T, NEW P PROVE P\n" + pick) == (
            "<1>1",
            "x is already bound",
        )
        # without a declared x, the domain of y does not read the picked x
        assert rejection("THEOREM ASSUME NEW T, NEW P PROVE P\n" + pick) == (
            "<1>1",
            "PICK bound mentions x, not bound in the context",
        )


class TestExpandForMatching:
    def test_usable_definition_exposes_quantifier(self):
        o = Obligation(
            (New("P"), Def("Q", Obligation((), pe(r"\A x : P(x)")))), pe("Q")
        )
        out = transform_step(TOK, TakeStep((Binder("x"),)), o)
        assert out.output.goal == pe("P(x)")

    def test_hidden_definition_is_not_expanded(self):
        o = Obligation(
            (New("P"), Def("Q", Obligation((), pe(r"\A x : P(x)")), hidden=True)),
            pe("Q"),
        )
        with pytest.raises(MeaninglessError):
            transform_step(TOK, TakeStep((Binder("x"),)), o)

    def test_goal_already_quantified_is_identity(self):
        o = obl([New("P")], r"\A x : P(x)")
        assert expand_for_matching(o) is o


class TestCheckClaim:
    def test_obvious_single_leaf(self):
        o = obl([New("P"), fact(pe("P"))], "P")
        d = check_claim(Obvious(), o)
        leaves = leaf_obligations(d)
        assert len(leaves) == 1 and leaves[0].obligation == o
        assert not leaves[0].omitted

    def test_omitted_flagged(self):
        o = obl([New("P")], "P")
        d = check_claim(Omitted(), o)
        (leaf,) = leaf_obligations(d)
        assert leaf.omitted

    def test_by_elaborates_use_then_goal(self):
        o = obl([New("P"), fact(pe("P"), hidden=True), New("Q"), fact(pe("P => Q"))], "Q")
        d = check_claim(By((pe("P"),), ()), o)
        leaves = leaf_obligations(d)
        assert [l.kind for l in leaves] == ["use-fact-side", "by-goal"]
        assert leaves[1].obligation.context[-1] == fact(pe("P"))

    def test_meaningless_raises_by_default(self):
        o = obl([New("B"), New("C")], r"B /\ C")
        proof = parse_theorem(
            "THEOREM TRUE <1>1. TAKE x <1>2. QED OBVIOUS"
        ).proof
        with pytest.raises(MeaninglessError) as exc:
            check_claim(proof, o)
        assert exc.value.path == ("<1>1",)

    def test_error_recovery_reports_multiple_errors(self):
        o = obl([New("B"), New("C")], r"B /\ C")
        proof = parse_theorem(
            "THEOREM TRUE <1>1. TAKE x <1>2. HAVE B <1>3. QED OBVIOUS"
        ).proof
        d = check_claim(proof, o, collect_errors=True)
        errors = derivation_errors(d)
        assert [e.path for e in errors] == [("<1>1",), ("<1>2",)]
        # the QED still checks against the unrefined obligation
        leaves = leaf_obligations(d)
        assert leaves[-1].obligation == o

    def test_determinism(self):
        rng = random.Random(41)
        o = obl([New("P"), New("Q"), fact(pe("P => Q")), fact(pe("P"))], "Q")
        proof = parse_theorem(
            "THEOREM TRUE\n<1>1. P\n  <2>1. QED BY P => P\n<1>2. QED BY <1>1"
        ).proof
        assert check_claim(proof, o) == check_claim(proof, o)

    def test_long_flat_sequence_gives_every_leaf(self):
        # neither the checker nor the leaf and error walks may recurse once
        # per step of a sequence
        n = 1200
        text = (
            "THEOREM ASSUME NEW P, P PROVE P\n"
            + "".join(f"<1>{k}. P OBVIOUS\n" for k in range(1, n))
            + f"<1>{n}. QED OBVIOUS\n"
        )
        checked = check_theorem(parse_theorem(text))
        assert checked.meaningful
        assert [r.path for r in checked.records] == [(f"<1>{k}",) for k in range(1, n + 1)]


N_ITEMS = 1000
NAMES = [f"P{k}" for k in range(N_ITEMS)]
ALL_NAMES = ", ".join(NAMES)
# every P_k declared and assumed
ASSUME_ALL = "ASSUME " + ", ".join(f"NEW {n}" for n in NAMES) + ", " + ALL_NAMES


class TestLongItemLists:
    """A step's facts or binders are walked with a loop: neither the checker
    nor the leaf walk recurses once per item."""

    def check(self, text):
        checked = check_theorem(parse_theorem(text))
        assert checked.meaningful
        return checked.records

    def test_by_many_facts(self):
        records = self.check(f"THEOREM {ASSUME_ALL} PROVE P0\n<1>1. QED BY {ALL_NAMES}\n")
        assert [r.kind for r in records] == ["use-fact-side"] * N_ITEMS + ["by-goal"]
        assert [pretty(r.obligation.goal) for r in records[:-1]] == NAMES
        assert records[-1].obligation.context[-N_ITEMS:] == tuple(fact(Ident(n)) for n in NAMES)

    def test_use_many_facts(self):
        records = self.check(
            f"THEOREM {ASSUME_ALL} PROVE P0\n<1>1. USE {ALL_NAMES}\n<1>2. QED OBVIOUS\n"
        )
        assert [r.kind for r in records] == ["use-fact-side"] * N_ITEMS + ["obvious-goal"]
        assert [pretty(r.obligation.goal) for r in records[:-1]] == NAMES

    def test_hide_many_facts(self):
        records = self.check(
            f"THEOREM {ASSUME_ALL} PROVE P0\n<1>1. HIDE {ALL_NAMES}\n<1>2. QED OBVIOUS\n"
        )
        (qed,) = records
        facts = [h for h in qed.obligation.context if isinstance(h, Fact)]
        assert len(facts) == N_ITEMS and all(h.hidden for h in facts)

    def test_take_many_binders(self):
        bound = ", ".join(f"x{k} \\in S" for k in range(N_ITEMS))
        taken = ", ".join(f"y{k} \\in S" for k in range(N_ITEMS))
        records = self.check(
            f"THEOREM ASSUME NEW S, NEW P PROVE \\A {bound} : P\n"
            f"<1>1. TAKE {taken}\n<1>2. QED OBVIOUS\n"
        )
        assert [r.kind for r in records] == ["take-subset-side"] * N_ITEMS + ["obvious-goal"]
        # each side sees the binders taken before it
        assert [len(r.obligation.context) for r in records[:-1]] == [
            2 + 2 * k for k in range(N_ITEMS)
        ]

    def test_witness_many_binders(self):
        bound = ", ".join(f"x{k} \\in S" for k in range(N_ITEMS))
        witnesses = ", ".join(["c \\in S"] * N_ITEMS)
        records = self.check(
            f"THEOREM ASSUME NEW S, NEW c, c \\in S, NEW P PROVE \\E {bound} : P\n"
            f"<1>1. WITNESS {witnesses}\n<1>2. QED OBVIOUS\n"
        )
        kinds = ["witness-subset-side", "witness-membership-side"] * N_ITEMS
        assert [r.kind for r in records] == kinds + ["obvious-goal"]
        assert len(records[-1].obligation.context) == 4 + N_ITEMS


CANTOR_GOLDEN_TEXT = (
    "<1>1 == (NEW S, NEW f, f \\in [S -> SUBSET S] |- "
    "\\E A \\in SUBSET S : \\A x \\in S : f[x] # A), "
    "NEW S, NEW f, f \\in [S -> SUBSET S], "
    "T == {z \\in S : z \\notin f[z]}, "
    "[~(\\E A \\in SUBSET S : \\A x \\in S : f[x] # A)], "
    "<2>2 == \\A x \\in S : f[x] # T, "
    "[~(\\A x \\in S : f[x] # T)], "
    "<3>1 == (NEW x, x \\in S |- f[x] # T), "
    "NEW x, x \\in S, "
    "[~(f[x] # T)], "
    "<4>1 == (x \\in T |- f[x] # T), "
    "x \\in T "
    "|- f[x] # T"
)


def cantor_golden_obligation() -> Obligation:
    """The leaf obligation for the first case step, derived by hand from the
    transformation rules before implementation and frozen here."""
    exists_goal = pe(r"\E A \in SUBSET S : \A x \in S : f[x] # A")
    forall_goal = pe(r"\A x \in S : f[x] # T")
    neq_goal = pe(r"f[x] # T")
    lbl_11 = Obligation(
        (New("S"), New("f"), fact(pe(r"f \in [S -> SUBSET S]"))), exists_goal
    )
    lbl_31 = Obligation((New("x"), fact(pe(r"x \in S"))), neq_goal)
    lbl_41 = Obligation((fact(pe(r"x \in T")),), neq_goal)
    return Obligation(
        (
            Def("<1>1", lbl_11),
            New("S"),
            New("f"),
            fact(pe(r"f \in [S -> SUBSET S]")),
            Def("T", Obligation((), pe(r"{z \in S : z \notin f[z]}"))),
            fact(Neg(exists_goal), hidden=True),
            Def("<2>2", Obligation((), forall_goal)),
            fact(Neg(forall_goal), hidden=True),
            Def("<3>1", lbl_31),
            New("x"),
            fact(pe(r"x \in S")),
            fact(Neg(neq_goal), hidden=True),
            Def("<4>1", lbl_41),
            fact(pe(r"x \in T")),
        ),
        neq_goal,
    )


@pytest.fixture(scope="module")
def checked() -> CheckedTheorem:
    return check_theorem(parse_theorem(cantor_text()))


class TestCantorGoldens:

    def test_leaf_count_is_the_frozen_value(self, checked):
        # derived by hand-tracing the rules over the example file: one leaf
        # per OBVIOUS, one per BY goal, one per cited fact in each BY
        assert len(checked.records) == 11

    def test_complete_and_meaningful(self, checked):
        assert checked.complete and checked.meaningful
        assert not checked.warnings

    def test_leaf_paths_and_kinds(self, checked):
        got = [(".".join(r.path), r.kind) for r in checked.records]
        assert got == [
            ("<1>1.<2>2.<3>1.<4>1", "obvious-goal"),
            ("<1>1.<2>2.<3>1.<4>2", "obvious-goal"),
            ("<1>1.<2>2.<3>1.<4>3", "use-fact-side"),
            ("<1>1.<2>2.<3>1.<4>3", "use-fact-side"),
            ("<1>1.<2>2.<3>1.<4>3", "by-goal"),
            ("<1>1.<2>2.<3>2", "use-fact-side"),
            ("<1>1.<2>2.<3>2", "by-goal"),
            ("<1>1.<2>3", "use-fact-side"),
            ("<1>1.<2>3", "by-goal"),
            ("<1>2", "use-fact-side"),
            ("<1>2", "by-goal"),
        ]

    def test_golden_case_leaf_obligation(self, checked):
        record = checked.records[0]
        expected = cantor_golden_obligation()
        assert alpha_equal_obligation(record.obligation, expected)
        assert record.obligation == expected
        assert render_obligation(record.obligation) == CANTOR_GOLDEN_TEXT

    def test_golden_filtered_expanded_display(self, checked):
        prepared = expand_all_usable(filter_obligation(checked.records[0].obligation))
        assert render_obligation(prepared) == (
            "NEW S, NEW f, f \\in [S -> SUBSET S], NEW x, x \\in S, "
            "x \\in {z \\in S : z \\notin f[z]} "
            "|- f[x] # {z \\in S : z \\notin f[z]}"
        )

    def test_root_obligation_closed(self, checked):
        check_well_formed(checked.root)
        assert checked.root.context == ()

    def test_every_leaf_is_closed(self, checked):
        for record in checked.records:
            check_well_formed(record.obligation)

    def test_derivation_is_deterministic(self):
        a = check_theorem(parse_theorem(cantor_text()))
        b = check_theorem(parse_theorem(cantor_text()))
        assert a.derivation == b.derivation

    def test_direct_claim_adds_root_negated_goal(self, checked):
        # checking the same proof as a bare claim (not a theorem) threads the
        # hidden negated goal through the top-level assertion as well
        thm = parse_theorem(cantor_text())
        derivation = check_claim(thm.proof, theorem_obligation(thm))
        golden = [
            r
            for r in leaf_obligations(derivation)
            if ".".join(r.path) == "<1>1.<2>2.<3>1.<4>1"
        ]
        ctx = golden[0].obligation.context
        assert ctx[0] == fact(Neg(theorem_obligation(thm).goal), hidden=True)
        # and the rest agrees with the theorem-mode golden
        assert ctx[1:] == cantor_golden_obligation().context
