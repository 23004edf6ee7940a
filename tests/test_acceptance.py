"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance and golden value is pinned here; the derived
values (the leaf count and the golden case obligation) were computed by hand
from the transformation rules before the implementation existed and are
frozen in test_engine.py's helpers.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from helpers import (
    alpha_equal_obligation,
    cantor_text,
    rand_expr,
    rand_obligation,
    rand_prop_sequent,
    truth_table_valid,
)
from test_engine import CANTOR_GOLDEN_TEXT, cantor_golden_obligation
from proofmgr.cli import main as cli_main
from proofmgr.engine import (
    check_claim,
    check_theorem,
    derivation_errors,
    leaf_obligations,
    transform_step,
)
from proofmgr.meta import (
    Def,
    Fact,
    New,
    Obligation,
    check_well_formed,
    context_binds,
    embed,
    expand_all_usable,
    fact,
    filter_obligation,
    hiding_defs,
    render_obligation,
    using_defs,
)
from proofmgr.parser import (
    AssertStep,
    BeginStepToken,
    Binder,
    By,
    CaseStep,
    GoalForm,
    HaveStep,
    NonLeaf,
    Obvious,
    Omitted,
    PickStep,
    Proof,
    QedStep,
    Step,
    SufficesStep,
    TakeStep,
    UseHideStep,
    WitnessItem,
    WitnessStep,
    parse_expression as pe,
    parse_theorem,
)
from proofmgr.prover import (
    Budget,
    Proved,
    check_trace,
    prove,
    sequent_from_obligation,
)
from proofmgr.report import build_report, prepared_obligation
from proofmgr.syntax import Ident, Implies, Neg, Quant, fresh_name

DATA = Path(__file__).parent / "data"
CORPUS = sorted((DATA / "corpus").glob("*.tla"))

# hand-derived leaf count for the golden example file: one leaf per OBVIOUS,
# one per BY goal, and one side obligation per fact cited in a BY
CANTOR_LEAF_COUNT = 11


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def prove_all_leaves(checked, budget: Budget = Budget()):
    outcomes = {}
    for idx, record in enumerate(checked.records):
        if record.omitted:
            continue
        seq = sequent_from_obligation(prepared_obligation(record))
        outcomes[idx] = prove(seq, budget)
    return outcomes


def test_criterion_1_cantor_end_to_end():
    with criterion(1, "golden example end to end"):
        start = time.monotonic()
        checked = check_theorem(parse_theorem(cantor_text()))
        assert checked.complete and checked.meaningful
        assert len(checked.records) == CANTOR_LEAF_COUNT
        outcomes = prove_all_leaves(checked)  # default budget
        assert all(isinstance(o, Proved) for o in outcomes.values())
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_golden_obligation():
    with criterion(2, "golden case-step obligation"):
        checked = check_theorem(parse_theorem(cantor_text()))
        record = next(
            r for r in checked.records if ".".join(r.path) == "<1>1.<2>2.<3>1.<4>1"
        )
        expected = cantor_golden_obligation()
        assert alpha_equal_obligation(record.obligation, expected)
        assert render_obligation(record.obligation) == CANTOR_GOLDEN_TEXT
        # the hidden negated goals and all four label definitions are present
        hidden_negs = [
            h
            for h in record.obligation.context
            if isinstance(h, Fact) and h.hidden and isinstance(h.obligation.goal, Neg)
        ]
        assert len(hidden_negs) == 3
        labels = [
            h.name
            for h in record.obligation.context
            if isinstance(h, Def) and h.name.startswith("<")
        ]
        assert labels == ["<1>1", "<2>2", "<3>1", "<4>1"]
        prepared = expand_all_usable(filter_obligation(record.obligation))
        assert render_obligation(prepared) == (
            "NEW S, NEW f, f \\in [S -> SUBSET S], NEW x, x \\in S, "
            "x \\in {z \\in S : z \\notin f[z]} "
            "|- f[x] # {z \\in S : z \\notin f[z]}"
        )


def test_criterion_3_filtration_conformance():
    with criterion(3, "filtration"):
        o = Obligation(
            (New("x"), Def("y", Obligation((), Ident("x")), hidden=True)),
            pe("x = y"),
        )
        assert filter_obligation(o) == Obligation((New("x"), New("y")), pe("x = y"))
        rng = random.Random(1003)
        for _ in range(1000):
            ob = rand_obligation(rng)
            filtered = filter_obligation(ob)
            assert filter_obligation(filtered) == filtered
            assert _hidden_free(filtered)


def _hidden_free(o: Obligation) -> bool:
    for h in o.context:
        if isinstance(h, (Fact, Def)) and h.hidden:
            return False
        if isinstance(h, Fact) and not _hidden_free(h.obligation):
            return False
        if isinstance(h, Def) and isinstance(h.definable, Obligation):
            if not _hidden_free(h.definable):
                return False
    return True


def test_criterion_4_embedding_conformance():
    with criterion(4, "embedding"):
        inner = Obligation((New("x"),), pe("P(x)"))
        o = Obligation((New("P"), Fact(inner, hidden=True)), pe(r"\A x : P(x)"))
        assert embed(o) == r"!!P. (!!x. P(x)) ==> \A x : P(x)"
        rng = random.Random(1004)
        for _ in range(1000):
            ob = rand_obligation(rng)
            names = {
                h.name
                for h in ob.context
                if isinstance(h, Def) and rng.random() < 0.5
            }
            reference = embed(ob)
            assert embed(Obligation(using_defs(ob.context, names), ob.goal)) == reference
            assert embed(Obligation(hiding_defs(ob.context, names), ob.goal)) == reference


def test_criterion_5_meaningfulness():
    with criterion(5, "meaningless steps rejected"):
        text = (
            "THEOREM ASSUME NEW B, NEW C, B, C PROVE B /\\ C\n"
            "<1>1. TAKE x\n"
            "<1>2. QED OBVIOUS\n"
        )
        checked = check_theorem(parse_theorem(text))
        assert not checked.meaningful
        report = build_report(None, checked, {})
        assert report.status == "MEANINGLESS"
        assert report.errors[0].path == "<1>1"
        # fuzz: shape-mismatched steps never crash, they become diagnostics
        rng = random.Random(1005)
        for _ in range(300):
            obligation = rand_obligation(rng, size=3)
            proof = _rand_mismatched_proof(rng)
            derivation = check_claim(proof, obligation, collect_errors=True)
            leaf_obligations(derivation)
            derivation_errors(derivation)


def _rand_mismatched_proof(rng: random.Random) -> Proof:
    scope = ["a", "b"]
    steps = []
    n = rng.randrange(1, 4)
    for k in range(n):
        token = BeginStepToken(1, str(k + 1))
        body = rng.choice(
            [
                TakeStep((Binder("x"),)),
                TakeStep((Binder("x", Ident("a")),)),
                WitnessStep((WitnessItem(Ident("a")),)),
                HaveStep(rand_expr(rng, scope, 2)),
                UseHideStep((rand_expr(rng, scope, 1),), (), hide=rng.random() < 0.5),
                AssertStep(GoalForm((), rand_expr(rng, scope, 2)), Obvious()),
                CaseStep(rand_expr(rng, scope, 2), Obvious()),
                SufficesStep(GoalForm((), rand_expr(rng, scope, 2)), Omitted()),
                PickStep((Binder("w"),), rand_expr(rng, scope + ["w"], 2), Obvious()),
            ]
        )
        steps.append(Step(token, body))
    steps.append(Step(BeginStepToken(1, str(n + 1)), QedStep(Obvious())))
    return NonLeaf(tuple(steps))


def test_criterion_6_rule_shape_properties():
    with criterion(6, "rule-shape properties on random claims"):
        rng = random.Random(1006)
        for _ in range(150):
            obligation, proof = _rand_meaningful_claim(rng)
            derivation = check_claim(proof, obligation, collect_errors=True)
            assert not derivation_errors(derivation)
            _assert_negated_goal_present(derivation)
            for record in leaf_obligations(derivation):
                check_well_formed(record.obligation)
            again = check_claim(proof, obligation, collect_errors=True)
            assert derivation == again


def _assert_negated_goal_present(derivation):
    if derivation.rule in ("assert1", "assert2", "case"):
        (subclaim,) = derivation.children
        neg = fact(Neg(derivation.input.goal), hidden=True)
        assert neg in subclaim.input.context
    if derivation.rule in ("suffices1", "suffices2"):
        neg = fact(Neg(derivation.input.goal), hidden=True)
        assert neg in derivation.output.context
    for child in derivation.children:
        _assert_negated_goal_present(child)


def _rand_meaningful_claim(rng: random.Random):
    ctx = [New("P"), New("Q"), New("S")]
    scope = ["P", "Q", "S"]
    for _ in range(rng.randrange(3)):
        ctx.append(fact(rand_expr(rng, scope, 2)))
    obligation = Obligation(tuple(ctx), rand_expr(rng, scope, 2))
    proof = _gen_proof(rng, obligation, level=1, depth=2)
    return obligation, proof


def _gen_proof(rng: random.Random, obligation: Obligation, level: int, depth: int) -> Proof:
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice([Obvious(), Obvious(), Omitted()])
    scope = ["P", "Q", "S"]
    steps: list[Step] = []
    cur = obligation
    label = 1
    for _ in range(rng.randrange(1, 3)):
        token = BeginStepToken(level, str(label) if rng.random() < 0.7 else None)
        label += 1
        body = _gen_step_body(rng, token, cur, scope, level, depth)
        if body is None:
            break
        steps.append(Step(token, body))
        cur = transform_step(token, body, cur).output
    qed_proof = rng.choice([Obvious(), By((rand_expr(rng, scope, 1),), ())])
    steps.append(Step(BeginStepToken(level, str(label)), QedStep(qed_proof)))
    return NonLeaf(tuple(steps))


def _gen_step_body(rng, token, cur: Obligation, scope, level, depth):
    goal = cur.goal
    # TAKE and PICK declare names the context does not bind yet
    binds = context_binds(cur.context)

    def with_subproof(make):
        # probe with a placeholder subproof to learn the subclaim obligation,
        # then generate a proof that matches its shape; make must be pure
        probe = transform_step(token, make(Omitted()), cur)
        (subclaim,) = probe.node.children
        return make(_gen_proof(rng, subclaim.input, level + 1, depth - 1))

    def mk_assert():
        gf = GoalForm((), rand_expr(rng, scope, 2))
        return with_subproof(lambda p: AssertStep(gf, p))

    def mk_case():
        e = rand_expr(rng, scope, 1)
        return with_subproof(lambda p: CaseStep(e, p))

    def mk_suffices():
        gf = GoalForm((), rand_expr(rng, scope, 2))
        return with_subproof(lambda p: SufficesStep(gf, p))

    def mk_pick():
        name = fresh_name("w", binds)
        e = rand_expr(rng, scope + [name], 1)
        return with_subproof(lambda p: PickStep((Binder(name),), e, p))

    options = [
        mk_assert,
        mk_case,
        mk_suffices,
        lambda: UseHideStep((rand_expr(rng, scope, 1),), (), hide=False),
        mk_pick,
    ]
    if isinstance(goal, Implies):
        options.append(lambda: HaveStep(goal.left))
    if isinstance(goal, Quant) and goal.kind == "forall":
        first = goal.binders[0]
        binder = Binder(fresh_name(first.name, binds), first.domain)
        options.append(lambda: TakeStep((binder,)))
    if isinstance(goal, Quant) and goal.kind == "exists":
        first = goal.binders[0]
        witness = (
            WitnessItem(Ident(rng.choice(scope)))
            if first.domain is None
            else WitnessItem(Ident(rng.choice(scope)), first.domain)
        )
        options.append(lambda: WitnessStep((witness,)))
    return rng.choice(options)()


def test_criterion_7_prover_soundness_and_calibration():
    with criterion(7, "prover soundness and calibration"):
        budget = Budget(max_depth=64, timeout_ms=30000, gamma_reuse=4)
        rng = random.Random(1007)
        agree = 0
        for _ in range(500):
            seq = rand_prop_sequent(rng)
            outcome = prove(seq, budget)
            valid = truth_table_valid(seq)
            assert isinstance(outcome, Proved) == valid
            if isinstance(outcome, Proved):
                assert check_trace(seq, outcome.trace)
            agree += 1
        assert agree == 500
        # budget monotonicity over the corpus leaf sequents
        sequents = []
        for path in CORPUS:
            checked = check_theorem(parse_theorem(path.read_text()))
            sequents.extend(
                sequent_from_obligation(prepared_obligation(r))
                for r in checked.records
            )
        for seq in sequents:
            results = [
                isinstance(prove(seq, Budget(d, 15000, 4)), Proved)
                for d in (3, 6, 12, 24)
            ]
            for small, big in zip(results, results[1:]):
                assert not (small and not big), seq


def test_criterion_8_leaves_imply_root():
    with criterion(8, "corpus: proved leaves imply provable root"):
        assert len(CORPUS) >= 10
        budget = Budget(max_depth=20, timeout_ms=15000, gamma_reuse=4)
        for path in CORPUS:
            checked = check_theorem(parse_theorem(path.read_text()))
            assert checked.complete and checked.meaningful, path.name
            outcomes = prove_all_leaves(checked, budget)
            if not all(isinstance(o, Proved) for o in outcomes.values()):
                continue  # the oracle only constrains fully-proved claims
            root_seq = sequent_from_obligation(
                expand_all_usable(filter_obligation(checked.root))
            )
            root_outcome = prove(root_seq, budget)
            assert isinstance(root_outcome, Proved), path.name


def test_criterion_9_single_omission_flags_exactly_one_leaf(capsys):
    with criterion(9, "single omission yields INCOMPLETE"):
        text = cantor_text()
        replacements = [
            ("<4>1. CASE x \\in T\n            OBVIOUS", "OMITTED", "<1>1.<2>2.<3>1.<4>1"),
            ("<4>2. CASE x \\notin T\n            OBVIOUS", "OMITTED", "<1>1.<2>2.<3>1.<4>2"),
            ("BY <4>1, <4>2", "OMITTED", "<1>1.<2>2.<3>1.<4>3"),
            ("BY <3>1", "OMITTED", "<1>1.<2>2.<3>2"),
            ("BY <2>2", "OMITTED", "<1>1.<2>3"),
            ("BY <1>1", "OMITTED", "<1>2"),
        ]
        for needle, sub, expected_path in replacements:
            if needle.endswith("OBVIOUS"):
                mutated = text.replace(needle, needle[: -len("OBVIOUS")] + sub, 1)
            else:
                mutated = text.replace(needle, sub, 1)
            assert mutated != text
            checked = check_theorem(parse_theorem(mutated))
            assert checked.meaningful and not checked.complete
            omitted = [r for r in checked.records if r.omitted]
            assert [".".join(r.path) for r in omitted] == [expected_path]
            outcomes = prove_all_leaves(checked)
            assert all(isinstance(o, Proved) for o in outcomes.values())
            report = build_report(
                None,
                checked,
                {
                    i: ("proved" if isinstance(o, Proved) else "unknown", None)
                    for i, o in outcomes.items()
                },
            )
            assert report.status == "INCOMPLETE"
            flagged = [l for l in report.leaves if l.omitted]
            assert [l.path for l in flagged] == [expected_path]
            # exit-code contract through the real front end
            target = DATA.parent / "_tmp_omitted.tla"
            try:
                target.write_text(mutated, encoding="utf-8")
                code = cli_main(["check", str(target), "--prove"])
            finally:
                target.unlink(missing_ok=True)
            capsys.readouterr()
            assert code == 1
