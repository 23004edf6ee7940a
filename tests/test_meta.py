"""Obligation-level operations: visibility, reflection, filtration,
expansion, embedding, well-formedness."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import rand_obligation
from proofmgr.meta import (
    ArityMismatch,
    Def,
    DuplicateBinder,
    Fact,
    Lambda,
    New,
    NotWellFormed,
    Obligation,
    UnknownOperator,
    alpha_equal_obligation,
    check_well_formed,
    embed,
    expand_all_usable,
    expand_definition,
    fact,
    filter_obligation,
    hiding_defs,
    obligation_free_identifiers,
    obligation_to_expression,
    reflect_binders,
    render_obligation,
    unhide,
    using_defs,
)
from proofmgr.parser import parse_expression as pe
from proofmgr.syntax import (
    And,
    Binder,
    Ident,
    In,
    OpApp,
    Quant,
    SetComp,
    SetImage,
    alpha_equal,
    free_identifiers,
    pretty,
)


def ctx_of(o: Obligation):
    return o.context


class TestVisibility:
    def test_unhide_clears_flags(self):
        ctx = (New("x"), fact(pe("P(x)"), hidden=True))
        assert unhide(ctx) == (New("x"), fact(pe("P(x)")))

    def test_unhide_identity_when_nothing_hidden(self):
        ctx = (New("x"), fact(pe("P(x)")))
        assert unhide(ctx) == ctx

    def test_unhide_idempotent(self):
        rng = random.Random(0)
        for _ in range(100):
            ctx = rand_obligation(rng).context
            assert unhide(unhide(ctx)) == unhide(ctx)

    def test_using_defs(self):
        d = Obligation((), pe("x = x"))
        ctx = (New("x"), Def("T", d, hidden=True))
        assert using_defs(ctx, {"T"}) == (New("x"), Def("T", d, hidden=False))

    def test_hiding_defs(self):
        d = Obligation((), pe("x = x"))
        ctx = (New("x"), Def("T", d, hidden=False))
        assert hiding_defs(ctx, {"T"}) == (New("x"), Def("T", d, hidden=True))

    def test_empty_name_set_is_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            ctx = rand_obligation(rng).context
            assert using_defs(ctx, set()) == ctx
            assert hiding_defs(ctx, set()) == ctx

    def test_absent_names_ignored(self):
        ctx = (New("x"),)
        assert using_defs(ctx, {"nope"}) == ctx


class TestReflectBinders:
    def test_empty(self):
        assert reflect_binders(()) == ()

    def test_bounded(self):
        got = reflect_binders((Binder("x", Ident("e")),))
        assert got == (New("x"), fact(pe(r"x \in e")))

    def test_mixed(self):
        got = reflect_binders((Binder("x"), Binder("y", Ident("S"))))
        assert got == (New("x"), New("y"), fact(pe(r"y \in S")))

    def test_duplicate_binder(self):
        with pytest.raises(DuplicateBinder):
            reflect_binders((Binder("x"), Binder("x")))


class TestFiltration:
    def test_hidden_definition_becomes_declaration(self):
        o = Obligation(
            (New("x"), Def("y", Obligation((), Ident("x")), hidden=True)),
            pe("x = y"),
        )
        assert filter_obligation(o) == Obligation((New("x"), New("y")), pe("x = y"))

    def test_identity_without_hidden(self):
        o = Obligation((New("x"), fact(pe("P(x)"))), pe("P(x)"))
        assert filter_obligation(o) == o

    def test_recurses_into_nested_facts(self):
        inner = Obligation((New("u"), fact(pe("Q(u)"), hidden=True)), pe("Q(u)"))
        o = Obligation((New("Q"), Fact(inner)), pe("TRUE"))
        got = filter_obligation(o)
        assert got.context[1].obligation.context == (New("u"),)

    def test_shares_what_has_nothing_hidden(self):
        shared = Fact(Obligation((New("u"),), pe("P(u)")))
        d = Def("D", Obligation((), pe("x = x")))
        plain = Obligation((New("P"), New("Q"), New("x"), shared, d), pe("TRUE"))
        assert filter_obligation(plain) is plain
        inner = Obligation((New("u"), fact(pe("Q(u)"), hidden=True)), pe("Q(u)"))
        o = Obligation(plain.context + (Fact(inner),), pe("TRUE"))
        got = filter_obligation(o)
        # only the path to the hidden fact is rebuilt
        assert all(a is b for a, b in zip(got.context[:5], o.context))
        assert got.context[5] is not o.context[5]
        assert got.context[5].obligation.context == (inner.context[0],)
        assert got.context[5].obligation.context[0] is inner.context[0]
        assert got.goal is o.goal

    def test_kept_hiding_agrees_with_a_full_walk(self):
        # nested facts whose own contexts hide something at varying depths
        rng = random.Random(5)
        for _ in range(200):
            inner = [rand_obligation(rng) for _ in range(2)]
            o = Obligation(tuple(Fact(i) for i in inner), pe("TRUE"))
            for x in (*inner, o):
                assert x.hides == has_hidden(x)
                assert (filter_obligation(x) is x) == (not has_hidden(x))
            assert not has_hidden(filter_obligation(o))

    def test_idempotent_and_hidden_free(self):
        rng = random.Random(2)
        for _ in range(200):
            o = rand_obligation(rng)
            f = filter_obligation(o)
            assert filter_obligation(f) == f
            assert not has_hidden(f)


def has_hidden(o: Obligation) -> bool:
    for h in o.context:
        if isinstance(h, (Fact, Def)) and h.hidden:
            return True
        if isinstance(h, Fact) and has_hidden(h.obligation):
            return True
        if isinstance(h, Def) and isinstance(h.definable, Obligation):
            if has_hidden(h.definable):
                return True
    return False


class TestExpansion:
    def test_expand_in_goal(self):
        o = Obligation(
            (
                New("S"),
                New("f"),
                New("x"),
                Def("T", Obligation((), pe(r"{z \in S : z \notin f[z]}"))),
            ),
            pe("f[x] # T"),
        )
        got = expand_definition(o, "T")
        assert got.goal == pe(r"f[x] # {z \in S : z \notin f[z]}")
        assert got.context == o.context  # the definition itself remains

    def test_unused_name_changes_nothing(self):
        o = Obligation(
            (New("x"), Def("D", Obligation((), pe("x = x")))), pe("P(x)")
        )
        assert expand_definition(o, "D") == o

    def test_fact_citation_inlines_the_obligation(self):
        # hand-traced: expanding a step label cited as a bare fact replaces
        # the fact with the labelled obligation itself
        labelled = Obligation((New("x"), fact(pe(r"x \in S"))), pe("f[x] # T"))
        o = Obligation(
            (
                New("S"),
                New("f"),
                New("T"),
                Def("<3>1", labelled),
                fact(Ident("<3>1")),
            ),
            pe("TRUE"),
        )
        got = expand_definition(o, "<3>1")
        assert got.context[4] == Fact(labelled)

    def test_lambda_application(self):
        o = Obligation(
            (New("S"), Def("D", Lambda(("a",), pe(r"a \in S")))),
            pe("D(S)"),
        )
        got = expand_definition(o, "D")
        assert got.goal == pe(r"S \in S")

    def test_lambda_arity_mismatch(self):
        o = Obligation(
            (New("S"), Def("D", Lambda(("a", "b"), pe("a = b")))),
            pe("D(S)"),
        )
        with pytest.raises(ArityMismatch):
            expand_definition(o, "D")

    @pytest.mark.parametrize(
        "nested, expanded",
        [
            # a nested declaration
            (
                Fact(Obligation((New("S"),), pe("F(S)"))),
                Fact(Obligation((New("S1"),), pe("S1 = S"))),
            ),
            # a nested definition
            (
                Fact(Obligation((Def("S", Obligation((), Ident("c"))),), pe("F(S)"))),
                Fact(Obligation((Def("S1", Obligation((), Ident("c"))),), pe("S1 = S"))),
            ),
            # a LAMBDA parameter
            (Def("G", Lambda(("S",), pe("F(S)"))), Def("G", Lambda(("S1",), pe("S1 = S")))),
            # nothing to capture: names stay
            (
                Fact(Obligation((New("S"),), pe("S = c"))),
                Fact(Obligation((New("S"),), pe("S = c"))),
            ),
        ],
    )
    def test_nested_binders_are_renamed_apart(self, nested, expanded):
        o = Obligation(
            (New("S"), New("c"), Def("F", Lambda(("x",), pe("x = S"))), nested),
            pe("TRUE"),
        )
        assert expand_definition(o, "F").context[3] == expanded

    def test_unknown_operator(self):
        with pytest.raises(UnknownOperator):
            expand_definition(Obligation((), pe("TRUE")), "nope")

    def test_expand_all_usable_drops_spent_definitions(self):
        o = Obligation(
            (
                New("S"),
                Def("T", Obligation((), Ident("S"))),
                fact(pe(r"x \in T")),
                New("x"),
            ),
            pe(r"x \in T"),
        )
        # note: deliberately scrambled; rebuild well-formed
        o = Obligation(
            (
                New("S"),
                New("x"),
                Def("T", Obligation((), Ident("S"))),
                fact(pe(r"x \in T")),
            ),
            pe(r"x \in T"),
        )
        got = expand_all_usable(o)
        assert got == Obligation(
            (New("S"), New("x"), fact(pe(r"x \in S"))), pe(r"x \in S")
        )

    def test_hidden_definition_not_expanded_by_expand_all(self):
        o = Obligation(
            (New("S"), Def("T", Obligation((), Ident("S")), hidden=True)),
            pe(r"T \subseteq S"),
        )
        assert expand_all_usable(o) == o


BINDER_NAMES = ["S", "x", "y"]


@st.composite
def binder_chains(draw):
    """F(a) under one to four Quant, SetComp and SetImage binders whose names
    may be S, the name free in F's body; returns the term and the term
    expected from expanding F, built by hand with every bound S called T."""
    arg = draw(st.sampled_from(BINDER_NAMES + ["c"]))
    bound = set()
    chain = []
    for _ in range(draw(st.integers(1, 4))):
        chain.append((draw(st.integers(0, 2)), draw(st.sampled_from(BINDER_NAMES))))
        bound.add(chain[-1][1])
    term = OpApp("F", (Ident(arg),))
    expected_arg = "T" if arg == "S" and "S" in bound else arg
    expected = pe(f"{expected_arg} = S")
    for kind, var in reversed(chain):
        renamed = "T" if var == "S" else var
        if kind == 0:
            term = Quant("forall", (Binder(var, Ident("D")),), term)
            expected = Quant("forall", (Binder(renamed, Ident("D")),), expected)
        elif kind == 1:
            term = SetComp(var, Ident("D"), term)
            expected = SetComp(renamed, Ident("D"), expected)
        else:
            term = SetImage(term, var, Ident("D"))
            expected = SetImage(expected, renamed, Ident("D"))
    return term, expected


class TestExpansionAvoidsCapture:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(binder_chains())
    def test_free_name_of_the_definition_stays_free(self, case):
        term, expected = case
        o = Obligation(
            (New("S"), New("c"), New("D"), Def("F", Lambda(("x",), pe("x = S")))),
            term,
        )
        got = expand_all_usable(o)
        assert got.context == (New("S"), New("c"), New("D"))
        assert "S" in free_identifiers(got.goal)
        assert alpha_equal(got.goal, expected), pretty(got.goal)


def expr_of(draw, scope, depth):
    """A formula over scope, which maps each name to None (a variable), 0 (an
    obligation definition) or a LAMBDA's arity; definitions are used as the
    expansion requires.  Binders may take any name in scope."""
    kind = draw(st.integers(0, 4 if depth > 0 else 1))
    if kind <= 1:
        name = draw(st.sampled_from(sorted(scope)))
        if scope[name]:
            return OpApp(name, tuple(term_of(draw, scope) for _ in range(scope[name])))
        return Ident(name) if kind == 0 else In(Ident(name), term_of(draw, scope))
    if kind == 2:
        return And(expr_of(draw, scope, depth - 1), expr_of(draw, scope, depth - 1))
    var = draw(st.sampled_from(sorted(scope) + ["y"]))
    body = expr_of(draw, {**scope, var: None}, depth - 1)
    if kind == 3:
        domain = term_of(draw, scope) if draw(st.booleans()) else None
        return Quant(draw(st.sampled_from(["forall", "exists"])), (Binder(var, domain),), body)
    return In(term_of(draw, scope), SetComp(var, term_of(draw, scope), body))


def term_of(draw, scope):
    return Ident(draw(st.sampled_from(sorted(n for n, a in scope.items() if not a))))


def nested_of(draw, scope, depth):
    """An obligation over scope whose context may declare or define names
    of scope again (nested binders that expansion must rename apart) and
    may hold facts with contexts of their own."""
    local = dict(scope)
    ctx = []
    bound = set()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 3 if depth > 0 else 2))
        if kind <= 1:
            name = draw(st.sampled_from(sorted(scope) + ["y"]))
            if name in bound:
                continue
            bound.add(name)
            if kind == 0:
                ctx.append(New(name))
                local[name] = None
            else:
                ctx.append(Def(name, Obligation((), expr_of(draw, local, 1))))
                local[name] = 0
        elif kind == 2:
            ctx.append(fact(expr_of(draw, local, 1)))
        else:
            ctx.append(Fact(nested_of(draw, local, depth - 1)))
    return Obligation(tuple(ctx), expr_of(draw, local, 2))


@st.composite
def usable_obligations(draw):
    """Well-formed obligations whose top-level context binds each name once:
    declarations, LAMBDA and obligation definitions (usable or hidden) whose
    bodies may use the definitions before them, facts with nested contexts,
    and bare citations of obligation definitions."""
    scope = {}
    ctx = []
    for k in range(draw(st.integers(1, 7))):
        kind = draw(st.integers(0, 4)) if scope else 0
        hidden = draw(st.integers(0, 3)) == 0
        cited = sorted(n for n, a in scope.items() if a == 0)
        if kind == 0:
            ctx.append(New(f"c{k}"))
            scope[f"c{k}"] = None
        elif kind == 1:
            params = ("p", "q")[: draw(st.integers(1, 2))]
            body = expr_of(draw, {**scope, **dict.fromkeys(params)}, 2)
            ctx.append(Def(f"D{k}", Lambda(params, body), hidden))
            scope[f"D{k}"] = len(params)
        elif kind == 2:
            ctx.append(Def(f"D{k}", nested_of(draw, scope, 1), hidden))
            scope[f"D{k}"] = 0
        elif kind == 3 or not cited:
            ctx.append(Fact(nested_of(draw, scope, 2), hidden))
        else:
            ctx.append(fact(Ident(draw(st.sampled_from(cited))), hidden))
    return Obligation(tuple(ctx), expr_of(draw, scope, 3))


def expand_by_fold(o: Obligation, drop_unused: bool) -> Obligation:
    """The reference: expand_definition once per usable definition, left to
    right, then drop the definitions nothing after them mentions."""
    for h in o.context:
        if isinstance(h, Def) and not h.hidden:
            o = expand_definition(o, h.name)
    if not drop_unused:
        return o
    kept = []
    needed = set(free_identifiers(o.goal))
    for h in reversed(o.context):
        if isinstance(h, Def) and h.name not in needed:
            continue
        kept.append(h)
        match h:
            case New(name):
                needed.discard(name)
            case Def(name, definable, _):
                needed.discard(name)
                needed |= definable.free
            case Fact(obl, _):
                needed |= obl.free
    return Obligation(tuple(reversed(kept)), o.goal)


class TestOneWalkExpansion:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(usable_obligations(), st.booleans())
    def test_equals_the_fold_of_expand_definition(self, o, drop_unused):
        check_well_formed(o)
        assert expand_all_usable(o, drop_unused) == expand_by_fold(o, drop_unused)


class TestEmbedding:
    def test_meta_binder_example(self):
        inner = Obligation((New("x"),), pe("P(x)"))
        o = Obligation((New("P"), Fact(inner, hidden=True)), pe(r"\A x : P(x)"))
        assert embed(o) == r"!!P. (!!x. P(x)) ==> \A x : P(x)"

    def test_empty_context_is_bare_expression(self):
        goal = r"\A x : x = x \/ TRUE"
        assert embed(Obligation((), pe(goal))) == goal

    def test_definition_binder(self):
        o = Obligation(
            (New("S"), Def("T", Obligation((), Ident("S")))), pe(r"T \subseteq S")
        )
        assert embed(o) == r"!!S. !!T. (T == S) ==> T \subseteq S"

    def test_lambda_definable(self):
        o = Obligation(
            (New("S"), Def("D", Lambda(("a", "b"), pe("a = b")))), pe("TRUE")
        )
        assert embed(o) == r"!!S. !!D. (D == \lambda a b. a = b) ==> TRUE"

    def test_hidden_and_usable_emit_identically(self):
        rng = random.Random(3)
        for _ in range(200):
            o = rand_obligation(rng)
            assert embed(o) == embed(Obligation(unhide(o.context), o.goal))

    def test_visibility_neutrality(self):
        rng = random.Random(4)
        for _ in range(200):
            o = rand_obligation(rng)
            names = {
                h.name for h in o.context if isinstance(h, Def) and rng.random() < 0.5
            }
            assert embed(Obligation(using_defs(o.context, names), o.goal)) == embed(o)
            assert embed(Obligation(hiding_defs(o.context, names), o.goal)) == embed(o)

    def test_not_well_formed_rejected(self):
        with pytest.raises(NotWellFormed):
            embed(Obligation((), pe("P(x)")))


class TestWellFormedness:
    def test_operations_preserve_well_formedness(self):
        rng = random.Random(5)
        for _ in range(200):
            o = rand_obligation(rng)
            check_well_formed(o)
            check_well_formed(Obligation(unhide(o.context), o.goal))
            names = {h.name for h in o.context if isinstance(h, Def)}
            check_well_formed(Obligation(using_defs(o.context, names), o.goal))
            check_well_formed(Obligation(hiding_defs(o.context, names), o.goal))
            check_well_formed(filter_obligation(o))

    def test_double_binding_rejected(self):
        with pytest.raises(NotWellFormed):
            check_well_formed(Obligation((New("x"), New("x")), pe("x = x")))

    def test_nested_contexts_may_shadow(self):
        inner = Obligation((New("x"),), pe("P(x)"))
        o = Obligation((New("P"), New("x"), Fact(inner)), pe("P(x)"))
        check_well_formed(o)

    def test_free_identifiers(self):
        o = Obligation((New("x"), fact(pe("Q(x, y)"))), pe("R(x)"))
        assert obligation_free_identifiers(o) == {"Q", "y", "R"}


def check_by_recursion(o: Obligation, scope: frozenset = frozenset()) -> None:
    """Reference: check_well_formed checking every nested obligation again,
    scope checks included."""
    bound: set = set()
    for h in o.context:
        inner = scope | bound
        match h:
            case New(name):
                if name in bound:
                    raise NotWellFormed(f"{name} bound twice")
                bound.add(name)
            case Def(name, definable, _):
                if name in bound:
                    raise NotWellFormed(f"{name} bound twice")
                loose = definable.free - inner
                if loose:
                    raise NotWellFormed(f"definition of {name} mentions unbound {sorted(loose)}")
                if isinstance(definable, Obligation):
                    check_by_recursion(definable, inner)
                bound.add(name)
            case Fact(obl, _):
                loose = obl.free - inner
                if loose:
                    raise NotWellFormed(f"fact mentions unbound {sorted(loose)}")
                check_by_recursion(obl, inner)
    loose = free_identifiers(o.goal) - (scope | bound)
    if loose:
        raise NotWellFormed(f"goal mentions unbound {sorted(loose)}")


@st.composite
def loose_obligations(draw, depth=2):
    """Obligations over three names, well-formed or not: at any depth a name
    may be bound twice in one context or used unbound."""
    names = st.sampled_from(["x", "y", "P"])
    ctx = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2 if depth else 1))
        if kind == 0:
            ctx.append(New(draw(names)))
        elif kind == 1:
            if depth:
                body = draw(loose_obligations(depth - 1))
            else:
                body = Obligation((), Ident(draw(names)))
            ctx.append(Def(draw(names), body))
        else:
            ctx.append(Fact(draw(loose_obligations(depth - 1))))
    return Obligation(tuple(ctx), pe(f"{draw(names)} = {draw(names)}"))


def first_error(check, o: Obligation):
    try:
        check(o)
    except NotWellFormed as e:
        return str(e)
    return None


class TestKeptChecks:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(loose_obligations(), st.frozensets(st.sampled_from(["x", "y", "P"])))
    def test_first_error_is_that_of_the_full_recursion(self, o, scope):
        want = first_error(lambda ob: check_by_recursion(ob, scope), o)
        assert first_error(lambda ob: check_well_formed(ob, scope), o) == want
        # again, with every nested obligation's check kept on it
        assert first_error(lambda ob: check_well_formed(ob, scope), o) == want


class TestAlphaObligation:
    def test_renamed_declaration(self):
        a = Obligation((New("x"),), pe("x = x"))
        b = Obligation((New("y"),), pe("y = y"))
        assert alpha_equal_obligation(a, b)

    def test_hidden_flag_matters(self):
        a = Obligation((fact(pe("TRUE"), hidden=True),), pe("TRUE"))
        b = Obligation((fact(pe("TRUE")),), pe("TRUE"))
        assert not alpha_equal_obligation(a, b)

    def test_order_matters(self):
        a = Obligation((New("x"), New("y")), pe("x = y"))
        b = Obligation((New("y"), New("x")), pe("x = y"))
        # the two differ: the goal's first name refers to different positions
        assert alpha_equal_obligation(a, b) == alpha_equal_obligation(b, a)


class TestClosureExpression:
    def test_declarations_become_universals(self):
        o = Obligation((New("x"), fact(pe(r"x \in S"))), pe("f[x] # T"))
        assert obligation_to_expression(o) == pe(r"\A x : x \in S => f[x] # T")

    def test_definitions_expanded_away(self):
        o = Obligation(
            (New("S"), Def("T", Obligation((), Ident("S")))), pe(r"T \subseteq T")
        )
        assert obligation_to_expression(o) == pe(r"\A S : S \subseteq S")


def test_render_obligation_roundtrips_visibility_brackets():
    o = Obligation(
        (New("x"), fact(pe("P(x)"), hidden=True), Def("D", Obligation((), Ident("x")), hidden=True)),
        pe("P(x)"),
    )
    text = render_obligation(o)
    assert "[P(x)]" in text and "[D == x]" in text


def test_kept_rendering_is_that_of_a_fresh_copy():
    rng = random.Random(7)
    for _ in range(200):
        o = Obligation(tuple(Fact(rand_obligation(rng)) for _ in range(2)), pe("TRUE"))
        fresh = copy.deepcopy(o)
        first = render_obligation(o)
        # the second rendering reads every nested obligation's kept text
        assert render_obligation(o) == first == render_obligation(fresh)
        assert all(h.obligation.rendered == render_obligation(h.obligation) for h in o.context)
