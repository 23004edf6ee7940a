"""Tableau prover: propositional and first-order search, equality, set
rules, trace replay, budgets."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import DATA, rand_expr, rand_prop_sequent, rand_term, truth_table_valid
from proofmgr import prover
from proofmgr.engine import check_theorem
from proofmgr.parser import parse_expression as pe, parse_theorem
from proofmgr.report import prepared_obligation
from proofmgr.prover import (
    Budget,
    Malformed,
    Proved,
    Sequent,
    Unknown,
    check_trace,
    normalize,
    prove,
    replay_trace,
    sequent_from_obligation,
    _ATOMS,
    _Search,
    _Subst,
    _Tableau,
    _complements,
    _ground,
    _initial,
    _search,
)
from proofmgr.meta import Def, New, Obligation, fact
from proofmgr.syntax import (
    Binder,
    Eq,
    Ident,
    Implies,
    In,
    Neg,
    OpApp,
    Quant,
    free_identifiers,
    map_children,
)


BIG = Budget(max_depth=60, timeout_ms=20000, gamma_reuse=4)


def proved(seq: Sequent, budget: Budget = BIG) -> Proved:
    out = prove(seq, budget)
    assert isinstance(out, Proved), out
    return out


class TestNormalization:
    def test_bounded_forall(self):
        assert normalize(pe(r"\A x \in S : P(x)")) == pe(r"\A x : x \in S => P(x)")

    def test_bounded_exists(self):
        assert normalize(pe(r"\E x \in S : P(x)")) == pe(r"\E x : x \in S /\ P(x)")

    def test_multi_binder_nests(self):
        got = normalize(pe(r"\A x, y \in S : P(x, y)"))
        assert got == pe(r"\A x : \A y : y \in S => P(x, y)")

    def test_negative_relations(self):
        assert normalize(pe("a # b")) == Neg(pe("a = b"))
        assert normalize(pe(r"a \notin b")) == Neg(pe(r"a \in b"))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_memoised_equals_the_plain_function(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        got = normalize(e)
        # the plain function, its recursion included, with the cache bypassed
        memoised = prover.normalize
        prover.normalize = memoised.__wrapped__
        try:
            want = memoised.__wrapped__(e)
        finally:
            prover.normalize = memoised
        assert got == want
        # an equal term built again gets the very same normal form
        assert normalize(rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)) is got


class TestPropositional:
    def test_excluded_middle_at_small_depth(self):
        out = prove(Sequent((), (), pe(r"P \/ ~P")), Budget(2, 5000, 1))
        assert isinstance(out, Proved)

    def test_modus_ponens(self):
        proved(Sequent((), (pe("P"), pe("P => Q")), pe("Q")))

    def test_iff_unfolds(self):
        proved(Sequent((), (pe("P <=> Q"), pe("Q")), pe("P")))

    def test_invalid_is_unknown_not_proved(self):
        out = prove(Sequent((), (), pe("P => Q")), BIG)
        assert isinstance(out, Unknown)

    def test_false_hypothesis_closes(self):
        proved(Sequent((), (pe("FALSE"),), pe("P")))

    def test_goal_true_closes(self):
        proved(Sequent((), (), pe("TRUE")))

    def test_oracle_agreement_sample(self):
        rng = random.Random(23)
        for _ in range(120):
            seq = rand_prop_sequent(rng)
            out = prove(seq, BIG)
            assert not isinstance(out, Malformed)
            assert isinstance(out, Proved) == truth_table_valid(seq), seq


class TestFirstOrder:
    def test_universal_instantiation(self):
        proved(
            Sequent(
                ("S", "P", "c"),
                (pe(r"\A x \in S : P(x)"), pe(r"c \in S")),
                pe("P(c)"),
            )
        )

    def test_existential_witness_via_unification(self):
        proved(Sequent(("S", "c"), (pe(r"c \in S"),), pe(r"\E x : x \in S")))

    def test_quantifier_swap_invalid_direction_unknown(self):
        seq = Sequent(
            ("P",),
            (pe(r"\A x : \E y : P(x, y)"),),
            pe(r"\E y : \A x : P(x, y)"),
        )
        out = prove(seq, Budget(10, 3000, 2))
        assert isinstance(out, Unknown)

    def test_nested_quantifier_goal(self):
        proved(
            Sequent(
                ("P",),
                (pe(r"\A x : \A y : P(x, y)"),),
                pe(r"\A y : \A x : P(x, y)"),
            )
        )


class TestEquality:
    def test_reflexivity(self):
        proved(Sequent(("c",), (), pe("c = c")))

    def test_congruence_through_application(self):
        proved(Sequent(("f", "a", "b"), (pe("a = b"),), pe("f[a] = f[b]")))

    def test_chained_equalities(self):
        proved(
            Sequent(
                ("a", "b", "c", "P"),
                (pe("a = b"), pe("b = c"), pe("P(a)")),
                pe("P(c)"),
            )
        )

    def test_membership_modulo_equality(self):
        proved(
            Sequent(("a", "b", "S"), (pe("a = b"), pe(r"a \in S")), pe(r"b \in S"))
        )

    # Atoms of different heads are complementary only through a branch
    # equality; the closure index must still offer the pair.
    def test_congruence_closes_atoms_of_different_heads(self):
        seq = Sequent(("P", "Q"), (pe("P = Q"), pe("Q")), pe("P"))
        out = proved(seq)
        assert out.trace == "close\t2\t1\t\n"
        assert check_trace(seq, out.trace)

    def test_congruence_binds_across_different_heads(self):
        # ~P closes against Q(?1) only by ?1 := c, through P = Q(c)
        seq = Sequent(("P", "Q", "c"), (pe("P = Q(c)"), pe(r"\A x : Q(x)")), pe("P"))
        out = proved(seq)
        assert out.trace == "gamma\t1\t?1\t3:Q(?1)\nclose\t2\t3\t?1 := c\n"
        assert check_trace(seq, out.trace)


class TestSetRules:
    def test_comprehension_forward(self):
        proved(
            Sequent(
                ("S", "c"),
                (pe(r"c \in {z \in S : z # c}"),),
                pe(r"c \in S"),
            )
        )

    def test_comprehension_backward(self):
        proved(
            Sequent(
                ("S", "P", "c"),
                (pe(r"c \in S"), pe("P(c)")),
                pe(r"c \in {z \in S : P(z)}"),
            )
        )

    def test_image_set_membership(self):
        proved(
            Sequent(
                ("S", "f", "c"),
                (pe(r"c \in S"),),
                pe(r"f[c] \in {f[x] : x \in S}"),
            )
        )

    def test_image_set_elimination(self):
        proved(
            Sequent(
                ("S", "f", "P", "e"),
                (pe(r"e \in {f[x] : x \in S}"), pe(r"\A y \in S : P(f[y])")),
                pe("P(e)"),
            )
        )

    def test_subset_reflexive(self):
        proved(Sequent(("S",), (), pe(r"S \subseteq S")))

    def test_subset_transitive(self):
        proved(
            Sequent(
                ("A", "B", "C"),
                (pe(r"A \subseteq B"), pe(r"B \subseteq C")),
                pe(r"A \subseteq C"),
            )
        )

    def test_powerset_membership(self):
        proved(Sequent(("S",), (), pe(r"S \in SUBSET S")))

    def test_function_space_application(self):
        proved(
            Sequent(
                ("S", "T", "f", "c"),
                (pe(r"f \in [S -> T]"), pe(r"c \in S")),
                pe(r"f[c] \in T"),
            )
        )

    def test_extensionality_on_goal_equality(self):
        proved(Sequent(("S",), (), pe(r"{z \in S : TRUE} = S")))

    def test_empty_set_goal_stays_unknown(self):
        # {} is an uninterpreted constant: no rule sequence within the budget
        # can close the tableau, so the search must exhaust
        out = prove(Sequent((), (), pe(r"\E x : x \in {}")), Budget(6, 5000, 2))
        assert isinstance(out, Unknown)
        assert out.reason == "exhausted"

    def test_cantor_diagonal(self):
        T = r"{z \in S : z \notin f[z]}"
        proved(
            Sequent(
                ("S", "f"),
                (pe(r"f \in [S -> SUBSET S]"), pe(rf"\A x \in S : f[x] # {T}")),
                pe(r"\E A \in SUBSET S : \A x \in S : f[x] # A"),
            ),
            Budget(12, 10000, 4),
        )


class TestTraces:
    def test_every_proved_trace_replays(self):
        rng = random.Random(29)
        for _ in range(60):
            seq = rand_prop_sequent(rng)
            out = prove(seq, BIG)
            if isinstance(out, Proved):
                assert check_trace(seq, out.trace)

    def test_trace_is_lines_of_rule_applications(self):
        out = proved(Sequent((), (pe("P"), pe("P => Q")), pe("Q")))
        for line in out.trace.strip().splitlines():
            fields = line.split("\t")
            assert fields[0] in {
                "alpha", "beta", "gamma", "delta", "close", "close-eq",
                "close-false", "subset-of", "subset-of-neg", "set-of-all",
                "set-of-all-neg", "power-set", "power-set-neg", "subseteq",
                "subseteq-neg", "func-space", "extensionality", "rewrite",
            }
            int(fields[1])  # principal index

    def test_deleting_a_closure_step_fails_replay(self):
        seq = Sequent((), (pe("P"), pe("P => Q")), pe("Q"))
        out = proved(seq)
        lines = out.trace.strip().splitlines()
        closures = [i for i, l in enumerate(lines) if l.startswith("close")]
        mutated = "\n".join(l for i, l in enumerate(lines) if i != closures[-1])
        result = replay_trace(seq, mutated)
        assert not result.ok and result.error

    def test_altered_gamma_instantiation_fails_replay(self):
        seq = Sequent(
            ("S", "P", "c"),
            (pe(r"\A x \in S : P(x)"), pe(r"c \in S")),
            pe("P(c)"),
        )
        out = proved(seq)
        lines = out.trace.strip().splitlines()
        mutated = []
        changed = False
        for line in lines:
            fields = line.split("\t")
            if not changed and fields[0] == "close" and fields[-1]:
                # tamper with the recorded unifier binding
                fields[-1] = fields[-1].replace(":= c", ":= S")
                changed = True
            mutated.append("\t".join(fields))
        assert changed
        assert not check_trace(seq, "\n".join(mutated))

    def test_foreign_trace_rejected_with_diagnostic(self):
        seq = Sequent((), (), pe("TRUE"))
        result = replay_trace(seq, "alpha\t0\t1:nonsense")
        assert not result.ok
        assert "line 1" in result.error

    def test_trace_text_is_the_formula_when_its_rule_fired(self):
        # the closing line binds ?1; the gamma line still shows P(?1)
        seq = Sequent(("P", "a"), (pe(r"\A x : P(x)"),), pe("P(a)"))
        out = proved(seq)
        assert out.trace == "gamma\t0\t?1\t2:P(?1)\nclose\t1\t2\t?1 := a\n"
        assert check_trace(seq, out.trace)
        # the same line rendered under the final bindings does not replay
        assert not check_trace(seq, out.trace.replace("2:P(?1)", "2:P(a)"))

    def test_golden_trace_text(self):
        # the trace serialization is normative: pin one closed tableau
        out = proved(Sequent((), (), pe(r"P \/ ~P")))
        assert out.trace == "alpha\t0\t1:~P\t2:~(~P)\nclose\t1\t2\t\n"


# A membership reaches a comprehension only through two equalities: the
# rewrite rule works on the whole congruence class, so replay must too.
EQ_CHAIN = Sequent(
    ("A", "B", "S", "P", "c"),
    (pe("A = B"), pe(r"B = {x \in S : P(x)}"), pe(r"c \in A")),
    pe("P(c)"),
)


class TestReplayAgreesWithSearch:
    def test_rewrite_through_equality_chain_replays(self):
        out = proved(EQ_CHAIN)
        assert out.trace.startswith("rewrite\t")
        result = replay_trace(EQ_CHAIN, out.trace)
        assert result.ok, result.error

    @pytest.mark.parametrize(
        "old, new",
        [
            (r"{x \in S : P(x)}", "SUBSET S"),  # a shape outside the class
            (r"{x \in S : P(x)}", "[S -> S]"),
            ("rewrite\t2\t", "rewrite\t0\t"),  # principal is an equality
            ("rewrite\t2\t", "rewrite\t3\t"),  # principal is the negated goal
        ],
    )
    def test_mutated_rewrite_line_rejected(self, old, new):
        lines = proved(EQ_CHAIN).trace.splitlines()
        assert old in lines[0]
        lines[0] = lines[0].replace(old, new)
        result = replay_trace(EQ_CHAIN, "\n".join(lines) + "\n")
        assert not result.ok
        assert result.error.startswith("line 1:"), result.error

    def test_reused_skolem_rejected(self):
        # one witness for two existentials would prove an invalid sequent
        seq = Sequent(
            ("P", "Q"),
            (pe(r"\E x : P(x)"), pe(r"\E x : Q(x)")),
            pe(r"\E x : P(x) /\ Q(x)"),
        )
        trace = (
            "delta\t0\t!sk1\t3:P(!sk1)\n"
            "delta\t1\t!sk1\t4:Q(!sk1)\n"
            "gamma\t2\t?2\t5:~(P(?2) /\\ Q(?2))\n"
            "beta\t5\t6:~P(?2)\t7:~Q(?2)\n"
            "close\t7\t4\t?2 := !sk1\n"
            "close\t6\t3\t\n"
        )
        result = replay_trace(seq, trace)
        assert not result.ok
        assert result.error.startswith("line 2:"), result.error


# Set shapes a membership can reach through an equality chain, each with the
# extra hypotheses and the goal that the unfolded membership proves.
CHAIN_SHAPES = {
    "comprehension": (r"{x \in S : P(x)}", (), "P(c)"),
    "powerset": ("SUBSET S", (), r"c \subseteq S"),
    "function space": ("[S -> T]", (r"d \in S",), r"c[d] \in T"),
    "image": (r"{f[x] : x \in S}", (), r"\E y \in S : c = f[y]"),
}
NOISE = ("Q1", "Q1 => Q2", r"Q2 \/ Q3", "~Q4", r"Q1 /\ Q3")


@st.composite
def chain_sequents(draw):
    r"""c \in X0 with X0 = X1 = ... = Xk = shape, each equality in either
    orientation, plus propositional noise, hypotheses in any order."""
    k = draw(st.integers(1, 4))
    shape, extra, goal = CHAIN_SHAPES[draw(st.sampled_from(sorted(CHAIN_SHAPES)))]
    names = [f"X{i}" for i in range(k + 1)]
    hyps = [
        f"{a} = {b}" if draw(st.booleans()) else f"{b} = {a}"
        for a, b in zip(names, names[1:] + [shape])
    ]
    hyps += [r"c \in X0", *extra, *draw(st.lists(st.sampled_from(NOISE), max_size=3))]
    order = draw(st.permutations(range(len(hyps))))
    return Sequent((), tuple(pe(hyps[i]) for i in order), pe(goal))


class TestReplayProperty:
    # small depth and a timeout no run comes near: outcomes depend only on
    # the sequent, and the examples are the same on every run
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(chain_sequents())
    def test_every_proved_equality_chain_trace_replays(self, seq):
        out = prove(seq, Budget(max_depth=6, timeout_ms=60000, gamma_reuse=2))
        if isinstance(out, Proved):
            result = replay_trace(seq, out.trace)
            assert result.ok, (out.trace, result.error)


def rebuild(m, e):
    """Reference resolution: rebuild every node, following bound
    metavariables through m."""
    if isinstance(e, Ident) and e.name in m:
        return rebuild(m, m[e.name])
    return map_children(e, lambda c: rebuild(m, c))


METAS = ["?1", "?2", "?3", "?4"]


def meta_value(rng, k):
    """A value for METAS[k]: it mentions only later metavariables, so every
    chain of bindings ends."""
    return rand_term(rng, ["a", "S", *METAS[k + 1 :]], 2)


@st.composite
def bound_terms(draw):
    """A formula over constants and metavariables, and a substitution that
    binds some of the metavariables, possibly through chains."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    subst = _Subst()
    for k in draw(st.permutations(range(len(METAS)))):
        if draw(st.booleans()):
            subst.bind(METAS[k], meta_value(rng, k))
    return subst, rand_expr(rng, ["a", "b", "S", *METAS], draw(st.integers(0, 4)))


class TestTerms:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bound_terms())
    def test_resolve_equals_a_full_rebuild(self, case):
        subst, e = case
        out = subst.resolve(e)
        assert out == rebuild(subst.map, e)
        if subst.map.keys().isdisjoint(free_identifiers(e)):
            assert out is e

    def test_resolved_follows_a_rebind_after_undo(self):
        t = _Tableau(_initial(Sequent((), (), pe("TRUE"))))
        i = t._add(OpApp("P", (Ident("?1"),)))
        mark = t.subst.mark()
        t.subst.bind("?1", Ident("a"))
        assert t._resolved(i) == pe("P(a)")
        t.subst.undo(mark)
        # same trail length as when P(a) was resolved
        t.subst.bind("?1", Ident("b"))
        assert t._resolved(i) == pe("P(b)")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 10**9),
        st.lists(
            st.tuples(st.one_of(st.none(), st.integers(0, len(METAS) - 1)), st.booleans()),
            max_size=12,
        ),
    )
    def test_resolved_is_never_stale(self, seed, ops):
        # an op (None, read) undoes the latest bind, (k, read) binds METAS[k]
        # if it is unbound; entries are resolved after the op when read is set
        rng = random.Random(seed)
        t = _Tableau(_initial(Sequent((), (), pe("TRUE"))))
        ids = [t._add(rand_expr(rng, ["a", "b", *METAS], 3)) for _ in range(3)]
        marks = []
        for k, read in [*ops, (None, True)]:
            if k is None:
                if marks:
                    t.subst.undo(marks.pop())
            elif METAS[k] not in t.subst.map:
                marks.append(t.subst.mark())
                t.subst.bind(METAS[k], meta_value(rng, k))
            if read:
                for i in ids:
                    assert t._resolved(i) == rebuild(t.subst.map, t.entries[i])


def ground_atom(rng):
    return rng.choice([Ident("R"), OpApp(rng.choice("PQ"), (Ident(rng.choice("ab")),))])


def literal(rng):
    """A literal, negated or not, over a few heads; its atom may be a
    metavariable, and its terms may hold metavariables."""
    terms = ["a", "b", *METAS]
    k = rng.randrange(6)
    if k == 0:
        atom = Ident(rng.choice(["R", *METAS]))
    elif k == 1:
        atom = OpApp(rng.choice("PQ"), (rand_term(rng, terms, 1),))
    elif k == 2:
        atom = In(rand_term(rng, terms, 1), Ident("S"))
    elif k == 3:
        atom = Eq(rand_term(rng, terms, 1), rand_term(rng, terms, 1))
    else:
        atom = ground_atom(rng)
    return Neg(atom) if rng.random() < 0.5 else atom


@st.composite
def closure_branches(draw):
    """A branch of literals under some bindings, maybe with ground
    equalities between atoms (so a congruence), and a start position."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    lits = [literal(rng) for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        lits += [Eq(ground_atom(rng), ground_atom(rng)) for _ in range(draw(st.integers(1, 3)))]
        rng.shuffle(lits)
    t = _Search((), BIG, float("inf"))
    items = [t._add(e) for e in lits]
    for k in draw(st.permutations(range(len(METAS)))):
        if draw(st.booleans()):
            t.subst.bind(METAS[k], meta_value(rng, k))
    return t, items, draw(st.integers(0, len(items)))


def closes(t, i, j, cc) -> bool:
    """Brute force: some pair of _complements unifies (through cc, if any),
    or the two are congruent ground atoms."""
    ei, ej = t._resolved(i), t._resolved(j)
    for a, b in _complements(ei, ej):
        mark = t.subst.mark()
        unified = t.subst.unify(a, b, cc)
        t.subst.undo(mark)
        if unified:
            return True
    return (
        cc is not None
        and _ground(ei)
        and _ground(ej)
        and any(
            isinstance(a, Neg)
            and isinstance(a.item, _ATOMS)
            and isinstance(b, _ATOMS)
            and cc.equal_atom(a.item, b)
            for a, b in ((ei, ej), (ej, ei))
        )
    )


def may_close(t, i, j, cc) -> bool:
    """The index's rule, pair by pair: a negated atom and the other formula
    have the same head, or either is a metavariable as added, or, with cc,
    ground and in its pool."""

    def head(e):
        return e.name if isinstance(e, (Ident, OpApp)) else type(e)

    def meta(e):
        return isinstance(e, Ident) and e.name.startswith("?")

    for x, y in ((i, j), (j, i)):
        added = t.entries[x]
        if meta(added) or isinstance(added, Neg) and meta(added.item):
            return True
        if not isinstance(added, Neg):
            continue
        a, b = t._resolved(x).item, t._resolved(y)
        if meta(t.entries[y]) or head(a) == head(b):
            return True
        if cc is not None and any(_ground(e) and e in cc.pool for e in (a, b)):
            return True
    return False


class TestClosureIndex:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(closure_branches())
    def test_candidates_keep_every_closable_pair_in_pair_order(self, case):
        t, items, start = case
        cc = t._congruence(items)
        every = [(i, j) for ai, i in enumerate(items) for j in items[max(ai + 1, start) :]]
        got = t._candidates(items, start, cc)
        assert got == [p for p in every if may_close(t, *p, cc)]
        assert {p for p in every if closes(t, *p, cc)} <= set(got)


class TestBudgets:
    def test_fields_must_be_positive(self):
        with pytest.raises(ValueError):
            Budget(0, 1000, 1)
        with pytest.raises(ValueError):
            Budget(5, -1, 1)

    def test_monotonic_in_depth(self):
        rng = random.Random(31)
        sequents = [rand_prop_sequent(rng) for _ in range(40)]
        for seq in sequents:
            results = [
                isinstance(prove(seq, Budget(d, 20000, 4)), Proved)
                for d in (4, 10, 24)
            ]
            for small, big in zip(results, results[1:]):
                assert not (small and not big)

    def test_timeout_reports_unknown(self):
        T = r"{z \in S : z \notin f[z]}"
        seq = Sequent(
            ("S", "f"),
            (pe(r"f \in [S -> SUBSET S]"), pe(rf"\A x \in S : f[x] # {T}")),
            pe(r"\E A \in SUBSET S : \A x \in S : f[x] # A"),
        )
        out = prove(seq, Budget(12, 1, 4))
        assert isinstance(out, Unknown) and out.reason == "timeout"

    def test_determinism(self):
        rng = random.Random(37)
        for _ in range(20):
            seq = rand_prop_sequent(rng)
            a = prove(seq, BIG)
            # the second call must search again, not read the memo
            prover.normalize.cache_clear()
            prover._search.cache_clear()
            b = prove(seq, BIG)
            assert type(a) is type(b)
            if isinstance(a, Proved):
                assert a.trace == b.trace


def corpus_sequents():
    """(file name, leaf path, leaf kind, sequent) of every non-omitted
    corpus leaf."""
    for path in sorted(DATA.glob("**/*.tla")):
        checked = check_theorem(parse_theorem(path.read_text(encoding="utf-8")))
        for record in checked.records:
            if not record.omitted:
                leaf = ".".join(record.path)
                seq = sequent_from_obligation(prepared_obligation(record))
                yield path.name, leaf, record.kind, seq


def cantor_qed() -> Sequent:
    """The Cantor diagonal QED leaf, the corpus's slowest search."""
    return next(
        seq for name, leaf, kind, seq in corpus_sequents()
        if (name, leaf, kind) == ("cantor.tla", "<1>1.<2>3", "by-goal")
    )


class TestMemo:
    def test_memoised_outcome_equals_an_uncached_search(self):
        budget = Budget()
        for name, leaf, _, seq in corpus_sequents():
            got = prove(seq, budget)
            want = _search.__wrapped__(_initial(seq), budget)
            assert got == want, (name, leaf)
            assert isinstance(got, Proved) and got.trace == want.trace
        # 61 leaves make 33 distinct initial tableaux
        info = _search.cache_info()
        assert (info.hits, info.misses) == (28, 33)

    def test_timeout_is_never_stored(self):
        seq = cantor_qed()
        tight = Budget(timeout_ms=1)
        for _ in range(2):
            before = _search.cache_info()
            out = prove(seq, tight)
            assert isinstance(out, Unknown) and out.reason == "timeout"
            after = _search.cache_info()
            assert after.currsize == before.currsize
            assert after.misses == before.misses + 1  # searched again
        assert isinstance(prove(seq, Budget()), Proved)
        assert _search.cache_info().currsize == 1


class TestMalformed:
    def test_reserved_names_rejected(self):
        out = prove(Sequent((), (), In(Ident("?1"), Ident("S"))))
        assert isinstance(out, Malformed)

    def test_replay_rejects_reserved_names(self):
        # a sequent constant spelled like a metavariable must not be bindable
        seq = Sequent(("P", "c"), (OpApp("P", (Ident("?1"),)),), pe("P(c)"))
        result = replay_trace(seq, "close\t1\t0\t?1 := c\n")
        assert not result.ok and "reserved names" in result.error

    def test_sequent_from_unfiltered_obligation_rejected(self):
        o = Obligation((New("x"), fact(pe("P(x)"), hidden=True)), pe("P(x)"))
        with pytest.raises(ValueError):
            sequent_from_obligation(o)

    def test_sequent_from_unexpanded_obligation_rejected(self):
        o = Obligation(
            (New("S"), Def("T", Obligation((), Ident("S")))), pe(r"T \subseteq S")
        )
        with pytest.raises(ValueError):
            sequent_from_obligation(o)

    def test_sequent_construction(self):
        o = Obligation(
            (New("x"), fact(Obligation((New("y"),), pe("Q(y, x)")))), pe("R(x)")
        )
        seq = sequent_from_obligation(o)
        assert seq.constants == ("x",)
        assert seq.hypotheses == (Quant("forall", (Binder("y"),), pe("Q(y, x)")),)
        assert seq.goal == pe("R(x)")
