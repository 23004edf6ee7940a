"""Tableau prover: propositional and first-order search, equality, set
rules, trace replay, budgets."""

import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import DATA, rand_expr, rand_prop_sequent, rand_term, truth_table_valid
from proofmgr import prover, syntax as s, tableau
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
    prove,
    replay_trace,
    sequent_from_obligation,
    _Search,
    _class_of,
    _search,
)
from proofmgr.tableau import (
    normalize,
    _ATOMS,
    _Subst,
    _Tableau,
    _complements,
    _ground,
    _initial,
)
from proofmgr.meta import Def, New, Obligation, fact
from proofmgr.syntax import (
    Binder,
    Eq,
    Expr,
    Ident,
    Implies,
    In,
    Neg,
    OpApp,
    Quant,
    free_identifiers,
    map_children,
    pretty,
    subst_many,
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

    def test_sibling_domain_reads_the_context(self):
        # x in the domain of y is the declared x, so the first binder is
        # renamed apart before the domain moves under it
        got = normalize(pe(r"\A x \in T, y \in x : y \in x"))
        assert got == pe(r"\A x1 : x1 \in T => \A y : y \in x => y \in x1")
        got = normalize(pe(r"\E x \in T, x \in x : P(x)"))
        assert got == pe(r"\E x1 : x1 \in T /\ (\E x1 : x1 \in x /\ P(x1))")
        # a binder's own domain too
        assert normalize(pe(r"\A x \in x : P(x)")) == pe(r"\A x1 : x1 \in x => P(x1)")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10**9), st.integers(1, 3))
    def test_sibling_domains_keep_free_names(self, seed, depth):
        e = sibling_quantifier(random.Random(seed), ["x", "y", "z", "S"], depth)
        assert free_identifiers(normalize(e)) == free_identifiers(e)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_memoised_equals_the_plain_function(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        got = normalize(e)
        # the plain function, its recursion included, with the cache bypassed
        memoised = tableau.normalize
        tableau.normalize = memoised.__wrapped__
        try:
            want = memoised.__wrapped__(e)
        finally:
            tableau.normalize = memoised
        assert got == want
        # an equal term built again gets the very same normal form
        assert normalize(rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)) is got


def sibling_quantifier(rng: random.Random, scope: list[str], depth: int) -> Quant:
    """A quantifier of two to four binders named from x, y and z, whose
    domains may name an earlier binder of the same quantifier."""
    binders = tuple(
        Binder(rng.choice("xyz"), None if rng.random() < 0.3 else rand_term(rng, scope, 1))
        for _ in range(rng.randrange(2, 5))
    )
    inner = scope + [b.name for b in binders]
    if depth > 1 and rng.random() < 0.5:
        body: Expr = sibling_quantifier(rng, inner, depth - 1)
    else:
        body = rand_expr(rng, inner, 2)
    return Quant(rng.choice(["forall", "exists"]), binders, body)


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


class TestSetRuleTable:
    """The expansion of every set atom and of its negation: rule, kind and
    introduced formulas.  A constant z (or v) makes the bound name z1 (v1)."""

    @pytest.mark.parametrize(
        "formula, expected",
        [
            (r"x \in {v \in D : P(v, z)}", ("subset-of", "alpha", [r"x \in D", "P(x, z)"])),
            (
                r"~(x \in {v \in D : P(v, z)})",
                ("subset-of-neg", "beta", [r"~(x \in D)", "~P(x, z)"]),
            ),
            (
                r"x \in {v \in D : \A x : P(v, x)}",
                ("subset-of", "alpha", [r"x \in D", r"\A x1 : P(x, x1)"]),
            ),
            (
                r"~(x \in {v \in D : \A x : P(v, x)})",
                ("subset-of-neg", "beta", [r"~(x \in D)", r"~(\A x1 : P(x, x1))"]),
            ),
            (r"z \in SUBSET S", ("power-set", "alpha", [r"z \subseteq S"])),
            (r"~(z \in SUBSET S)", ("power-set-neg", "alpha", [r"~(z \subseteq S)"])),
            (r"z \subseteq S", ("subseteq", "alpha", [r"\A z1 : z1 \in z => z1 \in S"])),
            (
                r"~(z \subseteq S)",
                ("subseteq-neg", "alpha", [r"~(\A z1 : z1 \in z => z1 \in S)"]),
            ),
            (r"x \subseteq S", ("subseteq", "alpha", [r"\A z : z \in x => z \in S"])),
            (
                r"v \in {f[v] : v \in D}",
                ("set-of-all", "alpha", [r"\E v1 : v1 \in D /\ v = f[v1]"]),
            ),
            (
                r"~(v \in {f[v] : v \in D})",
                ("set-of-all-neg", "alpha", [r"\A v1 : ~(v1 \in D /\ v = f[v1])"]),
            ),
            (r"f \in [z -> T]", ("func-space", "alpha", [r"\A z1 : z1 \in z => f[z1] \in T"])),
            (r"~(f \in [z -> T])", None),
            (r"z = {v \in S : P(v)}", None),
            (
                r"~(z = {v \in S : P(v)})",
                ("extensionality", "alpha", [r"~(\A z1 : z1 \in z <=> z1 \in {v \in S : P(v)})"]),
            ),
            (
                r"~(SUBSET S = z)",
                ("extensionality", "alpha", [r"~(\A z1 : z1 \in SUBSET S <=> z1 \in z)"]),
            ),
            (
                r"~([S -> T] = f)",
                ("extensionality", "alpha", [r"~(\A z : z \in [S -> T] <=> z \in f)"]),
            ),
            (
                r"~({f[v] : v \in S} = z)",
                ("extensionality", "alpha", [r"~(\A z1 : z1 \in {f[v] : v \in S} <=> z1 \in z)"]),
            ),
            (r"~(z = y)", None),
            (r"x \in S", None),
            (r"~(x \in S)", None),
            (r"~((a \subseteq e) = c)", None),
        ],
    )
    def test_expansion(self, formula, expected):
        exp = tableau._expansion(normalize(pe(formula)))
        if expected is None:
            assert exp is None
        else:
            rule, kind, parts = exp
            assert (rule, kind, [pretty(p) for p in parts]) == expected


def with_metas(text: str) -> Expr:
    """The formula text with the names M1 and M2 made metavariables."""
    return subst_many(pe(text), {"M1": Ident("?1"), "M2": Ident("?2")})


def unifies(a: str, b: str) -> tuple[bool, dict]:
    """Whether a and b unify, and the bindings made, resolved."""
    subst = _Subst()
    ok = subst.unify(with_metas(a), with_metas(b))
    return ok, {k: pretty(subst.resolve(v)) for k, v in subst.map.items()}


def domain_free(q: Quant) -> Quant:
    """q with its first binder's domain dropped."""
    return Quant(q.kind, (Binder(q.binders[0].name), *q.binders[1:]), q.body)


class TestNodeLabels:
    """Two nodes of one type unify, or are congruent, only when their names,
    values, arities, binders and comprehension variables agree."""

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (r"{x \in M1 : P(x)}", r"{x \in S : P(x)}", (True, {"?1": "S"})),
            (r"{x \in M1 : P(x)}", r"{y \in S : P(y)}", (False, {})),
            (r"{f[x] : x \in M1}", r"{f[x] : x \in S}", (True, {"?1": "S"})),
            (r"{f[x] : x \in M1}", r"{f[y] : y \in S}", (False, {})),
            (r"\A x : P(x, M1)", r"\A x : P(x, a)", (True, {"?1": "a"})),
            (r"\A x : P(x, M1)", r"\A y : P(y, a)", (False, {})),
            (r"\E x : P(x, M1)", r"\A x : P(x, a)", (False, {})),
            (r"\A x \in M1 : P(x)", r"\A x \in S : P(x)", (True, {"?1": "S"})),
            # the first domain unifies before the second binder's name differs
            (r"\A x \in M1, y \in T : P(x)", r"\A x \in S, z \in T : P(x)", (False, {})),
            (r"\A x \in M1, y \in T : P(x)", r"\A x \in S, y \in T, w : P(x)", (False, {})),
            ("P(M1, b)", "P(a, b)", (True, {"?1": "a"})),
            ("P(M1)", "P(a, b)", (False, {})),
            ("P(M1)", "Q(a)", (False, {})),
            ("f[M1] = M2", "f[a] = b", (True, {"?1": "a", "?2": "b"})),
            ("TRUE", "FALSE", (False, {})),
        ],
    )
    def test_unify(self, a, b, expected):
        assert unifies(a, b) == expected

    def test_domain_presence_differs(self):
        a = with_metas(r"\A x \in M1 : P(x)")
        b = pe(r"\A x \in S : P(x)")
        for x, y in ((domain_free(a), b), (a, domain_free(b))):
            subst = _Subst()
            assert not subst.unify(x, y) and subst.map == {}
        subst = _Subst()
        assert subst.unify(domain_free(a), domain_free(b)) and subst.map == {}

    @pytest.mark.parametrize(
        "template, congruent",
        [
            ("P({})", True),
            ("f[{}]", True),
            ("g[{}][{}]", True),
            ("SUBSET {}", True),
            ("[{} -> e]", True),
            ("[e -> {}]", True),
            (r"({} \subseteq e)", False),
            (r"({} \in e)", False),
            ("{{x \\in {} : P(x)}}", False),
        ],
    )
    def test_congruence_through_applications(self, template, congruent):
        # a = b, T(a) = c, T(b) = d: c = d when congruence goes through T
        ta, tb = template.format("a", "a"), template.format("b", "b")
        cc = tableau._Congruence(
            [(pe("a"), pe("b")), (pe(ta), pe("c")), (pe(tb), pe("d"))]
        )
        assert cc.equal(pe("c"), pe("d")) is congruent
        assert cc.equal(pe(ta), pe(tb)) is congruent

    @pytest.mark.parametrize(
        "x, y, equal",
        [
            ("P(a)", "P(b)", True),
            ("P(a)", "Q(b)", False),
            ("P(a)", "P(b, b)", False),
            (r"a \in S", r"b \in S", True),
            ("a = c", "b = c", True),
            ("a = c", "c = b", False),
            (r"a \subseteq c", r"b \subseteq c", False),
            (r"a \in S", "a = S", False),
        ],
    )
    def test_equal_atom(self, x, y, equal):
        cc = tableau._Congruence([(pe("a"), pe("b"))])
        assert cc.equal_atom(pe(x), pe(y)) is equal


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

    # entries 0-2: the hypotheses and the negated goal Q; the beta line
    # continues on 5:Q and defers 4:~P(?1), so 4 is off the open branch
    # until line 4
    GAMMA_BETA = Sequent(("P", "Q", "a"), (pe(r"\A x : P(x) => Q"), pe("P(a)")), pe("Q"))
    GAMMA_BETA_TRACE = (
        "gamma\t0\t?1\t3:P(?1) => Q\n"
        "beta\t3\t4:~P(?1)\t5:Q\n"
        "close\t2\t5\t\n"
        "close\t1\t4\t?1 := a\n"
    )

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("?1 := a\n", "?1 := a\nclose\t1\t4\t?1 := a\n",
             "line 5: all branches already closed"),
            ("beta\t3\t", "beta\tthree\t", "line 2: malformed principal index"),
            ("close\t2\t5\t", "close\t4\t5\t", "line 3: principal 4 not on the open branch"),
            ("close\t2\t5\t", "close\t2\tfive\t", "line 3: malformed closure pair"),
            ("close\t2\t5\t", "close\t2\t4\t", "line 3: formula 4 not on the open branch"),
            ("gamma\t0\t?1\t", "gamma\t0\tx1\t", "line 1: malformed introduced name"),
        ],
        ids=[
            "after-the-last-branch", "principal-not-an-integer", "principal-off-the-branch",
            "pair-not-an-integer", "pair-off-the-branch", "introduced-name",
        ],
    )
    def test_malformed_trace_line_rejected(self, old, new, error):
        assert proved(self.GAMMA_BETA).trace == self.GAMMA_BETA_TRACE
        assert self.GAMMA_BETA_TRACE.count(old) == 1
        result = replay_trace(self.GAMMA_BETA, self.GAMMA_BETA_TRACE.replace(old, new))
        assert not result.ok and result.error == error

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


@st.composite
def tableau_entries(draw):
    """Initial entries and added entries over constants and metavariables,
    among them equal but distinct copies and copies with a and b swapped
    (the same shape under other names), and a substitution binding some of
    the metavariables."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    formulas = [
        normalize(rand_expr(rng, ["a", "b", "S", *METAS], draw(st.integers(0, 4))))
        for _ in range(draw(st.integers(1, 6)))
    ]
    swap = {"a": Ident("b"), "b": Ident("a")}
    copies = [pickle.loads(pickle.dumps(f)) for f in formulas]
    copies += [subst_many(f, swap) for f in formulas]
    subst = _Subst()
    for k in draw(st.permutations(range(len(METAS)))):
        if draw(st.booleans()):
            subst.bind(METAS[k], meta_value(rng, k))
    order = draw(st.permutations(formulas + copies))
    cut = draw(st.integers(1, len(order)))
    return tuple(order[:cut]), order[cut:], subst


def fresh(e: Expr) -> Expr:
    """An equal copy of e that carries none of the facts kept on e."""
    return pickle.loads(pickle.dumps(e))


class TestTableauFacts:
    # the per-formula facts are kept on the term (free names) or once per
    # run (expansion), not per tableau: a tableau's must equal those
    # computed afresh from copies of its own entries
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tableau_entries())
    def test_keys_and_views_equal_a_direct_computation(self, case):
        initial, added, subst = case
        t = _Tableau(initial)
        for e in added:
            t._add(e)

        def check(m):
            for i, e in enumerate(t.entries):
                assert t.keys[i] == tableau._keys(fresh(e))
                _, form, ground, _ = t._view(i)
                assert form == rebuild(m, e)
                assert free_identifiers(form) == free_identifiers(fresh(form))
                assert ground == _ground(fresh(form))
                assert t._expansion_of(i) == tableau._expansion.__wrapped__(fresh(form))

        check({})
        for name in subst.trail:
            t.subst.bind(name, subst.map[name])
        check(subst.map)
        t.subst.undo(0)
        check({})


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
            prover.reset()
            b = prove(seq, BIG)
            assert type(a) is type(b)
            if isinstance(a, Proved):
                assert a.trace == b.trace


def implication_chain(n: int) -> Sequent:
    """P0, P0 => P1, ..., P(n-1) => Pn |- Pn."""
    names = tuple(f"P{i}" for i in range(n + 1))
    hyps = (Ident("P0"), *(Implies(Ident(a), Ident(b)) for a, b in zip(names, names[1:])))
    return Sequent(names, hyps, Ident(names[-1]))


def iff_assoc(n: int) -> Sequent:
    """|- ((P1 <=> P2) <=> ...) <=> (P1 <=> (P2 <=> ...)): valid, and its
    tableau has hundreds of branches for n = 5."""
    left, right = "P1", f"P{n}"
    for i in range(2, n + 1):
        left = f"({left} <=> P{i})"
    for i in range(n - 1, 0, -1):
        right = f"(P{i} <=> {right})"
    return Sequent(tuple(f"P{i}" for i in range(1, n + 1)), (), pe(f"{left} <=> {right}"))


# Sequents with a countermodel, given after each: never to be proved
COUNTERMODELS = [
    (("A", "B"), (r"A \subseteq B",), r"B \subseteq A"),  # A = {}, B = {1}
    (("S", "P"), (r"\E x \in S : P(x)",), r"\A x \in S : P(x)"),  # S = {1, 2}, P = {1}
    (("S", "T", "f", "c"), (r"f \in [S -> T]", r"c \in T"), r"c \in S"),  # S = f = {}, T = {c}
    (("S", "P", "c"), (r"c \in S",), r"c \in {x \in S : P(x)}"),  # S = {c}, P = {}
    (("a", "b", "c"), ("a = b",), "b = c"),  # a = b = 1, c = 2
    (("P", "Q"), (r"P \/ Q",), "P"),  # P false, Q true
    (("P", "Q", "R"), ("P => Q", "Q => R"), "R => P"),  # P false, Q and R true
]


class TestDepthAccounting:
    """Only the steps that can make new formulas without end cost depth:
    gamma, rewrite, comprehension membership and the theory rules."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10**9))
    def test_propositional_sequents_are_decided_at_depth_one(self, seed):
        seq = rand_prop_sequent(random.Random(seed))
        out = prove(seq, Budget(1, 5000, 1))
        assert isinstance(out, Proved) == truth_table_valid(seq)
        if isinstance(out, Proved):
            assert replay_trace(seq, out.trace).ok

    @pytest.mark.parametrize(
        "seq",
        [
            implication_chain(14),
            Sequent(("S", "T"), (pe(r"S \subseteq T"),), pe(r"SUBSET S \subseteq SUBSET T")),
            iff_assoc(5),
        ],
        ids=["implication-chain-14", "powerset-monotone", "iff-associative-5"],
    )
    def test_proved_at_the_default_budget(self, seq):
        out = prove(seq, Budget())
        assert isinstance(out, Proved)
        assert replay_trace(seq, out.trace).ok

    @pytest.mark.parametrize("constants, hyps, goal", COUNTERMODELS)
    def test_a_countermodel_is_never_proved(self, constants, hyps, goal):
        out = prove(Sequent(constants, tuple(map(pe, hyps)), pe(goal)), BIG)
        assert isinstance(out, Unknown) and out.reason == "exhausted"

    def test_a_self_reproducing_comprehension_is_cut_by_depth(self):
        # the instance of the predicate is the principal formula again
        R = r"{x \in S : x \in x}"
        out = prove(Sequent(("S",), (), pe(f"{R} \\in {R}")), Budget(6, 5000, 4))
        assert isinstance(out, Unknown) and out.reason == "exhausted"

    def test_a_tableau_of_hundreds_of_choice_points_is_searched(self):
        # every one of the 200 branches instantiates the universal and closes
        # with a binding: 400 nested choice points, more than a search that
        # recursed at each one has Python stack for
        names = tuple(f"a{i}" for i in range(200))
        goal = pe(" /\\ ".join(f"P({a})" for a in names))
        seq = Sequent((*names, "P"), (pe(r"\A x : P(x)"),), goal)
        out = prove(seq, Budget())
        assert isinstance(out, Proved)
        assert replay_trace(seq, out.trace).ok

    def test_cantor_qed_within_two_iterations(self, monkeypatch):
        runs = []
        run = _Search.run

        def counted(self, depth):
            runs.append(depth)
            return run(self, depth)

        monkeypatch.setattr(_Search, "run", counted)
        assert isinstance(_search(_initial(cantor_qed()), Budget()), Proved)
        assert len(runs) <= 2


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
            want = _search(_initial(seq), budget)
            assert got == want, (name, leaf)
            assert isinstance(got, Proved) and got.trace == want.trace
        # 61 leaves make 33 distinct initial tableaux
        assert (prover._memo.hits, prover._memo.misses) == (28, 33)

    def test_timeout_is_never_stored(self):
        seq = cantor_qed()
        tight = Budget(timeout_ms=1)
        for _ in range(2):
            misses = prover._memo.misses
            out = prove(seq, tight)
            assert isinstance(out, Unknown) and out.reason == "timeout"
            assert len(prover._memo.stored) == 0
            assert prover._memo.misses == misses + 1  # searched again
        assert isinstance(prove(seq, Budget()), Proved)
        assert len(prover._memo.stored) == 1

    def test_prove_gives_no_proof_that_does_not_replay(self, monkeypatch):
        search = prover._search

        def search_without_last_line(initial, budget):
            out = search(initial, budget)
            return Proved("".join(out.trace.splitlines(keepends=True)[:-1]))

        monkeypatch.setattr(prover, "_search", search_without_last_line)
        a = Sequent(("P", "Q"), (pe("P"), pe("P => Q")), pe("Q"))
        b = rename_sequent(a, {"P": "R"})
        failed = Unknown("trace does not replay: 1 branch(es) left open")
        assert prove(a) == failed
        # the outcome stored is the failure, and a renamed leaf gets it
        assert prove(b) == failed
        assert (prover._memo.hits, prover._memo.misses) == (1, 1)

    def test_a_reuse_under_the_same_names_checks_the_entries(self, monkeypatch):
        # two sequents under the same names put in one class: the second
        # gets no outcome of the first, which its entries do not equal
        monkeypatch.setattr(prover, "_class_of", lambda initial, budget: ("one", ("P", "Q")))
        a = Sequent(("P", "Q"), (pe("P"), pe("P => Q")), pe("Q"))
        b = Sequent(("P", "Q"), (pe("Q"),), pe("P"))
        assert isinstance(prove(a), Proved)
        assert prove(b) == _search(_initial(b), Budget())
        assert (prover._memo.hits, prover._memo.misses) == (0, 2)

    def test_the_memo_keeps_only_the_latest_outcomes(self, monkeypatch):
        monkeypatch.setattr(prover._Memo, "size", 2)
        a = Sequent(("P", "Q"), (pe("P"), pe("P => Q")), pe("Q"))
        b = Sequent(("P", "Q"), (pe(r"P /\ Q"),), pe("Q"))
        c = Sequent(("P", "Q"), (), pe(r"P \/ ~P"))
        for seq in (a, b, c):
            proved(seq)
        assert (prover._memo.hits, prover._memo.misses, len(prover._memo.stored)) == (0, 3, 2)
        # a's outcome, the oldest, made room for c's: a renamed a is searched
        renamed = rename_sequent(a, {"P": "R"})
        assert prove(renamed) == _search(_initial(renamed), Budget())
        assert (prover._memo.hits, prover._memo.misses) == (0, 4)


# Images for the names of a sequent that no rule gives a bound variable
# and no generated sequent binds
CLEAN_NAMES = [f"K{i}" for i in range(8)]
# Images that a rule may give a bound variable (z, z1) or that a generated
# sequent binds (x, y)
COLLIDING_NAMES = ["z", "z1", "x", "y", "K0"]
SMALL = Budget(max_depth=6, timeout_ms=60000, gamma_reuse=2)


def rename_sequent(seq: Sequent, mapping: dict[str, str]) -> Sequent:
    m = {a: Ident(b) for a, b in mapping.items()}
    return Sequent(
        tuple(mapping.get(c, c) for c in seq.constants),
        tuple(subst_many(h, m) for h in seq.hypotheses),
        subst_many(seq.goal, m),
    )


def rename_outcome(out, mapping: dict[str, str]):
    """A proof's trace with the names mapped in every field but the rule."""
    if not isinstance(out, Proved):
        return out
    lines = []
    for line in out.trace.splitlines(keepends=True):
        rule, tab, rest = line.partition("\t")
        rest = re.sub(r"(?<![\w?!\\])[A-Za-z_]\w*", lambda m: mapping.get(m[0], m[0]), rest)
        lines.append(rule + tab + rest)
    return Proved("".join(lines))


@st.composite
def renamings(draw, images):
    """A propositional or a set-theory sequent, and a bijective renaming of
    its names onto its names and images."""
    if draw(st.booleans()):
        seq = rand_prop_sequent(random.Random(draw(st.integers(0, 10**9))))
    else:
        seq = draw(chain_sequents())
    names = sorted(set(seq.constants).union(*map(free_identifiers, (*seq.hypotheses, seq.goal))))
    targets = draw(st.permutations(names + images))[: len(names)]
    return seq, dict(zip(names, targets))


class TestRenaming:
    # small depth and a timeout no run comes near: outcomes depend only on
    # the sequent, and the examples are the same on every run
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(renamings(CLEAN_NAMES))
    def test_prove_commutes_with_renaming(self, case):
        seq, mapping = case
        renamed = rename_sequent(seq, mapping)
        prover._memo.clear()
        first = prove(seq, SMALL)
        prover._memo.clear()
        searched = prove(renamed, SMALL)
        assert searched == rename_outcome(first, mapping)
        # with the memo holding seq's outcome, renamed gets it, names mapped
        prover._memo.clear()
        prove(seq, SMALL)
        assert prove(renamed, SMALL) == searched
        assert (prover._memo.hits, prover._memo.misses) == (1, 1)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(renamings(COLLIDING_NAMES))
    def test_outcome_does_not_depend_on_the_memo(self, case):
        seq, mapping = case
        renamed = rename_sequent(seq, mapping)
        prover._memo.clear()
        alone = prove(renamed, SMALL)
        prover._memo.clear()
        prove(seq, SMALL)
        assert prove(renamed, SMALL) == alone
        if isinstance(alone, Proved):
            assert check_trace(renamed, alone.trace)

    def test_renamed_obligations_share_a_class(self):
        a = Sequent(("S", "T"), (pe(r"\A x \in S : x \in T"),), pe(r"S \subseteq T"))
        b = Sequent(("A", "S"), (pe(r"\A x \in A : x \in S"),), pe(r"A \subseteq S"))
        (key_a, names_a), (key_b, names_b) = (
            _class_of(_initial(seq), SMALL) for seq in (a, b)
        )
        assert key_a == key_b and (names_a, names_b) == (("S", "T"), ("A", "S"))
        # bound names are part of the class
        c = Sequent(("S", "T"), (pe(r"\A y \in S : y \in T"),), pe(r"S \subseteq T"))
        assert _class_of(_initial(c), SMALL)[0] != key_a

    def test_a_constant_named_like_a_rule_variable_is_searched(self):
        a = Sequent(("S", "T"), (pe(r"\A x \in S : x \in T"),), pe(r"S \subseteq T"))
        z = rename_sequent(a, {"S": "z"})
        first = proved(a)
        # the subseteq rule's bound variable z avoids the constant z, so the
        # mapped trace fails its replay and z is searched
        mapped = rename_outcome(first, {"S": "z"}).trace
        assert not replay_trace(z, mapped).ok
        second = proved(z)
        assert (prover._memo.hits, prover._memo.misses) == (0, 2)
        assert r"2:~(\A z1 : z1 \in z => z1 \in T)" in second.trace
        assert second.trace != mapped

    def test_a_renamed_trace_that_does_not_replay_is_searched(self):
        a = Sequent(("P", "Q"), (pe("P"), pe("P => Q")), pe("Q"))
        b = rename_sequent(a, {"P": "R"})
        key, names = _class_of(_initial(a), BIG)
        prover._memo.store(key, names, _initial(a), Proved("close-false\t0\n"))
        assert prove(b, BIG) == _search(_initial(b), BIG)
        assert (prover._memo.hits, prover._memo.misses) == (0, 1)


# Every expression node type, over a pool of names small enough that free
# and bound occurrences of one name often meet
NODE_NAMES = st.sampled_from(["a", "b", "x"])
NODE_LEAVES = st.builds(s.Ident, NODE_NAMES) | st.builds(s.Bool, st.booleans())


def node_types(inner) -> dict:
    """Each expression node type, with a strategy for a node of it whose
    subterms are drawn from inner."""
    binders = st.lists(st.builds(Binder, NODE_NAMES, st.none() | inner), min_size=1, max_size=2)
    two = (s.FnApp, s.And, s.Or, s.Implies, s.Iff, s.Eq, s.Ne, s.In, s.NotIn, s.Subseteq, s.FuncSpace)
    return {
        s.Ident: st.builds(s.Ident, NODE_NAMES),
        s.Bool: st.builds(s.Bool, st.booleans()),
        s.OpApp: st.builds(s.OpApp, NODE_NAMES, st.lists(inner, min_size=1, max_size=2).map(tuple)),
        s.Quant: st.builds(s.Quant, st.sampled_from(["forall", "exists"]), binders.map(tuple), inner),
        s.SetComp: st.builds(s.SetComp, NODE_NAMES, inner, inner),
        s.SetImage: st.builds(s.SetImage, inner, NODE_NAMES, inner),
        s.Neg: st.builds(s.Neg, inner),
        s.PowerSet: st.builds(s.PowerSet, inner),
        **{t: st.builds(t, inner, inner) for t in two},
    }


NODES = st.recursive(
    NODE_LEAVES, lambda inner: st.one_of(*node_types(inner).values()), max_leaves=5
)


def node_count(e: Expr) -> int:
    return 1 + sum(map(node_count, s.children(e)))


def replace_node(e: Expr, k: int, new: Expr) -> Expr:
    """e with its k-th node in preorder (``children``) replaced by new."""
    left = [k]

    def visit(x: Expr) -> Expr:
        left[0] -= 1
        if left[0] == -1:
            return new
        return map_children(x, visit) if left[0] >= 0 else x

    return visit(e)


@st.composite
def entry_pairs(draw):
    """Two entries: the second drawn on its own, or the first with one node
    replaced, so that the two often share a shape."""
    a = draw(NODES)
    if draw(st.booleans()):
        return a, draw(NODES)
    return a, replace_node(a, draw(st.integers(0, node_count(a) - 1)), draw(NODES))


class TestMemoKey:
    """The memo's class key (``_fingerprint``) tells apart every two entries
    that are not one another renamed, so that ``prove`` may give a stored
    outcome as it is to an entry of the same shape under the same names."""

    def test_the_strategy_builds_every_node_type(self):
        assert set(node_types(NODE_LEAVES)) == set(s.Expr.__subclasses__())

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(entry_pairs())
    def test_equal_shape_and_names_mean_equal_entries(self, pair):
        a, b = pair
        if prover._fingerprint(a)[:2] == prover._fingerprint(b)[:2]:
            assert a == b

    @pytest.mark.parametrize(
        "a, b",
        [
            ("P(Q(a), b)", "P(Q(a, b))"),
            (r"\A x : P(x)", r"\E x : P(x)"),
            (r"\A x \in S, y : P(x, y)", r"\A x, y \in S : P(x, y)"),
            ("TRUE", "FALSE"),
            (r"a \in {x \in S : a \in S}", r"a \in {y \in S : a \in S}"),
            (r"a \in {f[a] : x \in S}", r"a \in {f[a] : y \in S}"),
            (r"P(x) /\ \A y : P(y)", r"P(x) /\ \A y : P(x)"),
        ],
        ids=[
            "arity", "quantifier-kind", "domain-presence", "bool-value",
            "comprehension-variable", "image-variable", "bound-or-free",
        ],
    )
    def test_one_label_part_apart(self, a, b):
        # the two differ only in the part the pair is named after
        (shape_a, names_a), (shape_b, names_b) = map(prover._fingerprint, (pe(a), pe(b)))
        assert names_a == names_b and shape_a != shape_b


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
