"""Expression-level operations: scoping, substitution, alpha equivalence,
pretty-printing."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import proofmgr
from helpers import (
    cantor_text,
    rand_expr,
    rand_obligation,
    rand_prop_sequent,
    rand_wellformed_proof,
)
from proofmgr import engine as E, meta as M, parser as P, prover as V, report as R, syntax as S
from proofmgr.syntax import Node, Positioned, children


def nodes(e):
    yield e
    for c in children(e):
        yield from nodes(c)


def applied_names(e):
    out = set()
    if isinstance(e, OpApp):
        out.add(e.name)
    for c in children(e):
        out |= applied_names(c)
    return out
from proofmgr.parser import parse_expression
from proofmgr.syntax import (
    And,
    Binder,
    Bool,
    Eq,
    FnApp,
    Ident,
    Implies,
    In,
    Neg,
    OpApp,
    PowerSet,
    Quant,
    SetComp,
    SetImage,
    alpha_equal,
    free_identifiers,
    fresh_name,
    map_children,
    pretty,
    substitute,
)


def exprs():
    return st.builds(
        lambda seed, depth: rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth),
        st.integers(0, 10**9),
        st.integers(0, 4),
    )


class TestFreeIdentifiers:
    def test_bound_by_quantifier(self):
        assert free_identifiers(parse_expression(r"\A x : P(x)")) == {"P"}

    def test_bound_by_comprehension(self):
        e = parse_expression(r"{z \in S : z \notin f[z]}")
        assert free_identifiers(e) == {"S", "f"}

    def test_plain_equation(self):
        assert free_identifiers(parse_expression("x = y")) == {"x", "y"}

    def test_binder_domain_is_outer_scope(self):
        e = parse_expression(r"\A x \in S : x \in T")
        assert free_identifiers(e) == {"S", "T"}

    def test_image_set(self):
        e = parse_expression(r"{f[x] : x \in S}")
        assert free_identifiers(e) == {"f", "S"}


class TestSubstitute:
    def test_no_binders(self):
        e = parse_expression("f[x] # A")
        out = substitute(e, "A", Ident("T"))
        assert out == parse_expression("f[x] # T")

    def test_capture_forces_rename(self):
        e = parse_expression(r"\A x : x = y")
        out = substitute(e, "y", Ident("x"))
        assert out == parse_expression(r"\A x1 : x1 = x")

    def test_shadowed_is_untouched(self):
        e = parse_expression(r"\A x : x = y")
        assert substitute(e, "x", Ident("z")) == e

    def test_rename_picks_smallest_suffix(self):
        e = parse_expression(r"\A x : x = y /\ x1 = x1")
        out = substitute(e, "y", Ident("x"))
        # x1 is taken by a free occurrence inside the body
        assert out == parse_expression(r"\A x2 : x2 = x /\ x1 = x1")

    @settings(max_examples=200, deadline=None)
    @given(exprs())
    def test_nonfree_substitution_is_identity(self, e):
        assert substitute(e, "zz_not_free", Ident("a")) == e

    @settings(max_examples=200, deadline=None)
    @given(exprs(), st.integers(0, 10**9))
    def test_disjoint_substitutions_commute(self, e, seed):
        # applied-operator positions only take names, not arbitrary terms
        assume(not {"a", "b"} & applied_names(e))
        rng = random.Random(seed)
        u = rand_expr(rng, ["c"], 1)
        v = rand_expr(rng, ["d"], 1)
        # neither replacement mentions the other substituted name
        one = substitute(substitute(e, "a", u), "b", v)
        two = substitute(substitute(e, "b", v), "a", u)
        assert alpha_equal(one, two)


class TestAlphaEqual:
    def test_renamed_binders(self):
        a = parse_expression(r"\A x : P(x)")
        b = parse_expression(r"\A y : P(y)")
        assert alpha_equal(a, b)

    def test_distinct_free_names(self):
        assert not alpha_equal(parse_expression("P"), parse_expression("Q"))

    def test_free_vs_bound(self):
        a = parse_expression(r"\A x : x = y")
        b = parse_expression(r"\A y : y = y")
        assert not alpha_equal(a, b)

    def test_comprehension_binder(self):
        a = parse_expression(r"{z \in S : z \in T}")
        b = parse_expression(r"{w \in S : w \in T}")
        assert alpha_equal(a, b)

    def test_substitution_respects_alpha(self):
        a = parse_expression(r"\A x : x = y")
        b = parse_expression(r"\A z : z = y")
        sa = substitute(a, "y", Ident("x"))
        sb = substitute(b, "y", Ident("x"))
        assert alpha_equal(sa, sb)

    @settings(max_examples=200, deadline=None)
    @given(exprs())
    def test_reflexive(self, e):
        assert alpha_equal(e, e)


# ---------------------------------------------------------------------------
# Binder scope: the walkers against per-node references


def ref_free_names(e):
    """Reference: the free names of e, one case per binding node."""
    match e:
        case Ident(name):
            return frozenset({name})
        case OpApp(name, args):
            out = {name}
            for a in args:
                out |= ref_free_names(a)
            return frozenset(out)
        case Quant(_, binders, body):
            out = set(ref_free_names(body))
            for b in binders:
                out.discard(b.name)
            for b in binders:
                if b.domain is not None:
                    out |= ref_free_names(b.domain)
            return frozenset(out)
        case SetComp(var, domain, pred):
            return (ref_free_names(pred) - {var}) | ref_free_names(domain)
        case SetImage(expr, var, domain):
            return (ref_free_names(expr) - {var}) | ref_free_names(domain)
        case _:
            out = set()
            for c in children(e):
                out |= ref_free_names(c)
            return frozenset(out)


def ref_alpha(a, b, env_a, env_b, depth):
    """Reference: alpha equality, one case per binding node."""
    if type(a) is not type(b):
        return False
    match a:
        case Ident(name):
            da, db = env_a.get(name), env_b.get(b.name)
            if (da is None) != (db is None):
                return False
            return da == db if da is not None else name == b.name
        case Bool(value):
            return value == b.value
        case OpApp(name, args):
            da, db = env_a.get(name), env_b.get(b.name)
            if (da is None) != (db is None):
                return False
            if (da == db if da is not None else name == b.name) is False:
                return False
            if len(args) != len(b.args):
                return False
            return all(ref_alpha(x, y, env_a, env_b, depth) for x, y in zip(args, b.args))
        case Quant(kind, binders, body):
            if kind != b.kind or len(binders) != len(b.binders):
                return False
            ea, eb = dict(env_a), dict(env_b)
            d = depth
            for ba, bb in zip(binders, b.binders):
                if (ba.domain is None) != (bb.domain is None):
                    return False
                if ba.domain is not None and not ref_alpha(
                    ba.domain, bb.domain, env_a, env_b, depth
                ):
                    return False
                ea[ba.name] = d
                eb[bb.name] = d
                d += 1
            return ref_alpha(body, b.body, ea, eb, d)
        case SetComp(var, domain, pred):
            if not ref_alpha(domain, b.domain, env_a, env_b, depth):
                return False
            ea, eb = dict(env_a), dict(env_b)
            ea[var] = depth
            eb[b.var] = depth
            return ref_alpha(pred, b.pred, ea, eb, depth + 1)
        case SetImage(expr, var, domain):
            if not ref_alpha(domain, b.domain, env_a, env_b, depth):
                return False
            ea, eb = dict(env_a), dict(env_b)
            ea[var] = depth
            eb[b.var] = depth
            return ref_alpha(expr, b.expr, ea, eb, depth + 1)
        case _:
            ca, cb = list(children(a)), list(children(b))
            if len(ca) != len(cb):
                return False
            return all(ref_alpha(x, y, env_a, env_b, depth) for x, y in zip(ca, cb))


BOUND = "xyz"


def binder_term(rng: random.Random, scope: list[str], depth: int):
    """A term dense in binders named from x, y and z: quantifiers of one to
    three binders (repeats allowed) whose domains may name a sibling,
    comprehensions, image sets, and operators applied under a binder of
    their name."""
    names = scope + list(BOUND)
    if depth <= 0:
        k = rng.randrange(4)
        if k == 0:
            return Bool(rng.random() < 0.5)
        if k == 1:
            args = tuple(Ident(rng.choice(names)) for _ in range(rng.randrange(1, 3)))
            return OpApp(rng.choice(names), args)
        return Ident(rng.choice(names))
    sub = lambda s=scope: binder_term(rng, s, depth - 1)  # noqa: E731
    k = rng.randrange(8)
    if k == 0:
        binders = tuple(
            Binder(rng.choice(BOUND), None if rng.random() < 0.4 else sub())
            for _ in range(rng.randrange(1, 4))
        )
        body = sub(scope + [b.name for b in binders])
        return Quant(rng.choice(["forall", "exists"]), binders, body)
    if k == 1:
        var = rng.choice(BOUND)
        return SetComp(var, sub(), sub(scope + [var]))
    if k == 2:
        var = rng.choice(BOUND)
        return SetImage(sub(scope + [var]), var, sub())
    if k == 3:
        return OpApp(rng.choice(names), tuple(sub() for _ in range(rng.randrange(1, 3))))
    if k == 4:
        return Neg(sub())
    if k == 5:
        return PowerSet(sub())
    if k == 6:
        return FnApp(sub(), sub())
    return rng.choice([And, Eq, In])(sub(), sub())


def rename_bound(rng: random.Random, e, env: dict):
    """e with each binder renamed to a name drawn from BOUND and the free
    names, and its bound occurrences renamed with it; a drawn name may
    capture, so the result need not be alpha-equal to e."""
    pick = lambda: rng.choice(BOUND + "aS")  # noqa: E731
    match e:
        case Ident(name):
            return Ident(env.get(name, name))
        case OpApp(name, args):
            return OpApp(env.get(name, name), tuple(rename_bound(rng, a, env) for a in args))
        case Quant(kind, binders, body):
            inner = dict(env)
            out = []
            for b in binders:
                new = pick()
                domain = None if b.domain is None else rename_bound(rng, b.domain, env)
                out.append(Binder(new, domain))
                inner[b.name] = new
            return Quant(kind, tuple(out), rename_bound(rng, body, inner))
        case SetComp(var, domain, pred):
            new = pick()
            pred = rename_bound(rng, pred, {**env, var: new})
            return SetComp(new, rename_bound(rng, domain, env), pred)
        case SetImage(expr, var, domain):
            new = pick()
            expr = rename_bound(rng, expr, {**env, var: new})
            return SetImage(expr, new, rename_bound(rng, domain, env))
        case _:
            return map_children(e, lambda c: rename_bound(rng, c, env))


@st.composite
def binder_pairs(draw):
    """Two binder-heavy terms: the second is the first, the first with its
    binders renamed, or another term."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    a = binder_term(rng, ["a", "S"], draw(st.integers(1, 4)))
    how = draw(st.sampled_from(["same", "renamed", "renamed", "other"]))
    if how == "same":
        return a, a
    if how == "renamed":
        return a, rename_bound(rng, a, {})
    return a, binder_term(rng, ["a", "S"], draw(st.integers(0, 4)))


class TestBinderScope:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(binder_pairs())
    def test_walkers_agree_with_the_references(self, pair):
        a, b = pair
        assert alpha_equal(a, b) == ref_alpha(a, b, {}, {}, 0)
        assert alpha_equal(b, a) == ref_alpha(b, a, {}, {}, 0)
        for e in (a, b):
            assert free_identifiers(e) == ref_free_names(e)


class TestPretty:
    @pytest.mark.parametrize(
        "text",
        [
            r"\A x \in S : f[x] # T",
            r"{z \in S : z \notin f[z]}",
            r"~P /\ Q => R",
            r"\E A \in SUBSET S : \A x \in S : f[x] # A",
            r"[S -> SUBSET S]",
            r"{f[x] : x \in S}",
            r"(P => Q) => R",
            r"P <=> Q \/ R",
            r"~(f[x] # T)",
            r"f[x][y]",
            r"P(a, b) /\ TRUE",
        ],
    )
    def test_parse_pretty_fixpoint(self, text):
        e = parse_expression(text)
        out = pretty(e)
        assert parse_expression(out) == e
        assert pretty(parse_expression(out)) == out

    @settings(max_examples=300, deadline=None)
    @given(exprs())
    def test_roundtrip_on_random_asts(self, e):
        # pretty . parse . pretty == pretty
        s1 = pretty(e)
        s2 = pretty(parse_expression(s1))
        assert s1 == s2
        assert parse_expression(s1) == e


def test_fresh_name_smallest_suffix():
    assert fresh_name("x", {"y"}) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1", "x2"}) == "x3"


class TestHash:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_copies_and_equal_terms_hash_equal(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        h = hash(e)  # cached on e before it is copied
        assert hash(copy.deepcopy(e)) == h
        twin = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        assert twin == e and hash(twin) == h
        reparsed = parse_expression(pretty(e))  # positions differ
        assert reparsed == e and hash(reparsed) == h

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_cached_rendering_is_that_of_a_fresh_term(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        for n in nodes(e):
            pretty(n)  # cached on every node of e
        twin = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        for a, b in zip(nodes(e), nodes(twin), strict=True):
            assert pretty(a) == pretty(b)
        assert parse_expression(pretty(e)) == e

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_copies_carry_no_cached_hash_or_rendering(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        hash(e)
        free_identifiers(e)
        for n in nodes(e):
            pretty(n)
        assert not any(hasattr(copy.copy(n), "_names") for n in nodes(e))
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e
            for n in nodes(twin):
                for obj in (n, *getattr(n, "binders", ())):
                    assert not hasattr(obj, "_hash") and not hasattr(obj, "_pretty")
                    assert not hasattr(obj, "_names")

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_kept_free_names_are_those_of_a_fresh_copy(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        kept = [free_identifiers(n) for n in nodes(e)]  # kept on every node of e
        assert kept[0] is free_identifiers(e)
        twin = pickle.loads(pickle.dumps(e))
        for names, n in zip(kept, nodes(twin), strict=True):
            assert free_identifiers(n) == names

    def test_unpickled_term_hashes_as_built_in_a_process_with_another_seed(self):
        # string hashes are salted per process: a hash cached in this process
        # must not travel with the pickle, nor the rendering cached with it
        text = r"\A x \in S : f[x] # {z \in S : z \notin f[z]} /\ P(a, SUBSET b)"
        e = parse_expression(text)
        hash(e)
        pretty(e)
        child = (
            "import pickle, sys\n"
            "from proofmgr.parser import parse_expression\n"
            "from proofmgr.syntax import children, pretty\n"
            "def nodes(e):\n"
            "    yield e\n"
            "    for c in children(e):\n"
            "        yield from nodes(c)\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "assert not any(hasattr(n, '_hash') or hasattr(n, '_pretty') for n in nodes(loaded))\n"
            "fresh = parse_expression(sys.argv[1])\n"
            "assert loaded == fresh\n"
            "assert {fresh: 0}[loaded] == 0\n"
            "for a, b in zip(nodes(loaded), nodes(fresh), strict=True):\n"
            "    assert hash(a) == hash(b), (a, hash(a), hash(b))\n"
            "    assert pretty(a) == pretty(b), (pretty(a), pretty(b))\n"
            "assert pretty(loaded) == sys.argv[2]\n"
        )
        src = str(Path(proofmgr.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1",
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, text, pretty(e)],
            input=pickle.dumps(e),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()


# ---------------------------------------------------------------------------
# Every record is a Node.  These pin what the frozen dataclasses it replaced
# did: the field order, the repr, equality, hashing, immutability and copies.

_X, _Y = S.Ident("x"), S.Ident("y")
_AT = S.Pos(3, 4)

# (class, its fields in order, positional arguments, repr)
RECORDS = [
    (S.Pos, ("line", "col"), (1, 2), "Pos(line=1, col=2)"),
    (S.Expr, (), (), "Expr()"),
    (S.Ident, ("name",), ("x",), "Ident(name='x')"),
    (S.OpApp, ("name", "args"), ("P", (_X, _Y)),
     "OpApp(name='P', args=(Ident(name='x'), Ident(name='y')))"),
    (S.FnApp, ("fn", "arg"), (_X, _Y), "FnApp(fn=Ident(name='x'), arg=Ident(name='y'))"),
    (S.Binder, ("name", "domain"), ("x", _Y), "Binder(name='x', domain=Ident(name='y'))"),
    (S.Quant, ("kind", "binders", "body"), ("forall", (S.Binder("x"),), _X),
     "Quant(kind='forall', binders=(Binder(name='x', domain=None),), body=Ident(name='x'))"),
    (S.Neg, ("item",), (_X,), "Neg(item=Ident(name='x'))"),
    (S.And, ("left", "right"), (_X, _Y), "And(left=Ident(name='x'), right=Ident(name='y'))"),
    (S.Or, ("left", "right"), (_X, _Y), "Or(left=Ident(name='x'), right=Ident(name='y'))"),
    (S.Implies, ("left", "right"), (_X, _Y),
     "Implies(left=Ident(name='x'), right=Ident(name='y'))"),
    (S.Iff, ("left", "right"), (_X, _Y), "Iff(left=Ident(name='x'), right=Ident(name='y'))"),
    (S.Eq, ("left", "right"), (_X, _Y), "Eq(left=Ident(name='x'), right=Ident(name='y'))"),
    (S.Ne, ("left", "right"), (_X, _Y), "Ne(left=Ident(name='x'), right=Ident(name='y'))"),
    (S.In, ("item", "set"), (_X, _Y), "In(item=Ident(name='x'), set=Ident(name='y'))"),
    (S.NotIn, ("item", "set"), (_X, _Y), "NotIn(item=Ident(name='x'), set=Ident(name='y'))"),
    (S.Subseteq, ("left", "right"), (_X, _Y),
     "Subseteq(left=Ident(name='x'), right=Ident(name='y'))"),
    (S.PowerSet, ("set",), (_X,), "PowerSet(set=Ident(name='x'))"),
    (S.SetComp, ("var", "domain", "pred"), ("z", _X, _Y),
     "SetComp(var='z', domain=Ident(name='x'), pred=Ident(name='y'))"),
    (S.SetImage, ("expr", "var", "domain"), (_X, "z", _Y),
     "SetImage(expr=Ident(name='x'), var='z', domain=Ident(name='y'))"),
    (S.FuncSpace, ("dom", "cod"), (_X, _Y),
     "FuncSpace(dom=Ident(name='x'), cod=Ident(name='y'))"),
    (S.Bool, ("value",), (True,), "Bool(value=True)"),
    (P.BeginStepToken, ("level", "label"), (1, "a"), "BeginStepToken(level=1, label='a')"),
    (P.GoalForm, ("assumes", "goal"), ((), _X), "GoalForm(assumes=(), goal=Ident(name='x'))"),
    (P.AssumeItem, (), (), "AssumeItem()"),
    (P.NewItem, ("name", "domain"), ("x", _Y), "NewItem(name='x', domain=Ident(name='y'))"),
    (P.FactItem, ("expr",), (_X,), "FactItem(expr=Ident(name='x'))"),
    (P.Proof, (), (), "Proof()"),
    (P.Obvious, (), (), "Obvious()"),
    (P.Omitted, ("implicit",), (True,), "Omitted(implicit=True)"),
    (P.By, ("facts", "defs"), ((_X,), ("D",)), "By(facts=(Ident(name='x'),), defs=('D',))"),
    (P.NonLeaf, ("steps",), ((),), "NonLeaf(steps=())"),
    (P.ProofStep, (), (), "ProofStep()"),
    (P.UseHideStep, ("facts", "defs", "hide"), ((_X,), ("D",), True),
     "UseHideStep(facts=(Ident(name='x'),), defs=('D',), hide=True)"),
    (P.DefineStep, ("name", "params", "body"), ("D", ("p",), _X),
     "DefineStep(name='D', params=('p',), body=Ident(name='x'))"),
    (P.HaveStep, ("expr",), (_X,), "HaveStep(expr=Ident(name='x'))"),
    (P.TakeStep, ("binders",), ((S.Binder("x"),),),
     "TakeStep(binders=(Binder(name='x', domain=None),))"),
    (P.WitnessItem, ("expr", "domain"), (_X, None),
     "WitnessItem(expr=Ident(name='x'), domain=None)"),
    (P.WitnessStep, ("items",), ((),), "WitnessStep(items=())"),
    (P.AssertStep, ("goal_form", "proof"), ("g", "p"), "AssertStep(goal_form='g', proof='p')"),
    (P.SufficesStep, ("goal_form", "proof"), ("g", "p"), "SufficesStep(goal_form='g', proof='p')"),
    (P.PickStep, ("binders", "body", "proof"), ((), _X, "p"),
     "PickStep(binders=(), body=Ident(name='x'), proof='p')"),
    (P.CaseStep, ("expr", "proof"), (_X, "p"), "CaseStep(expr=Ident(name='x'), proof='p')"),
    (P.QedStep, ("proof",), ("p",), "QedStep(proof='p')"),
    (P.Step, ("token", "body"), ("t", "b"), "Step(token='t', body='b')"),
    (P.Theorem, ("name", "goal_form", "proof"), ("T", "g", "p"),
     "Theorem(name='T', goal_form='g', proof='p')"),
    (P.Token, ("kind", "value", "pos"), ("IDENT", "x", _AT),
     "Token(kind='IDENT', value='x', pos=Pos(line=3, col=4))"),
    (M.Lambda, ("params", "body"), (("p", "q"), _X),
     "Lambda(params=('p', 'q'), body=Ident(name='x'))"),
    (M.Assumption, (), (), "Assumption()"),
    (M.New, ("name",), ("x",), "New(name='x')"),
    (M.Def, ("name", "definable", "hidden"), ("D", "d", True),
     "Def(name='D', definable='d', hidden=True)"),
    (M.Fact, ("obligation", "hidden"), ("o", False), "Fact(obligation='o', hidden=False)"),
    (M.Obligation, ("context", "goal"), ((M.New("x"),), _X),
     "Obligation(context=(New(name='x'),), goal=Ident(name='x'))"),
    (E.StepError, ("path", "message", "obligation", "span"), (("<1>1",), "bad", "o", _AT),
     "StepError(path=('<1>1',), message='bad', obligation='o', span=Pos(line=3, col=4))"),
    (E.LeafObligationRecord, ("obligation", "path", "kind", "omitted", "span"),
     ("o", (), "goal", True, None),
     "LeafObligationRecord(obligation='o', path=(), kind='goal', omitted=True, span=None)"),
    (E.Derivation,
     ("rule", "input", "output", "path", "children", "leaves", "error", "span"),
     ("by", "i", None, (), (), (), None, _AT),
     "Derivation(rule='by', input='i', output=None, path=(), children=(), leaves=(), "
     "error=None, span=Pos(line=3, col=4))"),
    (E.StepOutcome, ("output", "node"), ("o", "n"), "StepOutcome(output='o', node='n')"),
    (E.CheckedTheorem, ("theorem", "root", "derivation", "records", "errors", "warnings"),
     ("t", "o", "d", (), (), ("w",)),
     "CheckedTheorem(theorem='t', root='o', derivation='d', records=(), errors=(), "
     "warnings=('w',))"),
    (V.Budget, ("max_depth", "timeout_ms", "gamma_reuse"), (3, 10, 1),
     "Budget(max_depth=3, timeout_ms=10, gamma_reuse=1)"),
    (V.Sequent, ("constants", "hypotheses", "goal"), (("c",), (_X,), _Y),
     "Sequent(constants=('c',), hypotheses=(Ident(name='x'),), goal=Ident(name='y'))"),
    (V.Stats, ("iterations", "expansions", "closures"), (1, 2, 3),
     "Stats(iterations=1, expansions=2, closures=3)"),
    (V.Proved, ("trace",), ("t\n",), "Proved(trace='t\\n')"),
    (V.Unknown, ("reason", "stats"), ("exhausted", V.Stats(1, 2, 3)),
     "Unknown(reason='exhausted', stats=Stats(iterations=1, expansions=2, closures=3))"),
    (V.Malformed, ("reason",), ("r",), "Malformed(reason='r')"),
    (V.ReplayResult, ("ok", "error"), (False, "e"), "ReplayResult(ok=False, error='e')"),
    (R.LeafEntry,
     ("id", "path", "kind", "omitted", "obligation", "filtered", "embedding", "outcome", "millis"),
     (0, "<1>1", "goal", False, "x", "x", "e", None, 1.5),
     "LeafEntry(id=0, path='<1>1', kind='goal', omitted=False, obligation='x', filtered='x', "
     "embedding='e', outcome=None, millis=1.5)"),
    (R.ErrorEntry, ("path", "message"), ("<1>1", "bad"), "ErrorEntry(path='<1>1', message='bad')"),
    (R.ObligationReport, ("theorem", "status", "leaves", "errors"), ("T", "PROVED", (), ()),
     "ObligationReport(theorem='T', status='PROVED', leaves=(), errors=())"),
]


def _record_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def _reachable(value):
    """Every node in value, depth first, through fields and tuples."""
    if isinstance(value, tuple):
        for item in value:
            yield from _reachable(item)
    elif isinstance(value, Node):
        yield value
        for f in value._fields:
            yield from _reachable(getattr(value, f))


def _rebuilt(value, rng):
    """A fresh copy of value built through the constructors, with a new
    random position on every positioned node."""
    if isinstance(value, tuple):
        return tuple(_rebuilt(item, rng) for item in value)
    if not isinstance(value, Node):
        return value
    args = [_rebuilt(getattr(value, f), rng) for f in value._fields]
    if isinstance(value, Positioned):
        return type(value)(*args, pos=S.Pos(rng.randrange(1, 99), rng.randrange(1, 99)))
    return type(value)(*args)


def _check_node_semantics(root, rng):
    nodes = list(_reachable(root))
    for n in nodes:
        hash(n)
        if isinstance(n, S.Expr):
            pretty(n)
    # equality ignores positions, and equal nodes hash equally
    twin = _rebuilt(root, rng)
    for a, b in zip(nodes, _reachable(twin), strict=True):
        assert a == b and hash(a) == hash(b) and a is not b
        if isinstance(a, Positioned):
            assert b.pos is not None
    for n in nodes:
        values = [getattr(n, f) for f in n._fields]
        # a node of another class with the same fields is unequal
        for other in _record_classes():
            if other is not type(n) and other._fields == n._fields and other._check is None:
                assert other(*values) != n and n != other(*values)
        # immutable: no field, cache or position can be set or deleted
        for name in (*n._fields, "_hash", "_pretty", "_names", "pos"):
            with pytest.raises(AttributeError):
                setattr(n, name, None)
            with pytest.raises(AttributeError):
                delattr(n, name)
    # copies are equal, keep positions and carry no cached hash or rendering
    for copied in (copy.deepcopy(root), pickle.loads(pickle.dumps(root))):
        for a, b in zip(nodes, _reachable(copied), strict=True):
            assert type(b) is type(a) and b == a
            assert getattr(b, "pos", None) == getattr(a, "pos", None)
            assert not any(hasattr(b, k) for k in ("_hash", "_pretty", "_names"))


class TestNode:
    @pytest.mark.parametrize(
        "cls, fields, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
    )
    def test_record(self, cls, fields, args, text):
        node = cls(*args)
        assert repr(node) == text
        assert cls.__match_args__ == cls._fields == fields
        assert cls(**dict(zip(fields, args))) == node
        assert hash(cls(*args)) == hash(node) == hash(tuple(args))
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(twin) is cls and twin == node and repr(twin) == text

    def test_every_record_class_is_listed(self):
        assert set(_record_classes()) - {Positioned} == {r[0] for r in RECORDS}

    def test_classes_with_equal_fields_are_unequal(self):
        a, b = S.Ident("a"), S.Ident("b")
        assert S.And(a, b) != S.Or(a, b) and S.In(a, b) != S.NotIn(a, b)
        assert S.Ident("x") != M.New("x") and P.AssertStep("g", "p") != P.SufficesStep("g", "p")

    def test_defaults_keywords_and_validation(self):
        assert S.Binder("x") == S.Binder("x", None) == S.Binder(name="x", domain=None)
        assert V.Budget() == V.Budget(12, 5000, 4) and V.Budget(timeout_ms=1).timeout_ms == 1
        assert V.Unknown("exhausted").stats == V.Stats(0, 0, 0)
        assert E.Derivation("r", "i", None, (), span=_AT).children == ()
        assert S.Ident("x", pos=_AT).pos == _AT and S.Ident("x").pos is None
        with pytest.raises(ValueError, match="at least one binder"):
            S.Quant("forall", (), _X)
        with pytest.raises(M.DuplicateBinder):
            M.Lambda(("p", "p"), _X)
        with pytest.raises(ValueError, match="must be positive"):
            V.Budget(max_depth=0)
        for call in (
            lambda: S.And(_X),
            lambda: S.And(_X, _Y, _X),
            lambda: S.And(_X, _Y, left=_X),
            lambda: S.And(_X, _Y, colour=1),
            lambda: M.New("x", pos=_AT),
            lambda: E.Derivation("r"),
        ):
            with pytest.raises(TypeError):
                call()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**9))
    def test_generated_terms_and_records(self, seed):
        rng = random.Random(seed)
        sequent = rand_prop_sequent(rng)
        outcome = V.prove(sequent, V.Budget(max_depth=6, timeout_ms=5000, gamma_reuse=2))
        for root in (
            rand_expr(rng, ["a", "b", "S", "f"], 4),
            rand_obligation(rng),
            rand_wellformed_proof(rng),
            sequent,
            outcome,
        ):
            _check_node_semantics(root, rng)

    def test_parsed_and_checked_theorem(self):
        theorem = P.parse_theorem(cantor_text())
        _check_node_semantics(theorem, random.Random(1))
        _check_node_semantics(E.check_theorem(theorem), random.Random(2))


def test_cli_imports_neither_dataclasses_nor_inspect():
    # checked in a child process: pytest itself imports both
    child = (
        "import sys, proofmgr.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(proofmgr.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
