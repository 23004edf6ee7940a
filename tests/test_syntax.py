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
from helpers import rand_expr
from proofmgr.syntax import children


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
    Eq,
    Ident,
    Implies,
    Neg,
    OpApp,
    Quant,
    alpha_equal,
    free_identifiers,
    fresh_name,
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

    @settings(max_examples=200)
    @given(exprs())
    def test_nonfree_substitution_is_identity(self, e):
        assert substitute(e, "zz_not_free", Ident("a")) == e

    @settings(max_examples=200)
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

    @settings(max_examples=200)
    @given(exprs())
    def test_reflexive(self, e):
        assert alpha_equal(e, e)


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

    @settings(max_examples=300)
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
    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_copies_and_equal_terms_hash_equal(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        h = hash(e)  # cached on e before it is copied
        assert hash(copy.deepcopy(e)) == h
        twin = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        assert twin == e and hash(twin) == h
        reparsed = parse_expression(pretty(e))  # positions differ
        assert reparsed == e and hash(reparsed) == h

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_cached_rendering_is_that_of_a_fresh_term(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        for n in nodes(e):
            pretty(n)  # cached on every node of e
        twin = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        for a, b in zip(nodes(e), nodes(twin), strict=True):
            assert pretty(a) == pretty(b)
        assert parse_expression(pretty(e)) == e

    @settings(max_examples=100, derandomize=True, database=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_copies_carry_no_cached_hash_or_rendering(self, seed, depth):
        e = rand_expr(random.Random(seed), ["a", "b", "S", "f"], depth)
        hash(e)
        for n in nodes(e):
            pretty(n)
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e
            for n in nodes(twin):
                for obj in (n, *getattr(n, "binders", ())):
                    assert "_hash" not in vars(obj) and "_pretty" not in vars(obj)

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
            "assert not any('_pretty' in vars(n) for n in nodes(loaded))\n"
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
