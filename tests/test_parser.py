"""Surface language: lexing, expression/proof parsing, level constraints."""

import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from helpers import cantor_text
from proofmgr.parser import (
    AssertStep,
    By,
    CaseStep,
    DefineStep,
    LevelError,
    NonLeaf,
    Obvious,
    Omitted,
    ParseError,
    QedStep,
    SufficesStep,
    parse_expression,
    parse_theorem,
    tokenize,
)
from proofmgr.syntax import (
    And,
    Binder,
    Eq,
    FnApp,
    Ident,
    Implies,
    In,
    Ne,
    Neg,
    NotIn,
    PowerSet,
    Quant,
    SetComp,
    SetImage,
    pretty,
)


_LEXEMES = st.one_of(
    st.sampled_from([
        "THEOREM", "QED", "SUBSET", "==", "=>", "<=>", "=", "#", "~", "(", ")",
        "{", "}", "[", "]", "->", ",", ":", "/\\", "\\/", "\\A", "\\E", "\\in",
        "\\notin", "\\subseteq",
    ]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.from_regex(r"<[0-9]{1,3}>[A-Za-z0-9_]{0,3}\.?", fullmatch=True),
)
_BLANKS = st.sampled_from([" ", "\t", "\n", "\r\n", "  \\* note /\\ <1>\n"])


class TestLexer:
    @pytest.mark.parametrize(
        "text, message, where",
        [
            ("P \\q Q", "unknown escape '\\\\q Q'", "1:3"),
            ("P \\inS", "unknown escape '\\\\inS'", "1:3"),
            ("THEOREM\n  <x>1", "malformed step token", "2:3"),
            ("P / Q", "stray '/'", "1:3"),
            ("x\t- y", "stray '-'", "1:3"),
            ("x \u00e9 y", "unexpected character '\u00e9'", "1:3"),
        ],
    )
    def test_lexical_errors(self, text, message, where):
        with pytest.raises(ParseError) as exc:
            tokenize(text)
        assert exc.value.message == message
        assert str(exc.value) == f"{where}: {message}"

    def test_positions_after_comments_crlf_and_tabs(self):
        text = "\\* c \\/\r\nx\t\\in  \\* tail\n\t<1>a. QED\r\n\tP"
        got = [(t.kind, t.value, str(t.pos)) for t in tokenize(text)]
        assert got == [
            ("IDENT", "x", "2:1"),
            ("\\in", "\\in", "2:3"),
            ("STEPDOT", "<1>a", "3:2"),
            ("QED", "QED", "3:8"),
            ("IDENT", "P", "4:2"),
            ("EOF", "", "4:3"),
        ]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_BLANKS, _LEXEMES), max_size=30), _BLANKS)
    def test_each_token_points_at_its_text(self, pieces, tail):
        text = "".join(blank + lexeme for blank, lexeme in pieces) + tail
        tokens = tokenize(text)
        lines = text.split("\n")
        for t in tokens:
            assert lines[t.pos.line - 1][t.pos.col - 1:].startswith(t.value)
        assert [t.value for t in tokens] == [
            w[:-1] if w[0] == "<" and w[-1] == "." else w for _, w in pieces
        ] + [""]


class TestExpressions:
    def test_bounded_forall(self):
        e = parse_expression(r"\A x \in S : f[x] # T")
        assert e == Quant(
            "forall",
            (Binder("x", Ident("S")),),
            Ne(FnApp(Ident("f"), Ident("x")), Ident("T")),
        )

    def test_comprehension(self):
        e = parse_expression(r"{z \in S : z \notin f[z]}")
        assert e == SetComp(
            "z", Ident("S"), NotIn(Ident("z"), FnApp(Ident("f"), Ident("z")))
        )

    def test_precedence_neg_conj_impl(self):
        e = parse_expression(r"~P /\ Q => R")
        assert e == Implies(And(Neg(Ident("P")), Ident("Q")), Ident("R"))

    def test_implication_right_associative(self):
        e = parse_expression("P => Q => R")
        assert e == Implies(Ident("P"), Implies(Ident("Q"), Ident("R")))

    def test_relations_bind_tighter_than_connectives(self):
        e = parse_expression(r"x \in S /\ y = z")
        assert e == And(In(Ident("x"), Ident("S")), Eq(Ident("y"), Ident("z")))

    def test_quantifier_body_extends_right(self):
        e = parse_expression(r"\A x : P(x) => Q")
        assert isinstance(e, Quant) and isinstance(e.body, Implies)

    def test_quantifier_as_operand(self):
        e = parse_expression(r"P => \A x : Q(x)")
        assert isinstance(e, Implies) and isinstance(e.right, Quant)

    def test_powerset_membership(self):
        e = parse_expression(r"A \in SUBSET S")
        assert e == In(Ident("A"), PowerSet(Ident("S")))

    def test_image_set(self):
        e = parse_expression(r"{f[x] : x \in S}")
        assert e == SetImage(FnApp(Ident("f"), Ident("x")), "x", Ident("S"))

    def test_empty_set_constant(self):
        e = parse_expression(r"x \in {}")
        assert e == In(Ident("x"), Ident("{}"))

    def test_multi_binder_each_independent(self):
        e = parse_expression(r"\A x, y \in S : P(x, y)")
        assert e.binders == (Binder("x"), Binder("y", Ident("S")))

    def test_error_has_position_and_expected(self):
        with pytest.raises(ParseError) as exc:
            parse_expression(r"\A x  P(x)")
        assert exc.value.line == 1 and exc.value.col > 1
        assert ":" in exc.value.expected

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("P Q")


class TestTheorems:
    def test_minimal_theorem(self):
        t = parse_theorem("THEOREM T == TRUE <1>1. QED OBVIOUS")
        assert t.name == "T"
        assert pretty(t.goal_form.goal) == "TRUE"
        assert isinstance(t.proof, NonLeaf)
        (step,) = t.proof.steps
        assert isinstance(step.body, QedStep)
        assert isinstance(step.body.proof, Obvious)

    def test_cantor_structure(self):
        t = parse_theorem(cantor_text())
        assert t.name is None
        top = t.proof
        assert isinstance(top, NonLeaf) and len(top.steps) == 2
        s11, s12 = top.steps
        assert s11.token.level == 1 and s11.token.label == "1"
        assert isinstance(s11.body, AssertStep)
        level2 = s11.body.proof
        assert isinstance(level2, NonLeaf) and len(level2.steps) == 3
        assert isinstance(level2.steps[0].body, DefineStep)
        level3 = level2.steps[1].body.proof
        assert isinstance(level3, NonLeaf)
        level4 = level3.steps[0].body.proof
        assert isinstance(level4, NonLeaf) and len(level4.steps) == 3
        assert isinstance(level4.steps[0].body, CaseStep)
        assert isinstance(s12.body, QedStep)
        assert isinstance(s12.body.proof, By)
        assert s12.body.proof.facts == (Ident("<1>1"),)

    def test_missing_subproof_is_omitted(self):
        t = parse_theorem(
            "THEOREM ASSUME NEW P, P PROVE P\n<1>1. P\n<1>2. QED OBVIOUS"
        )
        step = t.proof.steps[0]
        assert isinstance(step.body.proof, Omitted)
        assert step.body.proof.implicit

    def test_proof_keyword_optional(self):
        a = parse_theorem("THEOREM TRUE <1>1. QED PROOF OBVIOUS")
        b = parse_theorem("THEOREM TRUE <1>1. QED OBVIOUS")
        assert type(a.proof.steps[0].body.proof) is type(b.proof.steps[0].body.proof)

    def test_suffices_assume_prove(self):
        t = parse_theorem(
            "THEOREM ASSUME NEW S PROVE TRUE\n"
            "<1>1. SUFFICES ASSUME NEW x \\in S PROVE TRUE\n"
            "      OBVIOUS\n"
            "<1>2. QED OBVIOUS"
        )
        assert isinstance(t.proof.steps[0].body, SufficesStep)

    def test_by_def_clause(self):
        t = parse_theorem("THEOREM TRUE <1>1. QED BY TRUE DEF Op, <2>1")
        by = t.proof.steps[0].body.proof
        assert by.defs == ("Op", "<2>1")

    def test_line_comments_skipped(self):
        t = parse_theorem("\\* header\nTHEOREM TRUE \\* trailing\n<1>1. QED OBVIOUS")
        assert t.name is None


class TestLevels:
    def test_mixed_levels_in_sequence(self):
        bad = (
            "THEOREM TRUE\n"
            "<2>1. TRUE\n"
            "<3>2. TRUE\n"  # deeper token in sibling position of a no-proof... assertion
            "<2>3. QED OBVIOUS"
        )
        # <3>2 parses as a subproof start of <2>1, but that subproof then has
        # no QED before the level drops back
        with pytest.raises(LevelError):
            parse_theorem(bad)

    def test_deeper_token_after_no_proof_step(self):
        bad = (
            "THEOREM ASSUME NEW P, P => P PROVE P => P\n"
            "<1>1. HAVE P\n"
            "<2>1. QED OBVIOUS\n"
        )
        with pytest.raises(LevelError):
            parse_theorem(bad)

    def test_missing_qed(self):
        with pytest.raises(LevelError):
            parse_theorem("THEOREM TRUE <1>1. TRUE OBVIOUS")

    def test_step_after_qed(self):
        bad = "THEOREM TRUE <1>1. QED OBVIOUS <1>2. TRUE OBVIOUS"
        with pytest.raises(LevelError):
            parse_theorem(bad)

    def test_duplicate_labels_rejected(self):
        bad = "THEOREM TRUE <1>1. TRUE OBVIOUS <1>1. QED OBVIOUS"
        with pytest.raises(ParseError):
            parse_theorem(bad)


class TestFuzz:
    def test_random_token_soup_never_crashes(self):
        rng = random.Random(13)
        vocab = [
            "THEOREM", "ASSUME", "PROVE", "QED", "OBVIOUS", "OMITTED", "BY",
            "USE", "HIDE", "DEF", "TAKE", "WITNESS", "HAVE", "PICK", "CASE",
            "SUFFICES", "DEFINE", "NEW", "PROOF", "TRUE", "FALSE", "SUBSET",
            "<1>1.", "<2>.", "<1>2", "==", "=>", "<=>", "=", "#", "~", "(",
            ")", "{", "}", "[", "]", "->", ",", ":", "/\\", "\\/", "\\A",
            "\\E", "\\in", "\\notin", "\\subseteq", "x", "y", "S", "f", "P",
        ]
        for _ in range(400):
            soup = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 25)))
            try:
                parse_theorem(soup)
            except ParseError:
                pass  # positioned failure is the contract

    def test_random_character_soup_never_crashes(self):
        rng = random.Random(17)
        alphabet = string.ascii_letters + string.digits + "\\/<>=#~(){}[],.:-_ \n"
        for _ in range(400):
            soup = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            try:
                parse_theorem(soup)
            except ParseError:
                pass

    def test_tokenizer_reports_position(self):
        try:
            tokenize("THEOREM\n  $bad")
        except ParseError as err:
            assert err.line == 2 and err.col == 3
        else:
            pytest.fail("expected a ParseError")
