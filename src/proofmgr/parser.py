"""Lexer and parser for the ASCII proof language.

Grammar summary (see README for the full table):

    theorem   ::= THEOREM [name ==] goalform [proof]
    goalform  ::= expr | ASSUME assumeitem ("," assumeitem)* PROVE expr
    assumeitem::= NEW ident ["\\in" setterm] | expr
    proof     ::= [PROOF] (OBVIOUS | OMITTED | BY factlist | steps)
    steps     ::= step+                     -- equal levels, last step QED
    step      ::= "<n>." body | "<n>label." body
    body      ::= USE facts | HIDE facts | DEFINE ident [params] == expr
                | HAVE expr | TAKE binders | WITNESS witnesses
                | SUFFICES goalform [proof] | PICK binders ":" expr [proof]
                | CASE expr [proof] | QED [proof] | goalform [proof]
    facts     ::= [expr ("," expr)*] [DEF name ("," name)*]

Hierarchy is recovered from level numbers alone, never from layout.  A step
that takes a subproof and is followed by a step token of the same or lower
level has an implicitly OMITTED subproof.  The PROOF keyword is optional
noise.  Line comments start with "\\*".
"""

from __future__ import annotations

import re

from .syntax import (
    And,
    Binder,
    Bool,
    Eq,
    Expr,
    FnApp,
    FuncSpace,
    Ident,
    Iff,
    Implies,
    In,
    Ne,
    Neg,
    Node,
    NotIn,
    OpApp,
    Or,
    Pos,
    Positioned,
    PowerSet,
    Quant,
    SetComp,
    SetImage,
    Subseteq,
)


class ParseError(Exception):
    def __init__(self, message: str, pos: Pos, expected: frozenset[str] = frozenset()):
        detail = f" (expected {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{pos}: {message}{detail}")
        self.message = message
        self.pos = pos
        self.line = pos.line
        self.col = pos.col
        self.expected = expected


class LevelError(ParseError):
    """Step level numbers violate the proof-structure constraints."""


# ---------------------------------------------------------------------------
# Proof AST


class BeginStepToken(Positioned):
    __slots__ = ("level", "label")
    _defaults = {"label": None}

    @property
    def name(self) -> str:
        return f"<{self.level}>{self.label or ''}"

    def __str__(self) -> str:
        return self.name


class GoalForm(Node):
    """Either a bare expression or an ASSUME ... PROVE form."""

    __slots__ = ("assumes", "goal")  # tuple[AssumeItem, ...], Expr


class AssumeItem(Node):
    __slots__ = ()


class NewItem(AssumeItem):
    __slots__ = ("name", "domain")
    _defaults = {"domain": None}


class FactItem(AssumeItem):
    __slots__ = ("expr",)


class Proof(Positioned):
    __slots__ = ()


class Obvious(Proof):
    __slots__ = ()


class Omitted(Proof):
    __slots__ = ("implicit",)
    _defaults = {"implicit": False}


class By(Proof):
    __slots__ = ("facts", "defs")  # tuple[Expr, ...], tuple[str, ...]


class NonLeaf(Proof):
    __slots__ = ("steps",)  # tuple[Step, ...]


class ProofStep(Node):
    __slots__ = ()


class UseHideStep(ProofStep):
    # synthetic: inserted by lowering, never parsed
    __slots__ = ("facts", "defs", "hide", "synthetic")
    _defaults = {"synthetic": False}


class DefineStep(ProofStep):
    __slots__ = ("name", "params", "body")


class HaveStep(ProofStep):
    __slots__ = ("expr",)


class TakeStep(ProofStep):
    __slots__ = ("binders",)  # tuple[Binder, ...]


class WitnessItem(Node):
    __slots__ = ("expr", "domain")
    _defaults = {"domain": None}


class WitnessStep(ProofStep):
    __slots__ = ("items",)  # tuple[WitnessItem, ...]


class AssertStep(ProofStep):
    __slots__ = ("goal_form", "proof")


class SufficesStep(ProofStep):
    __slots__ = ("goal_form", "proof")


class PickStep(ProofStep):
    __slots__ = ("binders", "body", "proof")


class CaseStep(ProofStep):
    __slots__ = ("expr", "proof")


class QedStep(ProofStep):
    __slots__ = ("proof",)


class Step(Positioned):
    __slots__ = ("token", "body")  # BeginStepToken, ProofStep


class Theorem(Node):
    __slots__ = ("name", "goal_form", "proof")  # Optional[str], GoalForm, Proof


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "THEOREM", "ASSUME", "PROVE", "NEW", "DEFINE", "PROOF", "OBVIOUS",
    "OMITTED", "BY", "USE", "HIDE", "DEF", "SUFFICES", "TAKE", "WITNESS",
    "HAVE", "PICK", "CASE", "QED", "TRUE", "FALSE", "SUBSET",
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STEP_RE = re.compile(r"<(\d+)>([A-Za-z0-9_]*)")


class Token(Node):
    # kind: keyword text, symbol text, or IDENT/STEPDOT/STEPREF/EOF; unlike
    # a positioned node's, a token's pos is a field, compared and shown
    __slots__ = ("kind", "value", "pos")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def here() -> Pos:
        return Pos(line, col)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if c == "\\":
            if text.startswith("\\*", i):
                while i < n and text[i] != "\n":
                    advance(1)
                continue
            if text.startswith("\\/", i):
                tokens.append(Token("\\/", "\\/", here()))
                advance(2)
                continue
            m = _IDENT_RE.match(text, i + 1)
            if m and m.group(0) in ("A", "E", "in", "notin", "subseteq"):
                word = "\\" + m.group(0)
                tokens.append(Token(word, word, here()))
                advance(len(word))
                continue
            raise ParseError(f"unknown escape {text[i:i+8]!r}", here())
        if c == "<":
            if text.startswith("<=>", i):
                tokens.append(Token("<=>", "<=>", here()))
                advance(3)
                continue
            m = _STEP_RE.match(text, i)
            if not m:
                raise ParseError("malformed step token", here())
            name = f"<{m.group(1)}>{m.group(2)}"
            end = m.end()
            if end < n and text[end] == ".":
                tokens.append(Token("STEPDOT", name, here()))
                advance(end - i + 1)
            else:
                tokens.append(Token("STEPREF", name, here()))
                advance(end - i)
            continue
        if c == "/":
            if text.startswith("/\\", i):
                tokens.append(Token("/\\", "/\\", here()))
                advance(2)
                continue
            raise ParseError("stray '/'", here())
        if c == "=":
            for sym in ("==", "=>", "="):
                if text.startswith(sym, i):
                    tokens.append(Token(sym, sym, here()))
                    advance(len(sym))
                    break
            continue
        if c == "-":
            if text.startswith("->", i):
                tokens.append(Token("->", "->", here()))
                advance(2)
                continue
            raise ParseError("stray '-'", here())
        if c in "#~(){}[]:,":
            tokens.append(Token(c, c, here()))
            advance(1)
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, here()))
            advance(len(word))
            continue
        raise ParseError(f"unexpected character {c!r}", here())
    tokens.append(Token("EOF", "", Pos(line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_REL_OPS = {"=", "#", "\\in", "\\notin", "\\subseteq"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if self.i < len(self.tokens) - 1:
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"unexpected {t.value or t.kind!r}", t.pos, expected=frozenset({kind})
            )
        return self.next()

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        if self.at("\\A", "\\E"):
            return self.quantified()
        return self.iff()

    def quantified(self) -> Expr:
        t = self.next()
        kind = "forall" if t.kind == "\\A" else "exists"
        binders = self.binder_list()
        self.expect(":")
        body = self.expr()
        return Quant(kind, binders, body, pos=t.pos)

    def binder_list(self) -> tuple[Binder, ...]:
        binders = [self.binder()]
        while self.at(","):
            self.next()
            binders.append(self.binder())
        return tuple(binders)

    def binder(self) -> Binder:
        name = self.expect("IDENT").value
        if self.at("\\in"):
            self.next()
            return Binder(name, self.set_term())
        return Binder(name)

    def _rhs(self, sub) -> tuple[Expr, bool]:
        """Operand of a binary operator; a quantifier eats the rest."""
        if self.at("\\A", "\\E"):
            return self.quantified(), True
        return sub(), False

    def iff(self) -> Expr:
        left = self.impl()
        while self.at("<=>"):
            t = self.next()
            right, final = self._rhs(self.impl)
            left = Iff(left, right, pos=t.pos)
            if final:
                break
        return left

    def impl(self) -> Expr:
        left = self.disj()
        if self.at("=>"):
            t = self.next()
            right, _ = self._rhs(self.impl)  # right-associative
            return Implies(left, right, pos=t.pos)
        return left

    def disj(self) -> Expr:
        left = self.conj()
        while self.at("\\/"):
            t = self.next()
            right, final = self._rhs(self.conj)
            left = Or(left, right, pos=t.pos)
            if final:
                break
        return left

    def conj(self) -> Expr:
        left = self.negation()
        while self.at("/\\"):
            t = self.next()
            right, final = self._rhs(self.negation)
            left = And(left, right, pos=t.pos)
            if final:
                break
        return left

    def negation(self) -> Expr:
        if self.at("~"):
            t = self.next()
            return Neg(self.negation(), pos=t.pos)
        return self.relation()

    def relation(self) -> Expr:
        left = self.set_term()
        t = self.peek()
        if t.kind in _REL_OPS:
            self.next()
            right = self.set_term()
            match t.kind:
                case "=":
                    return Eq(left, right, pos=t.pos)
                case "#":
                    return Ne(left, right, pos=t.pos)
                case "\\in":
                    return In(left, right, pos=t.pos)
                case "\\notin":
                    return NotIn(left, right, pos=t.pos)
                case _:
                    return Subseteq(left, right, pos=t.pos)
        return left

    def set_term(self) -> Expr:
        if self.at("SUBSET"):
            t = self.next()
            return PowerSet(self.set_term(), pos=t.pos)
        return self.postfix()

    def postfix(self) -> Expr:
        e = self.primary()
        while self.at("["):
            t = self.next()
            arg = self.expr()
            self.expect("]")
            e = FnApp(e, arg, pos=t.pos)
        return e

    def primary(self) -> Expr:
        t = self.peek()
        match t.kind:
            case "IDENT":
                self.next()
                if self.at("("):
                    self.next()
                    args = [self.expr()]
                    while self.at(","):
                        self.next()
                        args.append(self.expr())
                    self.expect(")")
                    return OpApp(t.value, tuple(args), pos=t.pos)
                return Ident(t.value, pos=t.pos)
            case "STEPREF":
                self.next()
                return Ident(t.value, pos=t.pos)
            case "TRUE" | "FALSE":
                self.next()
                return Bool(t.kind == "TRUE", pos=t.pos)
            case "(":
                self.next()
                e = self.expr()
                self.expect(")")
                return e
            case "{":
                return self.set_display()
            case "[":
                self.next()
                dom = self.expr()
                self.expect("->")
                cod = self.expr()
                self.expect("]")
                return FuncSpace(dom, cod, pos=t.pos)
            case "\\A" | "\\E":
                return self.quantified()
            case _:
                raise ParseError(
                    f"unexpected {t.value or t.kind!r}",
                    t.pos,
                    expected=frozenset({"expression"}),
                )

    def set_display(self) -> Expr:
        t = self.expect("{")
        if self.at("}"):
            self.next()
            return Ident("{}", pos=t.pos)  # uninterpreted empty-set constant
        if self.at("IDENT") and self.peek(1).kind == "\\in":
            var = self.next().value
            self.next()
            domain = self.set_term()
            self.expect(":")
            pred = self.expr()
            self.expect("}")
            return SetComp(var, domain, pred, pos=t.pos)
        expr = self.expr()
        self.expect(":")
        var = self.expect("IDENT").value
        self.expect("\\in")
        domain = self.set_term()
        self.expect("}")
        return SetImage(expr, var, domain, pos=t.pos)

    # -- proofs -------------------------------------------------------------

    def theorem(self) -> Theorem:
        self.expect("THEOREM")
        name = None
        if self.at("IDENT") and self.peek(1).kind == "==":
            name = self.next().value
            self.next()
        goal_form = self.goal_form()
        proof = self.proof(min_level=0)
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"trailing input {t.value!r}", t.pos)
        return Theorem(name, goal_form, proof)

    def goal_form(self) -> GoalForm:
        if self.at("ASSUME"):
            self.next()
            items = [self.assume_item()]
            while self.at(","):
                self.next()
                items.append(self.assume_item())
            self.expect("PROVE")
            return GoalForm(tuple(items), self.expr())
        return GoalForm((), self.expr())

    def assume_item(self) -> AssumeItem:
        if self.at("NEW"):
            self.next()
            name = self.expect("IDENT").value
            if self.at("\\in"):
                self.next()
                return NewItem(name, self.set_term())
            return NewItem(name)
        return FactItem(self.expr())

    def proof(self, min_level: int) -> Proof:
        """A proof attached after a step body or theorem; may be implicit."""
        if self.at("PROOF"):
            self.next()
        t = self.peek()
        match t.kind:
            case "OBVIOUS":
                self.next()
                return Obvious(pos=t.pos)
            case "OMITTED":
                self.next()
                return Omitted(pos=t.pos)
            case "BY":
                self.next()
                facts, defs = self.fact_list()
                return By(facts, defs, pos=t.pos)
            case "STEPDOT":
                level = _STEP_RE.match(t.value).group(1)  # type: ignore[union-attr]
                if int(level) <= min_level:
                    return Omitted(implicit=True, pos=t.pos)
                return self.step_sequence()
            case _:
                return Omitted(implicit=True, pos=t.pos)

    def fact_list(self) -> tuple[tuple[Expr, ...], tuple[str, ...]]:
        facts: list[Expr] = []
        defs: list[str] = []
        if not self.at("DEF"):
            facts.append(self.expr())
            while self.at(","):
                self.next()
                facts.append(self.expr())
        if self.at("DEF"):
            self.next()
            defs.append(self.def_name())
            while self.at(","):
                self.next()
                defs.append(self.def_name())
        return tuple(facts), tuple(defs)

    def def_name(self) -> str:
        t = self.peek()
        if t.kind in ("IDENT", "STEPREF"):
            return self.next().value
        raise ParseError(
            f"unexpected {t.value or t.kind!r}", t.pos, expected=frozenset({"name"})
        )

    def witness_item(self) -> WitnessItem:
        # a top-level membership names the witness and its set
        e = self.expr()
        if isinstance(e, In):
            return WitnessItem(e.item, e.set)
        return WitnessItem(e)

    def step_token(self) -> BeginStepToken:
        t = self.expect("STEPDOT")
        m = _STEP_RE.match(t.value)
        assert m is not None
        return BeginStepToken(int(m.group(1)), m.group(2) or None, pos=t.pos)

    def step_sequence(self) -> NonLeaf:
        first = self.peek()
        level = int(_STEP_RE.match(first.value).group(1))  # type: ignore[union-attr]
        steps: list[Step] = []
        seen: set[str] = set()
        qed_seen = False
        while self.at("STEPDOT"):
            t = self.peek()
            tok_level = int(_STEP_RE.match(t.value).group(1))  # type: ignore[union-attr]
            if tok_level < level:
                break
            if tok_level > level:
                raise LevelError(
                    f"step {t.value} is deeper than its sequence (level {level})", t.pos
                )
            if qed_seen:
                raise LevelError(f"step {t.value} appears after QED", t.pos)
            token = self.step_token()
            if token.label is not None:
                if token.name in seen:
                    raise ParseError(f"duplicate step token {token.name}", token.pos)
                seen.add(token.name)
            body = self.step_body(token)
            qed_seen = isinstance(body, QedStep)
            steps.append(Step(token, body, pos=token.pos))
        if not steps:
            t = self.peek()
            raise LevelError("empty step sequence", t.pos)
        if not qed_seen:
            t = self.peek()
            raise LevelError(f"step sequence at level {level} has no QED step", t.pos)
        return NonLeaf(tuple(steps), pos=steps[0].pos)

    def step_body(self, token: BeginStepToken) -> ProofStep:
        t = self.peek()
        match t.kind:
            case "USE" | "HIDE":
                self.next()
                facts, defs = self.fact_list()
                self._forbid_subproof(token)
                return UseHideStep(facts, defs, hide=t.kind == "HIDE")
            case "DEFINE":
                self.next()
                name = self.expect("IDENT").value
                params: tuple[str, ...] = ()
                if self.at("("):
                    self.next()
                    names = [self.expect("IDENT").value]
                    while self.at(","):
                        self.next()
                        names.append(self.expect("IDENT").value)
                    self.expect(")")
                    params = tuple(names)
                self.expect("==")
                body = self.expr()
                self._forbid_subproof(token)
                return DefineStep(name, params, body)
            case "HAVE":
                self.next()
                e = self.expr()
                self._forbid_subproof(token)
                return HaveStep(e)
            case "TAKE":
                self.next()
                binders = self.binder_list()
                self._forbid_subproof(token)
                return TakeStep(binders)
            case "WITNESS":
                self.next()
                items = [self.witness_item()]
                while self.at(","):
                    self.next()
                    items.append(self.witness_item())
                self._forbid_subproof(token)
                return WitnessStep(tuple(items))
            case "SUFFICES":
                self.next()
                gf = self.goal_form()
                return SufficesStep(gf, self.proof(token.level))
            case "PICK":
                self.next()
                binders = self.binder_list()
                self.expect(":")
                body = self.expr()
                return PickStep(binders, body, self.proof(token.level))
            case "CASE":
                self.next()
                e = self.expr()
                return CaseStep(e, self.proof(token.level))
            case "QED":
                self.next()
                return QedStep(self.proof(token.level))
            case _:
                gf = self.goal_form()
                return AssertStep(gf, self.proof(token.level))

    def _forbid_subproof(self, token: BeginStepToken) -> None:
        t = self.peek()
        if t.kind == "STEPDOT":
            level = int(_STEP_RE.match(t.value).group(1))  # type: ignore[union-attr]
            if level > token.level:
                raise LevelError(
                    f"step {token.name} takes no subproof but is followed by {t.value}",
                    t.pos,
                )


def parse_theorem(text: str) -> Theorem:
    return _Parser(tokenize(text)).theorem()


def parse_expression(text: str) -> Expr:
    p = _Parser(tokenize(text))
    e = p.expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.value!r}", t.pos)
    return e


def validate_levels(proof: Proof, min_level: int = 0) -> None:
    """Check the level-number constraints on a constructed proof AST.

    Raises LevelError on the first violation: unequal levels within one
    sequence, a subproof at or below its step's level, a non-final QED, or a
    missing QED.
    """
    if not isinstance(proof, NonLeaf):
        return
    if not proof.steps:
        raise LevelError("empty step sequence", proof.pos or Pos(0, 0))
    level = proof.steps[0].token.level
    if level <= min_level:
        raise LevelError(
            f"subproof level {level} not deeper than {min_level}",
            proof.steps[0].token.pos or Pos(0, 0),
        )
    for idx, step in enumerate(proof.steps):
        tok = step.token
        where = tok.pos or Pos(0, 0)
        if tok.level != level:
            raise LevelError(
                f"step {tok.name} breaks the sequence level {level}", where
            )
        is_last = idx == len(proof.steps) - 1
        if isinstance(step.body, QedStep) != is_last:
            raise LevelError(f"QED placement violated at {tok.name}", where)
        sub = getattr(step.body, "proof", None)  # a step's subproof
        if sub is not None:
            validate_levels(sub, tok.level)
