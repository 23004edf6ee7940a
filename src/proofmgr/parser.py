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
    __slots__ = ("facts", "defs", "hide")


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


class Step(Node):
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

# One alternative per token class, tried in this order at each offset; only
# a blank can hold a newline.  A backslash word ends where identifiers end.
_TOKEN_RE = re.compile(
    r"(?P<blank>[ \t\r\n]+|\\\*[^\n]*)"
    r"|(?P<symbol>\\(?:/|(?:A|E|in|notin|subseteq)(?![A-Za-z0-9_]))"
    r"|<=>|==|=>|=|->|/\\|[#~(){}\[\]:,])"
    r"|(?P<step><\d+>[A-Za-z0-9_]*\.?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<error>.)",
    re.DOTALL,
)
_LEX_ERRORS = {"<": "malformed step token", "/": "stray '/'", "-": "stray '-'"}


class Token(Node):
    # kind: keyword text, symbol text, or IDENT/STEPDOT/STEPREF/EOF; unlike
    # a positioned node's, a token's pos is a field, compared and shown
    __slots__ = ("kind", "value", "pos")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        group, value, i = m.lastgroup, m.group(), m.start()
        if group == "blank":
            nl = value.rfind("\n")
            if nl >= 0:
                line += value.count("\n")
                start = i + nl + 1
            continue
        pos = Pos(line, i - start + 1)
        if group == "symbol":
            kind = value
        elif group == "step":
            kind = "STEPDOT" if value[-1] == "." else "STEPREF"
            value = value.rstrip(".")
        elif group == "word":
            kind = value if value in KEYWORDS else "IDENT"
        elif value == "\\":
            raise ParseError(f"unknown escape {text[i:i + 8]!r}", pos)
        else:
            raise ParseError(_LEX_ERRORS.get(value, f"unexpected character {value!r}"), pos)
        tokens.append(Token(kind, value, pos))
    tokens.append(Token("EOF", "", Pos(line, len(text) - start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_REL_OPS = {"=": Eq, "#": Ne, "\\in": In, "\\notin": NotIn, "\\subseteq": Subseteq}
# binary connectives from the loosest to the tightest; all but => associate
# to the left
_BINARY = (("<=>", Iff), ("=>", Implies), ("\\/", Or), ("/\\", And))


def _level(t: Token) -> int:
    """The level number of a step token."""
    return int(t.value[1 : t.value.index(">")])


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

    def fail(self, expected: str) -> ParseError:
        t = self.peek()
        return ParseError(
            f"unexpected {t.value or t.kind!r}", t.pos, expected=frozenset({expected})
        )

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            raise self.fail(kind)
        return self.next()

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def comma_list(self, item) -> tuple:
        items = [item()]
        while self.at(","):
            self.next()
            items.append(item())
        return tuple(items)

    def ident(self) -> str:
        return self.expect("IDENT").value

    def finish(self, result):
        """The result of a parse that must consume all the input."""
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"trailing input {t.value!r}", t.pos)
        return result

    # -- expressions --------------------------------------------------------

    def expr(self, level: int = 0) -> Expr:
        """An expression whose top binary connective, if any, is one of
        _BINARY[level:]; only level 0 starts with a quantifier."""
        if level == 0 and self.at("\\A", "\\E"):
            return self.quantified()
        op, make = _BINARY[level]
        tightest = level == len(_BINARY) - 1
        left = self.negation() if tightest else self.expr(level + 1)
        while self.at(op):
            self.next()
            if self.at("\\A", "\\E"):  # a quantifier operand eats the rest
                return make(left, self.quantified())
            if op == "=>":  # right-associative
                return make(left, self.expr(level))
            left = make(left, self.negation() if tightest else self.expr(level + 1))
        return left

    def quantified(self) -> Expr:
        t = self.next()
        kind = "forall" if t.kind == "\\A" else "exists"
        binders = self.comma_list(self.binder)
        self.expect(":")
        return Quant(kind, binders, self.expr())

    def binder(self) -> Binder:
        name = self.ident()
        if self.at("\\in"):
            self.next()
            return Binder(name, self.set_term())
        return Binder(name)

    def negation(self) -> Expr:
        if self.at("~"):
            self.next()
            return Neg(self.negation())
        return self.relation()

    def relation(self) -> Expr:
        left = self.set_term()
        t = self.peek()
        if t.kind in _REL_OPS:
            self.next()
            return _REL_OPS[t.kind](left, self.set_term())
        return left

    def set_term(self) -> Expr:
        if self.at("SUBSET"):
            self.next()
            return PowerSet(self.set_term())
        return self.postfix()

    def postfix(self) -> Expr:
        e = self.primary()
        while self.at("["):
            self.next()
            arg = self.expr()
            self.expect("]")
            e = FnApp(e, arg)
        return e

    def primary(self) -> Expr:
        t = self.peek()
        match t.kind:
            case "IDENT":
                self.next()
                if self.at("("):
                    self.next()
                    args = self.comma_list(self.expr)
                    self.expect(")")
                    return OpApp(t.value, args)
                return Ident(t.value)
            case "STEPREF":
                self.next()
                return Ident(t.value)
            case "TRUE" | "FALSE":
                self.next()
                return Bool(t.kind == "TRUE")
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
                return FuncSpace(dom, cod)
            case "\\A" | "\\E":
                return self.quantified()
            case _:
                raise self.fail("expression")

    def set_display(self) -> Expr:
        self.expect("{")
        if self.at("}"):
            self.next()
            return Ident("{}")  # uninterpreted empty-set constant
        if self.at("IDENT") and self.peek(1).kind == "\\in":
            var = self.next().value
            self.next()
            domain = self.set_term()
            self.expect(":")
            pred = self.expr()
            self.expect("}")
            return SetComp(var, domain, pred)
        expr = self.expr()
        self.expect(":")
        var = self.ident()
        self.expect("\\in")
        domain = self.set_term()
        self.expect("}")
        return SetImage(expr, var, domain)

    # -- proofs -------------------------------------------------------------

    def theorem(self) -> Theorem:
        self.expect("THEOREM")
        name = None
        if self.at("IDENT") and self.peek(1).kind == "==":
            name = self.next().value
            self.next()
        return Theorem(name, self.goal_form(), self.proof(min_level=0))

    def goal_form(self) -> GoalForm:
        items: tuple[AssumeItem, ...] = ()
        if self.at("ASSUME"):
            self.next()
            items = self.comma_list(self.assume_item)
            self.expect("PROVE")
        return GoalForm(items, self.expr())

    def assume_item(self) -> AssumeItem:
        if self.at("NEW"):
            self.next()
            b = self.binder()
            return NewItem(b.name, b.domain)
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
                return By(*self.fact_list(), pos=t.pos)
            case "STEPDOT" if _level(t) > min_level:
                return self.step_sequence()
            case _:
                return Omitted(implicit=True, pos=t.pos)

    def fact_list(self) -> tuple[tuple[Expr, ...], tuple[str, ...]]:
        facts = () if self.at("DEF") else self.comma_list(self.expr)
        defs = ()
        if self.at("DEF"):
            self.next()
            defs = self.comma_list(self.def_name)
        return facts, defs

    def def_name(self) -> str:
        if self.at("IDENT", "STEPREF"):
            return self.next().value
        raise self.fail("name")

    def witness_item(self) -> WitnessItem:
        # a top-level membership names the witness and its set
        e = self.expr()
        if isinstance(e, In):
            return WitnessItem(e.item, e.set)
        return WitnessItem(e)

    def step_sequence(self) -> NonLeaf:
        level = _level(self.peek())
        steps: list[Step] = []
        seen: set[str] = set()
        qed_seen = False
        while self.at("STEPDOT"):
            t = self.peek()
            tok_level = _level(t)
            if tok_level < level:
                break
            if tok_level > level:
                raise LevelError(
                    f"step {t.value} is deeper than its sequence (level {level})", t.pos
                )
            if qed_seen:
                raise LevelError(f"step {t.value} appears after QED", t.pos)
            self.next()
            token = BeginStepToken(level, t.value.partition(">")[2] or None, pos=t.pos)
            if token.label is not None:
                if token.name in seen:
                    raise ParseError(f"duplicate step token {token.name}", token.pos)
                seen.add(token.name)
            body = self.step_body(token)
            qed_seen = isinstance(body, QedStep)
            steps.append(Step(token, body))
        if not steps:
            t = self.peek()
            raise LevelError("empty step sequence", t.pos)
        if not qed_seen:
            t = self.peek()
            raise LevelError(f"step sequence at level {level} has no QED step", t.pos)
        return NonLeaf(tuple(steps))

    def step_body(self, token: BeginStepToken) -> ProofStep:
        t = self.peek()
        match t.kind:
            case "USE" | "HIDE":
                self.next()
                body: ProofStep = UseHideStep(*self.fact_list(), hide=t.kind == "HIDE")
            case "DEFINE":
                self.next()
                name = self.ident()
                params: tuple[str, ...] = ()
                if self.at("("):
                    self.next()
                    params = self.comma_list(self.ident)
                    self.expect(")")
                self.expect("==")
                body = DefineStep(name, params, self.expr())
            case "HAVE":
                self.next()
                body = HaveStep(self.expr())
            case "TAKE":
                self.next()
                body = TakeStep(self.comma_list(self.binder))
            case "WITNESS":
                self.next()
                body = WitnessStep(self.comma_list(self.witness_item))
            case "SUFFICES":
                self.next()
                return SufficesStep(self.goal_form(), self.proof(token.level))
            case "PICK":
                self.next()
                binders = self.comma_list(self.binder)
                self.expect(":")
                return PickStep(binders, self.expr(), self.proof(token.level))
            case "CASE":
                self.next()
                return CaseStep(self.expr(), self.proof(token.level))
            case "QED":
                self.next()
                return QedStep(self.proof(token.level))
            case _:
                return AssertStep(self.goal_form(), self.proof(token.level))
        # a step that takes no subproof
        t = self.peek()
        if t.kind == "STEPDOT" and _level(t) > token.level:
            raise LevelError(
                f"step {token.name} takes no subproof but is followed by {t.value}", t.pos
            )
        return body


def parse_theorem(text: str) -> Theorem:
    p = _Parser(tokenize(text))
    return p.finish(p.theorem())


def parse_expression(text: str) -> Expr:
    p = _Parser(tokenize(text))
    return p.finish(p.expr())
