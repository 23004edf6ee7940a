"""Expression ASTs for the first-order set-theory term/formula language.

Nodes are immutable and hashable; source positions are carried on every node
but excluded from equality so that structurally identical expressions compare
equal regardless of where they were parsed.  Each node (and each ``Binder``)
computes its structural hash on first use and caches it on the instance, so
hashing a term costs O(1) per node once; ``pretty`` caches a term's
rendering on its root node the same way, so a term that sibling leaves
share is rendered once.  String hashes are salted per process, so the
cached hash is left out of a node's pickled (and copied) state and
recomputed wherever the node is loaded; the cached rendering is left out
with it.

Scoping: quantifiers, set comprehensions and image sets bind their binder
names in their body only; binder domains are scoped to the enclosing context
(a domain must not reference a sibling binder of the same construct).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Optional


@dataclass(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Expr:
    pos: Optional[Pos] = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class OpApp(Expr):
    """Operator application with explicit arguments, ``P(a, b)``."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class FnApp(Expr):
    """Function application ``f[x]``."""

    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class Binder:
    """One quantifier binder: a bare name or ``name \\in domain``."""

    name: str
    domain: Optional[Expr] = None


@dataclass(frozen=True)
class Quant(Expr):
    kind: str  # "forall" | "exists"
    binders: tuple[Binder, ...]
    body: Expr

    def __post_init__(self) -> None:
        if not self.binders:
            raise ValueError("quantifier requires at least one binder")


@dataclass(frozen=True)
class Neg(Expr):
    item: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Implies(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Iff(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Eq(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ne(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class In(Expr):
    item: Expr
    set: Expr


@dataclass(frozen=True)
class NotIn(Expr):
    item: Expr
    set: Expr


@dataclass(frozen=True)
class Subseteq(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PowerSet(Expr):
    """``SUBSET e``: the set of subsets of e."""

    set: Expr


@dataclass(frozen=True)
class SetComp(Expr):
    """Bounded comprehension ``{x \\in S : P}``; binds var in pred."""

    var: str
    domain: Expr
    pred: Expr


@dataclass(frozen=True)
class SetImage(Expr):
    """Image set ``{e : x \\in S}``; binds var in expr."""

    expr: Expr
    var: str
    domain: Expr


@dataclass(frozen=True)
class FuncSpace(Expr):
    """``[S -> T]``: the set of functions from S to T."""

    dom: Expr
    cod: Expr


@dataclass(frozen=True)
class Bool(Expr):
    value: bool


def _cache_hash(cls: type) -> None:
    """Wrap cls's dataclass-generated structural hash so it is computed once
    per instance, and keep the cached hash and rendering out of the pickled
    state."""
    structural = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_pretty", None)
        return state

    cls.__hash__ = __hash__  # type: ignore[method-assign]
    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]


for _cls in (Binder, *Expr.__subclasses__()):
    _cache_hash(_cls)


TRUE = Bool(True)
FALSE = Bool(False)

_BINARY = (And, Or, Implies, Iff, Eq, Ne, Subseteq)


def children(e: Expr) -> Iterator[Expr]:
    """All direct subexpressions, binder domains included."""
    match e:
        case Ident() | Bool():
            return
        case OpApp(_, args):
            yield from args
        case FnApp(fn, arg):
            yield fn
            yield arg
        case Quant(_, binders, body):
            for b in binders:
                if b.domain is not None:
                    yield b.domain
            yield body
        case Neg(item):
            yield item
        case In(item, s) | NotIn(item, s):
            yield item
            yield s
        case PowerSet(s):
            yield s
        case SetComp(_, domain, pred):
            yield domain
            yield pred
        case SetImage(expr, _, domain):
            yield expr
            yield domain
        case FuncSpace(dom, cod):
            yield dom
            yield cod
        case _ if isinstance(e, _BINARY):
            yield e.left  # type: ignore[attr-defined]
            yield e.right  # type: ignore[attr-defined]
        case _:
            raise TypeError(f"unknown expression node {type(e).__name__}")


def map_children(e: Expr, f) -> Expr:
    """The same node with f applied to every direct subexpression."""
    match e:
        case Ident() | Bool():
            return e
        case OpApp(n, args):
            return OpApp(n, tuple(f(a) for a in args))
        case FnApp(fn, arg):
            return FnApp(f(fn), f(arg))
        case Quant(kind, binders, body):
            return Quant(
                kind,
                tuple(
                    Binder(b.name, f(b.domain) if b.domain is not None else None)
                    for b in binders
                ),
                f(body),
            )
        case Neg(item):
            return Neg(f(item))
        case In(i, st):
            return In(f(i), f(st))
        case NotIn(i, st):
            return NotIn(f(i), f(st))
        case PowerSet(st):
            return PowerSet(f(st))
        case SetComp(var, domain, pred):
            return SetComp(var, f(domain), f(pred))
        case SetImage(expr, var, domain):
            return SetImage(f(expr), var, f(domain))
        case FuncSpace(dom, cod):
            return FuncSpace(f(dom), f(cod))
        case _:
            return type(e)(f(e.left), f(e.right))  # type: ignore[attr-defined]


@lru_cache(maxsize=262144)
def free_identifiers(e: Expr) -> frozenset[str]:
    """Names with a free occurrence in e (operator names included)."""
    match e:
        case Ident(name):
            return frozenset({name})
        case OpApp(name, args):
            out = {name}
            for a in args:
                out |= free_identifiers(a)
            return frozenset(out)
        case Quant(_, binders, body):
            out = set(free_identifiers(body))
            for b in binders:
                out.discard(b.name)
            for b in binders:
                if b.domain is not None:
                    out |= free_identifiers(b.domain)
            return frozenset(out)
        case SetComp(var, domain, pred):
            return (free_identifiers(pred) - {var}) | free_identifiers(domain)
        case SetImage(expr, var, domain):
            return (free_identifiers(expr) - {var}) | free_identifiers(domain)
        case _:
            out: set[str] = set()
            for c in children(e):
                out |= free_identifiers(c)
            return frozenset(out)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Smallest numeric-suffix variant of base not in avoid."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute(e: Expr, name: str, value: Expr) -> Expr:
    """Capture-avoiding substitution e[name := value]."""
    return subst_many(e, {name: value})


def subst_many(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution.  A value may also be an
    operator with ``apply(name, args)`` and a ``free`` name set, such as a
    LAMBDA: each application of the name becomes ``apply`` of the
    substituted arguments, and binders are renamed apart from ``free``."""
    live = {k: v for k, v in mapping.items() if k in free_identifiers(e)}
    if not live:
        return e
    return _subst(e, live)


def _free(value) -> frozenset[str]:
    return free_identifiers(value) if isinstance(value, Expr) else value.free


def _subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    match e:
        case Ident(name):
            repl = mapping.get(name, e)
            return repl if isinstance(repl, Expr) else repl.apply(name, ())
        case OpApp(name, args):
            new_args = tuple(_subst(a, mapping) for a in args)
            if name not in mapping:
                return OpApp(name, new_args)
            repl = mapping[name]
            if isinstance(repl, Ident):
                return OpApp(repl.name, new_args)
            if isinstance(repl, Expr):
                raise ValueError(f"cannot substitute applied operator {name} by a non-name")
            return repl.apply(name, new_args)
        case Quant(kind, binders, body):
            new_binders, body_map = _rebind(
                [(b.name, b.domain) for b in binders], body, mapping
            )
            return Quant(
                kind,
                tuple(Binder(n, d) for n, d in new_binders),
                _subst(body, body_map) if body_map else body,
            )
        case SetComp(var, domain, pred):
            new_dom = _subst(domain, mapping)
            (new_b,), body_map = _rebind([(var, None)], pred, mapping)
            return SetComp(new_b[0], new_dom, _subst(pred, body_map) if body_map else pred)
        case SetImage(expr, var, domain):
            new_dom = _subst(domain, mapping)
            (new_b,), body_map = _rebind([(var, None)], expr, mapping)
            return SetImage(_subst(expr, body_map) if body_map else expr, new_b[0], new_dom)
        case _:
            return map_children(e, lambda c: _subst(c, mapping))


def _rebind(
    binders: list[tuple[str, Optional[Expr]]],
    body: Expr,
    mapping: dict[str, Expr],
) -> tuple[list[tuple[str, Optional[Expr]]], dict[str, Expr]]:
    """Substitute into binder domains, rename binders that would capture.

    Returns the rewritten binder list and the mapping to apply to the body
    (shadowed entries dropped, renamed binders added).
    """
    body_map = dict(mapping)
    body_free = free_identifiers(body)
    new_binders: list[tuple[str, Optional[Expr]]] = []
    for name, domain in binders:
        new_dom = _subst(domain, mapping) if domain is not None else None
        body_map.pop(name, None)
        captures = any(
            k in body_free and name in _free(v) for k, v in body_map.items()
        )
        if captures:
            avoid = set(body_free) | set(body_map) | {n for n, _ in new_binders}
            for k, v in body_map.items():
                if k in body_free:
                    avoid |= _free(v)
            renamed = fresh_name(name, avoid)
            body_map[name] = Ident(renamed)
            new_binders.append((renamed, new_dom))
        else:
            new_binders.append((name, new_dom))
    return new_binders, body_map


def alpha_equal(a: Expr, b: Expr) -> bool:
    """Structural equality modulo bound-name renaming."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Expr, b: Expr, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case Ident(name):
            da, db = env_a.get(name), env_b.get(b.name)  # type: ignore[attr-defined]
            if (da is None) != (db is None):
                return False
            return da == db if da is not None else name == b.name  # type: ignore[attr-defined]
        case Bool(value):
            return value == b.value  # type: ignore[attr-defined]
        case OpApp(name, args):
            # Applied operator names are context constants; compare by the
            # same rule as identifiers.
            da, db = env_a.get(name), env_b.get(b.name)  # type: ignore[attr-defined]
            if (da is None) != (db is None):
                return False
            if (da == db if da is not None else name == b.name) is False:  # type: ignore[attr-defined]
                return False
            if len(args) != len(b.args):  # type: ignore[attr-defined]
                return False
            return all(
                _alpha(x, y, env_a, env_b, depth) for x, y in zip(args, b.args)  # type: ignore[attr-defined]
            )
        case Quant(kind, binders, body):
            if kind != b.kind or len(binders) != len(b.binders):  # type: ignore[attr-defined]
                return False
            ea, eb = dict(env_a), dict(env_b)
            d = depth
            for ba, bb in zip(binders, b.binders):  # type: ignore[attr-defined]
                if (ba.domain is None) != (bb.domain is None):
                    return False
                if ba.domain is not None and not _alpha(ba.domain, bb.domain, env_a, env_b, depth):
                    return False
                ea[ba.name] = d
                eb[bb.name] = d
                d += 1
            return _alpha(body, b.body, ea, eb, d)  # type: ignore[attr-defined]
        case SetComp(var, domain, pred):
            if not _alpha(domain, b.domain, env_a, env_b, depth):  # type: ignore[attr-defined]
                return False
            ea = dict(env_a)
            eb = dict(env_b)
            ea[var] = depth
            eb[b.var] = depth  # type: ignore[attr-defined]
            return _alpha(pred, b.pred, ea, eb, depth + 1)  # type: ignore[attr-defined]
        case SetImage(expr, var, domain):
            if not _alpha(domain, b.domain, env_a, env_b, depth):  # type: ignore[attr-defined]
                return False
            ea = dict(env_a)
            eb = dict(env_b)
            ea[var] = depth
            eb[b.var] = depth  # type: ignore[attr-defined]
            return _alpha(expr, b.expr, ea, eb, depth + 1)  # type: ignore[attr-defined]
        case _:
            ca = list(children(a))
            cb = list(children(b))
            if len(ca) != len(cb):
                return False
            return all(_alpha(x, y, env_a, env_b, depth) for x, y in zip(ca, cb))


# Pretty printing. Levels: 0 quantifier body, 1 <=>, 2 =>, 3 \/, 4 /\,
# 5 ~, 6 relations, 7 SUBSET, 8 atoms. A child is parenthesized when its own
# level is below the level its position requires.

_REL = {Eq: "=", Ne: "#", Subseteq: "\\subseteq"}


def _level(e: Expr) -> int:
    match e:
        case Quant():
            return 0
        case Iff():
            return 1
        case Implies():
            return 2
        case Or():
            return 3
        case And():
            return 4
        case Neg():
            return 5
        case Eq() | Ne() | In() | NotIn() | Subseteq():
            return 6
        case PowerSet():
            return 7
        case _:
            return 8


def _at(e: Expr, minlevel: int) -> str:
    s = _render(e)
    return f"({s})" if _level(e) < minlevel else s


def pretty(e: Expr) -> str:
    """Canonical single-line rendering; parses back to an equal expression.

    Computed once per term and cached on the term's root node.  Subterms are
    rendered in place, not cached: the terms asked for again are whole
    assumptions and goals, and a string kept on every node of every term
    rendered (trace lines included) costs more memory than it saves time."""
    try:
        return e._pretty  # type: ignore[attr-defined]
    except AttributeError:
        out = _render(e)
        object.__setattr__(e, "_pretty", out)
        return out


def _render(e: Expr) -> str:
    match e:
        case Ident(name):
            return name
        case Bool(value):
            return "TRUE" if value else "FALSE"
        case OpApp(name, args):
            return f"{name}({', '.join(_render(a) for a in args)})"
        case FnApp(fn, arg):
            return f"{_at(fn, 8)}[{_render(arg)}]"
        case Quant(kind, binders, body):
            q = "\\A" if kind == "forall" else "\\E"
            bs = ", ".join(
                b.name if b.domain is None else f"{b.name} \\in {_at(b.domain, 6)}"
                for b in binders
            )
            return f"{q} {bs} : {_render(body)}"
        case Neg(item):
            return f"~{_at(item, 7)}"
        case And(l, r):
            return f"{_at(l, 4)} /\\ {_at(r, 5)}"
        case Or(l, r):
            return f"{_at(l, 3)} \\/ {_at(r, 4)}"
        case Implies(l, r):
            return f"{_at(l, 3)} => {_at(r, 2)}"
        case Iff(l, r):
            return f"{_at(l, 2)} <=> {_at(r, 2)}"
        case In(item, s):
            return f"{_at(item, 7)} \\in {_at(s, 7)}"
        case NotIn(item, s):
            return f"{_at(item, 7)} \\notin {_at(s, 7)}"
        case PowerSet(s):
            return f"SUBSET {_at(s, 7)}"
        case SetComp(var, domain, pred):
            return f"{{{var} \\in {_at(domain, 6)} : {_render(pred)}}}"
        case SetImage(expr, var, domain):
            return f"{{{_render(expr)} : {var} \\in {_at(domain, 6)}}}"
        case FuncSpace(dom, cod):
            return f"[{_render(dom)} -> {_render(cod)}]"
        case _ if isinstance(e, _BINARY):
            op = _REL[type(e)]
            return f"{_at(e.left, 7)} {op} {_at(e.right, 7)}"  # type: ignore[attr-defined]
        case _:
            raise TypeError(f"unknown expression node {type(e).__name__}")
