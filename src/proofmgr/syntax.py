"""Expression ASTs for the first-order set-theory term/formula language.

Every record of proofmgr, expression nodes included, is a ``Node``: a
slotted, immutable record whose fields are listed once, in ``__slots__``.
Equality compares the fields of two nodes of the same class.  An expression
node is exactly its fields: only proof leaves and step tokens (``parser``)
carry a source position, which is no field, so it is neither compared nor
shown.  Each node computes its structural hash on first use and
caches it in a slot, so hashing a term costs O(1) per node once; ``pretty``
caches a term's rendering on its root node the same way, so a term that
sibling leaves share is rendered once; a term's free names are kept in a
slot on each of its nodes.  String hashes are salted per process, so a node
pickles (and copies) as its class and fields only: the cached hash,
rendering and free names are recomputed wherever the node is loaded.

Scoping (``scoped``): quantifiers, set comprehensions and image sets bind
their names in their body only; binder domains are scoped to the enclosing
context, so a domain that names a sibling binder reads that name from the
context (``split_binder`` keeps this when a quantifier is taken apart).

Node shape: each expression class names the fields that hold its
subterms once, in ``_subterms`` (by default every field; ``Ident`` and
``Bool`` have none, and a comprehension's bound variable is none), and
``children`` and ``map_children`` read them from there; only an operator
application's arguments and a quantifier's binder domains, which sit
inside tuples, are read case by case.  ``children`` and ``scoped`` give a
node's subterms, and ``_label`` what else two nodes of one type must share
to be equal.  Unification and congruence (``tableau``) and the prover's
memo key (``prover._fingerprint``) compare nodes by these alone.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Mapping, Optional

_NO = object()  # a field not given positionally


class Node:
    """An immutable record.  A subclass lists its fields in ``__slots__``
    (after its bases'; a slot named with a leading underscore is no field),
    and may give ``_defaults`` (field -> value) and a ``_check`` run on each
    new instance.  From these come, once per class, ``_fields``,
    ``__match_args__``, a constructor specialised to the number of fields,
    and ``__eq__`` and a cached ``__hash__`` over the fields."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _check = None

    def __init_subclass__(cls) -> None:
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare __slots__")
        fields = cls._fields + tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._fields = cls.__match_args__ = fields
        astuple = _getter(fields)
        # one field is compared as a scalar, and hashed as a 1-tuple
        key = attrgetter(fields[0]) if len(fields) == 1 else astuple
        set_hash = Node._hash.__set__  # type: ignore[attr-defined]

        def __eq__(self, other):
            if type(other) is cls:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            try:
                return self._hash
            except AttributeError:
                h = hash(astuple(self))
                set_hash(self, h)
                return h

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        init = _init([getattr(cls, f).__set__ for f in fields])
        if cls._check is not None:
            plain = init

            def init(self, *args, **kw):
                plain(self, *args, **kw)
                self._check()

        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # the state, a positioned node's position, goes to __setstate__
        return type(self), tuple(getattr(self, f) for f in self._fields), getattr(self, "_pos", None)


def _getter(names: tuple[str, ...]):
    """A function from a node to the tuple of its named fields' values."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names) if names else lambda node: ()


def _init(setters):
    """A constructor writing the fields through their slots' setters; a call
    that does not give every field positionally goes through ``_bind``."""
    if len(setters) == 1:
        (s0,) = setters

        def __init__(self, a=_NO, **kw):
            if kw or a is _NO:
                (a,) = _bind(self, (a,), kw)
            s0(self, a)

    elif len(setters) == 2:
        s0, s1 = setters

        def __init__(self, a=_NO, b=_NO, **kw):
            if kw or b is _NO:
                a, b = _bind(self, (a, b), kw)
            s0(self, a)
            s1(self, b)

    elif len(setters) == 3:
        s0, s1, s2 = setters

        def __init__(self, a=_NO, b=_NO, c=_NO, **kw):
            if kw or c is _NO:
                a, b, c = _bind(self, (a, b, c), kw)
            s0(self, a)
            s1(self, b)
            s2(self, c)

    else:

        def __init__(self, *args, **kw):
            for setter, value in zip(setters, _bind(self, args, kw)):
                setter(self, value)

    return __init__


def _bind(node: Node, args: tuple, kw: dict) -> list:
    """All field values of a constructor call from its positional arguments
    (a template passes ``_NO`` for those not given), its keywords and the
    class's defaults; a positioned node also takes ``pos``."""
    cls = type(node)
    fields = cls._fields
    if "pos" in kw and isinstance(node, Positioned):
        _set_pos(node, kw.pop("pos"))
        if not kw and len(args) == len(fields) and (not args or args[-1] is not _NO):
            return args
    name = cls.__name__
    while args and args[-1] is _NO:
        args = args[:-1]
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    values = list(args)
    for f in fields[len(args):]:
        if f in kw:
            values.append(kw.pop(f))
        elif f in cls._defaults:
            values.append(cls._defaults[f])
        else:
            raise TypeError(f"{name}() missing required argument {f!r}")
    if kw:
        raise TypeError(f"{name}() got an unexpected or repeated argument {next(iter(kw))!r}")
    return values


class Positioned(Node):
    """A node that may carry a source position (keyword ``pos``): no field,
    so neither compared nor shown."""

    __slots__ = ("_pos",)
    pos = property(lambda self: getattr(self, "_pos", None))

    def __setstate__(self, pos: Pos) -> None:
        _set_pos(self, pos)


_set_pos = Positioned._pos.__set__  # type: ignore[attr-defined]


class Pos(Node):
    __slots__ = ("line", "col")

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Expr(Node):
    """A term.  A subclass names the fields that hold its subterms in
    ``_subterms``, once: every field unless it says otherwise."""

    __slots__ = ("_pretty", "_names")
    _subterms: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_subterms" not in cls.__dict__:
            cls._subterms = cls._fields
        cls._children = staticmethod(_getter(cls._subterms))


_set_pretty = Expr._pretty.__set__  # type: ignore[attr-defined]
_set_names = Expr._names.__set__  # type: ignore[attr-defined]


class Ident(Expr):
    __slots__ = ("name",)
    _subterms = ()


class OpApp(Expr):
    """Operator application with explicit arguments, ``P(a, b)``."""

    __slots__ = ("name", "args")
    _subterms = ("args",)  # a tuple of terms


class FnApp(Expr):
    """Function application ``f[x]``."""

    __slots__ = ("fn", "arg")


class Binder(Node):
    """One quantifier binder: a bare name or ``name \\in domain``."""

    __slots__ = ("name", "domain")
    _defaults = {"domain": None}


class Quant(Expr):
    __slots__ = ("kind", "binders", "body")  # kind: "forall" | "exists"
    _subterms = ("binders", "body")  # the binders' domains and the body

    def _check(self) -> None:
        if not self.binders:
            raise ValueError("quantifier requires at least one binder")


class Neg(Expr):
    __slots__ = ("item",)


class And(Expr):
    __slots__ = ("left", "right")


class Or(Expr):
    __slots__ = ("left", "right")


class Implies(Expr):
    __slots__ = ("left", "right")


class Iff(Expr):
    __slots__ = ("left", "right")


class Eq(Expr):
    __slots__ = ("left", "right")


class Ne(Expr):
    __slots__ = ("left", "right")


class In(Expr):
    __slots__ = ("item", "set")


class NotIn(Expr):
    __slots__ = ("item", "set")


class Subseteq(Expr):
    __slots__ = ("left", "right")


class PowerSet(Expr):
    """``SUBSET e``: the set of subsets of e."""

    __slots__ = ("set",)


class SetComp(Expr):
    """Bounded comprehension ``{x \\in S : P}``; binds var in pred."""

    __slots__ = ("var", "domain", "pred")
    _subterms = ("domain", "pred")


class SetImage(Expr):
    """Image set ``{e : x \\in S}``; binds var in expr."""

    __slots__ = ("expr", "var", "domain")
    _subterms = ("expr", "domain")


class FuncSpace(Expr):
    """``[S -> T]``: the set of functions from S to T."""

    __slots__ = ("dom", "cod")


class Bool(Expr):
    __slots__ = ("value",)
    _subterms = ()


TRUE = Bool(True)
FALSE = Bool(False)


def children(e: Expr) -> tuple[Expr, ...]:
    """All direct subexpressions, binder domains included, in field order."""
    match e:
        case OpApp(_, args):
            return args
        case Quant(_, binders, body):
            return (*(b.domain for b in binders if b.domain is not None), body)
    return type(e)._children(e)


def map_children(e: Expr, f) -> Expr:
    """The same node with f applied to every direct subexpression."""
    match e:
        case OpApp(n, args):
            return OpApp(n, tuple(map(f, args)))
        case Quant(kind, binders, body):
            return Quant(
                kind,
                tuple(
                    Binder(b.name, f(b.domain) if b.domain is not None else None)
                    for b in binders
                ),
                f(body),
            )
    cls = type(e)
    if not cls._subterms:
        return e
    new = map(f, cls._children(e))
    if len(cls._subterms) == len(cls._fields):
        return cls(*new)
    return cls(*[next(new) if n in cls._subterms else getattr(e, n) for n in cls._fields])


def free_identifiers(e: Expr) -> frozenset[str]:
    """Names with a free occurrence in e (operator names included), kept on
    e once computed, so they live exactly as long as the term."""
    try:
        return e._names  # type: ignore[attr-defined]
    except AttributeError:
        _set_names(e, _free_names(e))
        return e._names  # type: ignore[attr-defined]


def _free_names(e: Expr) -> frozenset[str]:
    out = {e.name} if type(e) in (Ident, OpApp) else set()
    for c, bound in scoped(e):
        out |= free_identifiers(c).difference(bound)
    return frozenset(out)


def scoped(e: Expr) -> Iterator[tuple[Expr, tuple[str, ...]]]:
    """Each direct subexpression of e, in the order of ``children``, with
    the names e binds in it: a quantifier's binders in its body, a
    comprehension's variable in its predicate or image; none in a domain."""
    match e:
        case Quant(_, binders, body):
            for b in binders:
                if b.domain is not None:
                    yield b.domain, ()
            yield body, tuple(b.name for b in binders)
        case SetComp(var, domain, pred):
            yield domain, ()
            yield pred, (var,)
        case SetImage(expr, var, domain):
            yield expr, (var,)
            yield domain, ()
        case _:
            for c in children(e):
                yield c, ()


def _label(e: Expr):
    """What two nodes of one type must share, besides their subterms, to be
    equal: a name or value and an operator's arity, a quantifier's kind and
    each binder's name and whether it has a domain, or a comprehension's
    variable.  Equal labels make the subterms pair up."""
    match e:
        case Ident(n) | Bool(n):
            return n
        case OpApp(n, args):
            return n, len(args)
        case Quant(kind, binders):
            return kind, tuple((b.name, b.domain is None) for b in binders)
        case SetComp(var) | SetImage(_, var):
            return var
    return None


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


def split_binder(q: Quant) -> tuple[Binder, Expr]:
    """q's first binder and what it binds: q's body, or q over its other
    binders.  Every domain of q is scoped outside q, so when one (the
    binder's own included) mentions the first binder's name, that binder is
    renamed apart in the body; the domains can then go under it."""
    first, rest = q.binders[0], q.binders[1:]
    body = q.body
    if any(b.domain is not None and first.name in free_identifiers(b.domain) for b in q.binders):
        names = {b.name for b in rest}
        fresh = fresh_name(first.name, free_identifiers(q) | names)
        if first.name not in names:
            body = substitute(body, first.name, Ident(fresh))
        first = Binder(fresh, first.domain)
    return first, (Quant(q.kind, rest, body) if rest else body)


def nest_binders(q: Quant) -> tuple[list[Binder], Expr]:
    """q's binders split off one after another by ``split_binder``, and the
    innermost body: the nesting of one-binder quantifiers that means q."""
    binders: list[Binder] = []
    rest: Expr = q
    for _ in q.binders:
        b, rest = split_binder(rest)  # type: ignore[arg-type]
        binders.append(b)
    return binders, rest


def alpha_equal(a: Expr, b: Expr) -> bool:
    """Structural equality modulo bound-name renaming."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Expr, b: Expr, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case Ident(name) | OpApp(name):
            # Applied operator names are context constants; compare by the
            # same rule as identifiers.
            da, db = env_a.get(name), env_b.get(b.name)  # type: ignore[attr-defined]
            if da != db or da is None and name != b.name:  # type: ignore[attr-defined]
                return False
            if type(a) is OpApp and len(a.args) != len(b.args):  # type: ignore[attr-defined]
                return False
        case Bool(value):
            return value == b.value  # type: ignore[attr-defined]
        case Quant(kind, binders):
            shape_b = [y.domain is None for y in b.binders]  # type: ignore[attr-defined]
            if kind != b.kind or [x.domain is None for x in binders] != shape_b:  # type: ignore
                return False
    for (x, bound_a), (y, bound_b) in zip(scoped(a), scoped(b)):
        ea, eb, d = env_a, env_b, depth
        if bound_a:  # a bound name stands for the depth of its binder
            d += len(bound_a)
            ea = env_a | dict(zip(bound_a, range(depth, d)))
            eb = env_b | dict(zip(bound_b, range(depth, d)))
        if not _alpha(x, y, ea, eb, d):
            return False
    return True


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
        _set_pretty(e, out)
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
        case _ if type(e) in _REL:
            op = _REL[type(e)]
            return f"{_at(e.left, 7)} {op} {_at(e.right, 7)}"  # type: ignore[attr-defined]
        case _:
            raise TypeError(f"unknown expression node {type(e).__name__}")
