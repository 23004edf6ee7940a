"""Obligations, contexts, and the operations on them.

An obligation pairs an ordered context of assumptions with a goal expression.
Assumptions are declarations (NEW x), operator definitions (o == body), and
facts; definitions and facts may be hidden.  Hidden assumptions exist
logically but are withheld from the prover: filtration deletes hidden facts
and demotes hidden definitions to declarations before dispatch.

A plain expression used as a fact is stored as the obligation with empty
context, and is rendered as the bare expression.

The leaves of one proof share most of their context, so the work on an
assumption can be kept in a table passed in, done once per distinct object
while the table lives: the twin a visibility change makes (one table per
checked theorem), its expansion (one per file) and its rendering and
embedding (one per report).  A table is keyed on object identities and holds
the objects, so that no identity is reused while it lives.  Filtering and
expansion also keep, in the file's table, their state after the context
prefixes the leaves share (``_prefixed``), so that each leaf walks only the
items it adds to a prefix already walked.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Iterable, Optional, Union

from .syntax import (
    Binder,
    Expr,
    Ident,
    Implies,
    In,
    Node,
    Quant,
    alpha_equal,
    free_identifiers,
    fresh_name,
    pretty,
    subst_many,
    substitute,
)

__all__ = [
    "Lambda", "New", "Def", "Fact", "Obligation", "Context",
    "MetaError", "DuplicateBinder", "DuplicateName", "UnknownOperator",
    "UnknownFact", "ArityMismatch", "NotWellFormed",
    "fact", "unhide", "using_defs", "hiding_defs", "twin", "reflect_binders",
    "filter_obligation", "expand_definition", "expand_all_usable",
    "embed", "check_well_formed", "obligation_free_identifiers",
    "obligation_to_expression",
    "context_binds", "render_obligation", "render_assumption",
    "substitute", "alpha_equal",
]


class MetaError(Exception):
    pass


class DuplicateBinder(MetaError):
    pass


class DuplicateName(MetaError):
    pass


class UnknownOperator(MetaError):
    pass


class UnknownFact(MetaError):
    pass


class ArityMismatch(MetaError):
    pass


class NotWellFormed(MetaError):
    pass


class Lambda(Node):
    """Parameterized definable; parameters are pairwise distinct."""

    __slots__ = ("params", "body", "__dict__")  # __dict__ keeps ``free``

    def _check(self) -> None:
        if not self.params:
            raise ValueError("parameterless definables are stored as obligations")
        if len(set(self.params)) != len(self.params):
            raise DuplicateBinder(f"repeated lambda parameter in {self.params}")

    @cached_property
    def free(self) -> frozenset[str]:
        return free_identifiers(self.body) - set(self.params)

    def apply(self, name: str, args: tuple[Expr, ...]) -> Expr:
        """The body with args for the parameters; name is for the error."""
        if len(args) != len(self.params):
            raise ArityMismatch(
                f"{name} expects {len(self.params)} arguments, got {len(args)}"
            )
        return subst_many(self.body, dict(zip(self.params, args)))


class Assumption(Node):
    __slots__ = ()


class New(Assumption):
    __slots__ = ("name",)


class Def(Assumption):
    __slots__ = ("name", "definable", "hidden")  # definable: Obligation | Lambda
    _defaults = {"hidden": False}


class Fact(Assumption):
    __slots__ = ("obligation", "hidden")
    _defaults = {"hidden": False}


Context = tuple[Assumption, ...]


class Obligation(Node):
    # context: Context, goal: Expr; __dict__ keeps the cached properties
    __slots__ = ("context", "goal", "__dict__")

    @cached_property
    def free(self) -> frozenset[str]:
        """``obligation_free_identifiers``, computed once: expansion asks it
        of every nested obligation, and sibling leaves share most of theirs."""
        return obligation_free_identifiers(self)

    @cached_property
    def expression(self) -> Expr:
        """``obligation_to_expression``, computed once: sibling leaves share
        their facts, and each leaf's sequent reads them, so the caches keyed
        by a hypothesis (``normalize``) find the very same term."""
        return obligation_to_expression(self)

    @cached_property
    def bound_twice(self) -> Optional[str]:
        """The first identifier that ``check_well_formed`` finds bound twice
        within one context, at any nesting depth, or None.  This is all of
        the check that does not depend on the scope; computed once, since
        sibling leaves share most of their nested obligations."""
        bound: set[str] = set()
        for h in self.context:
            match h:
                case New(name):
                    if name in bound:
                        return name
                    bound.add(name)
                case Def(name, definable, _):
                    if name in bound:
                        return name
                    if isinstance(definable, Obligation) and definable.bound_twice:
                        return definable.bound_twice
                    bound.add(name)
                case Fact(obl, _):
                    if obl.bound_twice:
                        return obl.bound_twice
        return None

    @cached_property
    def hides(self) -> bool:
        """Something in the context is hidden, at any nesting depth; computed
        once, since sibling leaves share most of their nested obligations."""
        for h in self.context:
            match h:
                case Fact(obl, hidden):
                    if hidden or obl.hides:
                        return True
                case Def(_, definable, hidden):
                    if hidden or (isinstance(definable, Obligation) and definable.hides):
                        return True
        return False


def fact(body: Union[Expr, "Obligation"], hidden: bool = False) -> Fact:
    """Fact assumption from an expression (nil-context obligation) or obligation."""
    if isinstance(body, Obligation):
        return Fact(body, hidden)
    return Fact(Obligation((), body), hidden)


def context_binds(ctx: Context) -> set[str]:
    return {h.name for h in ctx if isinstance(h, (New, Def))}


# ---------------------------------------------------------------------------
# Visibility


def unhide(ctx: Context, twins: Optional[dict] = None) -> Context:
    """All hidden flags cleared; order and content otherwise unchanged."""
    return _flipped(ctx, lambda h: h.hidden, twins)


def using_defs(ctx: Context, names: Iterable[str], twins: Optional[dict] = None) -> Context:
    """Hidden definitions whose name is listed become usable."""
    names = set(names)
    return _flipped(ctx, lambda h: h.hidden and isinstance(h, Def) and h.name in names, twins)


def hiding_defs(ctx: Context, names: Iterable[str], twins: Optional[dict] = None) -> Context:
    """Usable definitions whose name is listed become hidden."""
    names = set(names)
    return _flipped(ctx, lambda h: not h.hidden and isinstance(h, Def) and h.name in names, twins)


def _flipped(ctx: Context, flip, twins: Optional[dict]) -> Context:
    """ctx with the hidden flag of each definition or fact that flip selects
    turned over; every other item is itself."""
    return tuple(h if isinstance(h, New) or not flip(h) else twin(h, twins) for h in ctx)


def twin(h: Union[Def, Fact], twins: Optional[dict] = None) -> Union[Def, Fact]:
    """h with its hidden flag turned over.  With a table of twins (see
    ``_once``), kept by the checker for one theorem, the same h gives the
    very same twin each time, so the contexts of sibling steps share it."""
    if twins is not None:
        return _once(twin, h, twins)
    if isinstance(h, Def):
        return Def(h.name, h.definable, not h.hidden)
    return Fact(h.obligation, not h.hidden)


def _once(f, x, memo: Optional[dict], *args):
    """f(x, *args), computed once per object x while memo is kept: memo maps
    id(x) to (x, f(x, *args)), and holding x keeps its id from being reused."""
    if memo is None:
        return f(x, *args)
    hit = memo.get(id(x))
    if hit is None:
        hit = memo[id(x)] = (x, f(x, *args))
    return hit[1]


def _prefixed(ctx: Context, table: dict, kind: str, step, state):
    """The items step makes of ctx's, in order, and the state after them:
    step(h, state) gives h's item (None for none) and the state after h,
    from the state the items before h left.

    Of the prefixes walked, each of even length, and ctx itself, keeps its
    state in table under (kind, its length, its last item's identity), with
    the context and the items it was worked out from, which hold those
    objects.  A later context with an equal prefix resumes after it: the
    leaves of a file, whose contexts extend or flip their parents' and
    branch off anywhere in each other's, walk only the items they add and
    at most one more.  Keeping every other state, not every one, keeps the
    table small."""
    m, out, n, made, marks = len(ctx), (), 0, [], []
    while m:
        hit = table.get((kind, m, id(ctx[m - 1])))
        if hit is not None and hit[0][:m] == ctx[:m]:
            _, out, n, state = hit
            break
        m -= 1
    for h in ctx[m:]:
        item, state = step(h, state)
        if item is not None:
            made.append(item)
        marks.append((len(made), state))
    out = out[:n] + tuple(made)
    for p, (k, after) in enumerate(marks, m + 1):
        if p % 2 == 0 or p == len(ctx):
            table[(kind, p, id(ctx[p - 1]))] = (ctx, out, n + k, after)
    return out, state


# ---------------------------------------------------------------------------
# Binder reflection


def reflect_binders(binders: Iterable[Binder]) -> Context:
    """Binders as assumptions: x gives NEW x; x \\in e gives NEW x, x \\in e."""
    out: list[Assumption] = []
    seen: set[str] = set()
    for b in binders:
        if b.name in seen:
            raise DuplicateBinder(f"binder {b.name} repeated")
        seen.add(b.name)
        out.append(New(b.name))
        if b.domain is not None:
            out.append(fact(In(Ident(b.name), b.domain)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Filtration


def filter_obligation(o: Obligation, table: Optional[dict] = None) -> Obligation:
    """Delete hidden facts, demote hidden definitions to declarations,
    recursively at every nesting depth.

    A fact or definition with nothing hidden under it is itself in the
    result, not rebuilt, so the filtered leaves of one proof share the
    assumptions they have in common (and their cached ``free``); so is an
    obligation, unless a table is given.  Whether anything is hidden is
    kept on each obligation (``hides``), so a fact shared by sibling leaves
    is walked once; with the file's table (see ``_prefixed``) a context
    prefix shared by leaves is filtered once."""
    if table is None:
        if not o.hides:
            return o
        table = {}
    return Obligation(_prefixed(o.context, table, "filter", _filtered, None)[0], o.goal)


def _filtered(h: Assumption, state):
    """The step of ``filter_obligation``: h filtered (None for a hidden
    fact); the state is not used."""
    match h:
        case Fact(_, True):
            return None, state
        case Fact(obl, False):
            f = filter_obligation(obl)
            return (h if f is obl else Fact(f, False)), state
        case Def(name, _, True):
            return New(name), state
        case Def(name, definable, False):
            d = definable if isinstance(definable, Lambda) else filter_obligation(definable)
            return (h if d is definable else Def(name, d, False)), state
    return h, state


# ---------------------------------------------------------------------------
# Free identifiers and well-formedness


def obligation_free_identifiers(o: Obligation) -> frozenset[str]:
    free = set(free_identifiers(o.goal))
    for h in reversed(o.context):
        match h:
            case New(name):
                free.discard(name)
            case Def(name, definable, _):
                free.discard(name)
                free |= definable.free
            case Fact(obl, _):
                free |= obl.free
    return frozenset(free)


def check_well_formed(o: Obligation, scope: frozenset[str] = frozenset()) -> None:
    """Raise NotWellFormed unless the obligation is closed relative to scope
    and no identifier is bound twice within any one context.

    A nested obligation is checked for scope as a whole (its ``free`` names
    are in scope), which covers every scope check inside it; what remains
    inside is ``bound_twice``."""
    bound: set[str] = set()
    for h in o.context:
        match h:
            case New(name):
                if name in bound:
                    raise NotWellFormed(f"{name} bound twice")
                bound.add(name)
            case Def(name, definable, _):
                if name in bound:
                    raise NotWellFormed(f"{name} bound twice")
                loose = definable.free - bound - scope
                if loose:
                    raise NotWellFormed(
                        f"definition of {name} mentions unbound {sorted(loose)}"
                    )
                if isinstance(definable, Obligation) and definable.bound_twice:
                    raise NotWellFormed(f"{definable.bound_twice} bound twice")
                bound.add(name)
            case Fact(obl, _):
                loose = obl.free - bound - scope
                if loose:
                    raise NotWellFormed(f"fact mentions unbound {sorted(loose)}")
                if obl.bound_twice:
                    raise NotWellFormed(f"{obl.bound_twice} bound twice")
    loose = free_identifiers(o.goal) - bound - scope
    if loose:
        raise NotWellFormed(f"goal mentions unbound {sorted(loose)}")


# ---------------------------------------------------------------------------
# Definition expansion


def expand_definition(o: Obligation, name: str) -> Obligation:
    """Replace applications of a defined operator in all later assumptions and
    the goal by the definable's body; the definition itself remains.

    Expansion avoids capture: a binder, a LAMBDA parameter or a nested
    declaration or definition that would bind a free name of the definable
    is renamed apart first."""
    idx = next((k for k, h in enumerate(o.context) if isinstance(h, Def) and h.name == name), None)
    if idx is None:
        raise UnknownOperator(f"{name} is not defined in the context")
    definable = o.context[idx].definable  # type: ignore[union-attr]
    rest = _expand_obligation(Obligation(o.context[idx + 1 :], o.goal), name, definable)
    return Obligation(o.context[: idx + 1] + rest.context, rest.goal)


def _expand_assumption(h: Assumption, name: str, d) -> Assumption:
    match h:
        case New():
            return h
        case Def(n2, definable, hidden):
            return Def(n2, _expand_definable(definable, name, d), hidden)
        case Fact(obl, hidden):
            # A fact that is exactly the bare operator citation inlines the
            # defined obligation as the fact itself.
            if (
                isinstance(d, Obligation)
                and not obl.context
                and obl.goal == Ident(name)
            ):
                return Fact(d, hidden)
            return Fact(_expand_obligation(obl, name, d), hidden)
    raise TypeError(type(h).__name__)


def _expand_definable(definable, name: str, d):
    if isinstance(definable, Lambda):
        if name not in definable.free:
            return definable
        # A LAMBDA binds its parameters as \A binds its binders, so the
        # substitution scopes and renames them.
        params = tuple(Binder(p) for p in definable.params)
        q = _expand_expr(Quant("forall", params, definable.body), name, d)
        return Lambda(tuple(b.name for b in q.binders), q.body)  # type: ignore[attr-defined]
    return _expand_obligation(definable, name, d)


def _expand_obligation(o: Obligation, name: str, d) -> Obligation:
    if name not in o.free:
        return o
    out: list[Assumption] = []
    for k, h in enumerate(o.context):
        if isinstance(h, (New, Def)):
            if h.name == name:
                # Shadowed from here on inside this nested context, but a
                # definition's own body still reads the outer name.
                if isinstance(h, Def):
                    h = Def(name, _expand_definable(h.definable, name, d), h.hidden)
                return Obligation((*out, h) + o.context[k + 1 :], o.goal)
            if h.name in d.free:
                rest = Obligation(o.context[k + 1 :], o.goal)
                if name in rest.free:
                    # h would capture a free name of d there: rename it apart.
                    fresh = fresh_name(h.name, d.free | rest.free | context_binds(o.context))
                    rest = _expand_obligation(rest, h.name, Obligation((), Ident(fresh)))
                    renamed = New(fresh) if isinstance(h, New) else Def(fresh, h.definable, h.hidden)
                    out.append(_expand_assumption(renamed, name, d))
                    rest = _expand_obligation(rest, name, d)
                    return Obligation(tuple(out) + rest.context, rest.goal)
        out.append(_expand_assumption(h, name, d))
    return Obligation(tuple(out), _expand_expr(o.goal, name, d))


def _expand_expr(e: Expr, name: str, d) -> Expr:
    if name not in free_identifiers(e):
        return e
    return substitute(e, name, d if isinstance(d, Lambda) else d.expression)


def expand_all_usable(o: Obligation, table: Optional[dict] = None) -> Obligation:
    """Expand every usable definition of a filtered obligation left to
    right, and drop it.

    One walk over the context: each assumption, and then the goal, has the
    usable definitions before it that are free in it expanded in context
    order, each definition already expanded by the ones before it.  This is
    the fold of ``expand_definition`` over the usable definitions, since the
    checker rejects a second declaration of a name in the top-level context
    (``_declare``): no top-level binder can then shadow or capture one.  So
    nothing after a usable definition mentions it once expanded, and each
    one is dropped.  Filtering makes every hidden definition a declaration;
    a hidden definition left in o is a ValueError.

    table, kept across the leaves of one file, holds under "expanded" each
    expanded assumption, keyed on the identities of the assumption and of
    the (expanded) definitions it uses, which are all it depends on, and
    holds those objects so that no identity is reused: leaves get the very
    same expanded objects.  It also keeps the state after the context
    prefixes the leaves share (see ``_prefixed``), so that each is walked
    once."""
    table = {} if table is None else table
    named = table.setdefault("named", set())
    step = partial(_expanded, table.setdefault("expanded", {}), named)
    ctx, defs = _prefixed(o.context, table, "expand", step, None)
    goal = o.goal
    for name, d in zip(*_usable(free_identifiers(goal) & named, defs)):
        goal = _expand_expr(goal, name, d)
    return Obligation(ctx, goal)


def _expanded(expanded: dict, named: set, h: Assumption, defs):
    """The step of ``expand_all_usable``: the state, defs, is the chain of
    usable definitions before h, (name, expanded definable, the chain
    before); named holds the name of every usable definition met, so most
    names are ruled out at once."""
    if isinstance(h, Def) and h.hidden:
        raise ValueError(f"expansion of an unfiltered obligation: {h.name} is hidden")
    if defs is not None and not isinstance(h, New):
        free = h.definable.free if isinstance(h, Def) else h.obligation.free
        names, used = _usable(free & named, defs)
        if names:
            key = (id(h), *names, *map(id, used))
            hit = expanded.get(key)
            if hit is None:
                e = h
                for name, d in zip(names, used):
                    e = _expand_assumption(e, name, d)
                hit = expanded[key] = (e, h, used)
            h = hit[0]
    if not isinstance(h, Def):
        return h, defs
    named.add(h.name)
    return None, (h.name, h.definable, defs)


def _usable(names, defs) -> tuple[tuple, tuple]:
    """The names of names that the chain defs (see ``_expanded``) defines,
    and the last definable of each, in context order."""
    if not names:
        return (), ()
    found: dict = {}
    while names and defs is not None:
        name, d, defs = defs
        if name in names:
            found[name] = d
            names = names - {name}
    return tuple(reversed(found)), tuple(reversed(found.values()))


# ---------------------------------------------------------------------------
# First-order reading of an obligation


def obligation_to_expression(o: Obligation) -> Expr:
    """The universally closed implication an obligation denotes.

    Declarations become universal quantifiers, facts become implication
    hypotheses (visibility ignored), and definitions are expanded away.
    """
    ctx = list(o.context)
    goal = o.goal
    for k, h in enumerate(ctx):
        if isinstance(h, Def):
            rest = expand_definition(Obligation(tuple(ctx[k:]), goal), h.name)
            return obligation_to_expression(
                Obligation(tuple(ctx[:k]) + rest.context[1:], rest.goal)
            )
    out = goal
    for h in reversed(ctx):
        match h:
            case New(name):
                out = Quant("forall", (Binder(name, None),), out)
            case Fact(obl, _):
                out = Implies(obl.expression, out)
    return out


# ---------------------------------------------------------------------------
# Embedding into framework propositions


def embed(o: Obligation, memo: Optional[dict] = None) -> str:
    """Render the obligation as a framework proposition.

    NEW x becomes the meta-binder ``!!x.``, a definition becomes
    ``!!o. (o == body) ==>``, a fact becomes ``(fact) ==>``; hidden and
    usable assumptions are emitted identically and the goal comes last.
    With a memo (see ``_once``) each assumption and nested obligation is
    embedded once while it is kept.
    """
    check_well_formed(o)
    return _embed(o, memo)


def _embed(o: Obligation, memo: Optional[dict]) -> str:
    return "".join(_once(_embed_assumption, h, memo, memo) for h in o.context) + pretty(o.goal)


def _embed_assumption(h: Assumption, memo: Optional[dict]) -> str:
    match h:
        case New(name):
            return f"!!{name}. "
        case Def(name, definable, _):
            return f"!!{name}. ({name} == {_embed_definable(definable, memo)}) ==> "
        case Fact(obl, _):
            return f"({_embed_definable(obl, memo)}) ==> "
    raise TypeError(type(h).__name__)


def _embed_definable(d: Union[Obligation, Lambda], memo: Optional[dict]) -> str:
    if isinstance(d, Lambda):
        return f"\\lambda {' '.join(d.params)}. {pretty(d.body)}"
    return _once(_embed, d, memo, memo)


# ---------------------------------------------------------------------------
# Display


def render_assumption(h: Assumption, memo: Optional[dict] = None) -> str:
    match h:
        case New(name):
            return f"NEW {name}"
        case Def(name, definable, hidden):
            s = f"{name} == {render_definable(definable, memo)}"
        case Fact(obl, hidden):
            s = render_definable(obl, memo)
        case _:
            raise TypeError(type(h).__name__)
    return f"[{s}]" if hidden else s


def render_definable(d: Union[Obligation, Lambda], memo: Optional[dict] = None) -> str:
    if isinstance(d, Lambda):
        return f"LAMBDA {', '.join(d.params)} : {pretty(d.body)}"
    if not d.context:
        return pretty(d.goal)
    return f"({_once(render_obligation, d, memo, memo)})"


def render_obligation(o: Obligation, memo: Optional[dict] = None) -> str:
    """With a memo (see ``_once``) each assumption and nested obligation is
    rendered once while it is kept."""
    if not o.context:
        return pretty(o.goal)
    items = ", ".join(_once(render_assumption, h, memo, memo) for h in o.context)
    return f"{items} |- {pretty(o.goal)}"
