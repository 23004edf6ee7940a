"""Obligations, contexts, and the operations on them.

An obligation pairs an ordered context of assumptions with a goal expression.
Assumptions are declarations (NEW x), operator definitions (o == body), and
facts; definitions and facts may be hidden.  Hidden assumptions exist
logically but are withheld from the prover: filtration deletes hidden facts
and demotes hidden definitions to declarations before dispatch.

A plain expression used as a fact is stored as the obligation with empty
context, and is rendered as the bare expression.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional, Union

from .syntax import (
    Binder,
    Expr,
    Ident,
    Implies,
    In,
    Quant,
    _alpha,
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
    "fact", "unhide", "using_defs", "hiding_defs", "reflect_binders",
    "filter_obligation", "expand_definition", "expand_all_usable",
    "embed", "check_well_formed", "obligation_free_identifiers",
    "alpha_equal_obligation", "obligation_to_expression",
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


@dataclass(frozen=True)
class Lambda:
    """Parameterized definable; parameters are pairwise distinct."""

    params: tuple[str, ...]
    body: Expr

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Assumption:
    pass


@dataclass(frozen=True)
class New(Assumption):
    name: str


@dataclass(frozen=True)
class Def(Assumption):
    name: str
    definable: Union["Obligation", Lambda]
    hidden: bool = False


@dataclass(frozen=True)
class Fact(Assumption):
    obligation: "Obligation"
    hidden: bool = False


Context = tuple[Assumption, ...]


@dataclass(frozen=True)
class Obligation:
    context: Context
    goal: Expr

    @cached_property
    def free(self) -> frozenset[str]:
        """``obligation_free_identifiers``, computed once: expansion asks it
        of every nested obligation, and sibling leaves share most of theirs."""
        return obligation_free_identifiers(self)

    @cached_property
    def rendered(self) -> str:
        """``render_obligation``, kept for a nested obligation: sibling
        leaves share their facts, and each leaf's report renders them."""
        return render_obligation(self)

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
    out: set[str] = set()
    for h in ctx:
        if isinstance(h, (New, Def)):
            out.add(h.name)
    return out


# ---------------------------------------------------------------------------
# Visibility


def unhide(ctx: Context) -> Context:
    """All hidden flags cleared; order and content otherwise unchanged."""
    out: list[Assumption] = []
    for h in ctx:
        match h:
            case Def(name, definable, True):
                out.append(Def(name, definable, False))
            case Fact(obl, True):
                out.append(Fact(obl, False))
            case _:
                out.append(h)
    return tuple(out)


def using_defs(ctx: Context, names: Iterable[str]) -> Context:
    """Hidden definitions whose name is listed become usable."""
    names = set(names)
    return tuple(
        Def(h.name, h.definable, False)
        if isinstance(h, Def) and h.hidden and h.name in names
        else h
        for h in ctx
    )


def hiding_defs(ctx: Context, names: Iterable[str]) -> Context:
    """Usable definitions whose name is listed become hidden."""
    names = set(names)
    return tuple(
        Def(h.name, h.definable, True)
        if isinstance(h, Def) and not h.hidden and h.name in names
        else h
        for h in ctx
    )


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


def filter_obligation(o: Obligation) -> Obligation:
    """Delete hidden facts, demote hidden definitions to declarations,
    recursively at every nesting depth.

    An obligation, fact or definition with nothing hidden under it is
    returned itself, not rebuilt, so the filtered leaves of one proof share
    the assumptions they have in common (and their cached ``free`` and
    ``rendered``).  Whether anything is hidden is kept on each obligation
    (``Obligation.hides``), so a fact shared by sibling leaves is walked
    once."""
    if not o.hides:
        return o
    out: list[Assumption] = []
    for h in o.context:
        match h:
            case Fact(_, True):
                continue
            case Fact(obl, False):
                f = filter_obligation(obl)
                out.append(h if f is obl else Fact(f, False))
            case Def(name, _, True):
                out.append(New(name))
            case Def(name, definable, False):
                d = _filter_definable(definable)
                out.append(h if d is definable else Def(name, d, False))
            case _:
                out.append(h)
    return Obligation(tuple(out), o.goal)


def _filter_definable(d: Union[Obligation, Lambda]) -> Union[Obligation, Lambda]:
    return d if isinstance(d, Lambda) else filter_obligation(d)


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
        inner = scope | bound
        match h:
            case New(name):
                if name in bound:
                    raise NotWellFormed(f"{name} bound twice")
                bound.add(name)
            case Def(name, definable, _):
                if name in bound:
                    raise NotWellFormed(f"{name} bound twice")
                loose = definable.free - inner
                if loose:
                    raise NotWellFormed(
                        f"definition of {name} mentions unbound {sorted(loose)}"
                    )
                if isinstance(definable, Obligation) and definable.bound_twice:
                    raise NotWellFormed(f"{definable.bound_twice} bound twice")
                bound.add(name)
            case Fact(obl, _):
                loose = obl.free - inner
                if loose:
                    raise NotWellFormed(f"fact mentions unbound {sorted(loose)}")
                if obl.bound_twice:
                    raise NotWellFormed(f"{obl.bound_twice} bound twice")
    loose = free_identifiers(o.goal) - (scope | bound)
    if loose:
        raise NotWellFormed(f"goal mentions unbound {sorted(loose)}")


# ---------------------------------------------------------------------------
# Alpha equivalence of obligations


def alpha_equal_obligation(a: Obligation, b: Obligation) -> bool:
    return _alpha_obl(a, b, {}, {}, 0)


def _alpha_obl(a, b, env_a, env_b, depth) -> bool:
    if len(a.context) != len(b.context):
        return False
    env_a, env_b = dict(env_a), dict(env_b)
    for ha, hb in zip(a.context, b.context):
        if type(ha) is not type(hb):
            return False
        match ha:
            case New(name):
                env_a[name] = depth
                env_b[hb.name] = depth
                depth += 1
            case Def(name, definable, hidden):
                if hidden != hb.hidden:
                    return False
                if not _alpha_definable(definable, hb.definable, env_a, env_b, depth):
                    return False
                env_a[name] = depth
                env_b[hb.name] = depth
                depth += 1
            case Fact(obl, hidden):
                if hidden != hb.hidden:
                    return False
                if not _alpha_obl(obl, hb.obligation, env_a, env_b, depth):
                    return False
    return _alpha(a.goal, b.goal, env_a, env_b, depth)


def _alpha_definable(da, db, env_a, env_b, depth) -> bool:
    if isinstance(da, Lambda) != isinstance(db, Lambda):
        return False
    if isinstance(da, Lambda):
        if len(da.params) != len(db.params):
            return False
        ea, eb = dict(env_a), dict(env_b)
        for pa, pb in zip(da.params, db.params):
            ea[pa] = depth
            eb[pb] = depth
            depth += 1
        return _alpha(da.body, db.body, ea, eb, depth)
    return _alpha_obl(da, db, env_a, env_b, depth)


# ---------------------------------------------------------------------------
# Definition expansion


def expand_definition(o: Obligation, name: str) -> Obligation:
    """Replace applications of a defined operator in all later assumptions and
    the goal by the definable's body; the definition itself remains.

    Expansion avoids capture: a binder, a LAMBDA parameter or a nested
    declaration or definition that would bind a free name of the definable
    is renamed apart first."""
    idx = None
    for k, h in enumerate(o.context):
        if isinstance(h, Def) and h.name == name:
            idx = k
            break
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
                # Shadowed from here on inside this nested context.
                return Obligation(tuple(out) + o.context[k:], o.goal)
            if h.name in d.free:
                rest = Obligation(o.context[k + 1 :], o.goal)
                if name in rest.free:
                    # h would capture a free name of d there: rename it apart.
                    fresh = fresh_name(h.name, d.free | rest.free | context_binds(o.context))
                    rest = _expand_obligation(rest, h.name, Obligation((), Ident(fresh)))
                    out.append(_expand_assumption(replace(h, name=fresh), name, d))
                    rest = _expand_obligation(rest, name, d)
                    return Obligation(tuple(out) + rest.context, rest.goal)
        out.append(_expand_assumption(h, name, d))
    return Obligation(tuple(out), _expand_expr(o.goal, name, d))


def _expand_expr(e: Expr, name: str, d) -> Expr:
    if name not in free_identifiers(e):
        return e
    return substitute(e, name, d if isinstance(d, Lambda) else obligation_to_expression(d))


def expand_all_usable(o: Obligation, drop_unused: bool = True) -> Obligation:
    """Expand every usable definition left to right, then optionally drop
    definitions no later assumption or the goal still mentions.

    One walk over the context: each assumption, and then the goal, has the
    usable definitions before it that are free in it expanded in context
    order, each definition already expanded by the ones before it.  This is
    the fold of ``expand_definition`` over the usable definitions, provided
    no name is bound twice in the top-level context (as ``check_well_formed``
    requires): then no top-level binder can shadow or capture one."""
    defs: dict[str, Union[Obligation, Lambda]] = {}
    ctx: list[Assumption] = []
    for h in o.context:
        if defs and not isinstance(h, New):
            free = h.definable.free if isinstance(h, Def) else h.obligation.free
            for name in [n for n in defs if n in free]:
                h = _expand_assumption(h, name, defs[name])
        ctx.append(h)
        if isinstance(h, Def) and not h.hidden:
            defs[h.name] = h.definable
    goal = o.goal
    free = free_identifiers(goal)
    for name in [n for n in defs if n in free]:
        goal = _expand_expr(goal, name, defs[name])
    o = Obligation(tuple(ctx), goal)
    if not drop_unused:
        return o
    kept: list[Assumption] = []
    needed = set(free_identifiers(o.goal))
    for h in reversed(o.context):
        if isinstance(h, Def) and h.name not in needed:
            continue
        kept.append(h)
        match h:
            case New(name):
                needed.discard(name)
            case Def(name, definable, _):
                needed.discard(name)
                needed |= definable.free
            case Fact(obl, _):
                needed |= obl.free
    return Obligation(tuple(reversed(kept)), o.goal)


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
                out = Quant("forall", (Binder(name),), out)
            case Fact(obl, _):
                out = Implies(obligation_to_expression(obl), out)
    return out


# ---------------------------------------------------------------------------
# Embedding into framework propositions


def embed(o: Obligation) -> str:
    """Render the obligation as a framework proposition.

    NEW x becomes the meta-binder ``!!x.``, a definition becomes
    ``!!o. (o == body) ==>``, a fact becomes ``(fact) ==>``; hidden and
    usable assumptions are emitted identically and the goal comes last.
    """
    check_well_formed(o)
    return _embed(o)


def _embed(o: Obligation) -> str:
    parts: list[str] = []
    for h in o.context:
        match h:
            case New(name):
                parts.append(f"!!{name}. ")
            case Def(name, definable, _):
                parts.append(f"!!{name}. ({name} == {_embed_definable(definable)}) ==> ")
            case Fact(obl, _):
                parts.append(f"({_embed(obl)}) ==> ")
    return "".join(parts) + pretty(o.goal)


def _embed_definable(d: Union[Obligation, Lambda]) -> str:
    if isinstance(d, Lambda):
        return f"\\lambda {' '.join(d.params)}. {pretty(d.body)}"
    return _embed(d)


# ---------------------------------------------------------------------------
# Display


def render_assumption(h: Assumption) -> str:
    match h:
        case New(name):
            return f"NEW {name}"
        case Def(name, definable, hidden):
            body = render_definable(definable)
            s = f"{name} == {body}"
            return f"[{s}]" if hidden else s
        case Fact(obl, hidden):
            s = pretty(obl.goal) if not obl.context else f"({obl.rendered})"
            return f"[{s}]" if hidden else s
    raise TypeError(type(h).__name__)


def render_definable(d: Union[Obligation, Lambda]) -> str:
    if isinstance(d, Lambda):
        return f"LAMBDA {', '.join(d.params)} : {pretty(d.body)}"
    if not d.context:
        return pretty(d.goal)
    return f"({d.rendered})"


def render_obligation(o: Obligation) -> str:
    if not o.context:
        return pretty(o.goal)
    items = ", ".join(render_assumption(h) for h in o.context)
    return f"{items} |- {pretty(o.goal)}"
