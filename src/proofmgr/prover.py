"""Iterative-deepening free-variable tableau for classical first-order logic
with equality, extended with set-construct expansion rules.

The prover refutes hypotheses plus the negated goal.  Rules:

* alpha/beta propositional expansion (iff unfolds to the two implications
  when positive and branches on the two conjunctions when negated);
* gamma: universals instantiated with fresh metavariables (``?k``), reused up
  to the budget's per-formula cap per branch;
* delta: existentials instantiated with skolem terms (``!skk``) over the
  metavariables of the formula;
* closure by unification of complementary formulas, of a negated reflexive
  equality, or by ground congruence closure over the branch's equalities;
* set rules: membership in a bounded comprehension, an image set, a powerset
  or a function space unfolds per construct; the subset relation unfolds to
  its bounded-universal definition; extensionality fires once per branch on a
  negated equality whose side is a set-shaped term; a bounded rewrite step
  re-exposes a set shape hidden behind a branch equality.

Bounded quantifiers and the negative relation forms are normalized away on
entry (``\\A x \\in S : e`` to ``\\A x : x \\in S => e``, dually for ``\\E``;
``#`` and ``\\notin`` to negations).

Traces are line-oriented and replayable: one rule application per line, as
tab-separated fields ``rule``, ``principal index``, then the introduced
``index:formula`` entries (a gamma or delta line carries the introduced name
before the formula).  A ``close`` line names the complementary pair and the
unifier bindings.  Search and replay share one implementation of every rule
(``_Tableau``): replay re-runs it on each line's principal formula and
accepts the line only when it introduces the same formulas or closes with the
same bindings; it also requires every skolem name to be fresh.  Replay keeps
a stack of open branches: expansions extend the current branch; ``beta``
continues on its second introduced formula and pushes a branch for the first
(the second part of a branching rule usually constrains the metavariables its
side condition needs); ``close*`` pops.

Closure tries only the pairs that may close, in the order of all pairs.
Each entry keeps, from when it is added, the head of its formula and of the
atom under its negation (``_keys``); a pair is a candidate when one
member's atom and the other formula have the same head, or one of them is
headed by a metavariable, or, with a congruence over the branch, is ground
and in its pool, since only congruence makes different heads equal.  A trace
line keeps the formulas it introduces as resolved when its rule fired, and
its text is rendered once, for a search that succeeds.

``prove`` memoises the search per process on its exact input, the
normalised initial entries and the budget, so each distinct obligation is
searched once and an equal one gets the stored outcome.  A timeout is never
stored.  The CLI empties the memo at the start of each run.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from . import syntax as s
from .meta import Def, Fact, New, Obligation, obligation_to_expression
from .syntax import Binder, Expr, Ident, Neg, OpApp, Quant, free_identifiers, map_children, pretty


@dataclass(frozen=True)
class Budget:
    max_depth: int = 12
    timeout_ms: int = 5000
    gamma_reuse: int = 4

    def __post_init__(self) -> None:
        if self.max_depth <= 0 or self.timeout_ms <= 0 or self.gamma_reuse <= 0:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True)
class Sequent:
    constants: tuple[str, ...]
    hypotheses: tuple[Expr, ...]
    goal: Expr


@dataclass(frozen=True)
class Stats:
    iterations: int = 0
    expansions: int = 0
    closures: int = 0


@dataclass(frozen=True)
class Proved:
    trace: str


@dataclass(frozen=True)
class Unknown:
    reason: str
    stats: Stats = field(default_factory=Stats)


@dataclass(frozen=True)
class Malformed:
    reason: str


ProverOutcome = Union[Proved, Unknown, Malformed]


def sequent_from_obligation(o: Obligation) -> Sequent:
    """Prover normal form of a filtered, definition-expanded obligation."""
    constants: list[str] = []
    hyps: list[Expr] = []
    for h in o.context:
        match h:
            case New(name):
                constants.append(name)
            case Fact(obl, hidden):
                if hidden:
                    raise ValueError("sequent built from unfiltered obligation")
                hyps.append(obligation_to_expression(obl))
            case Def():
                raise ValueError("sequent built from unexpanded obligation")
    return Sequent(tuple(constants), tuple(hyps), o.goal)


# ---------------------------------------------------------------------------
# Normalization

_SET_SHAPES = (s.SetComp, s.SetImage, s.PowerSet, s.FuncSpace)


@functools.lru_cache(maxsize=4096)
def normalize(e: Expr) -> Expr:
    """Rewrite bounded quantifiers and negative relation forms into the core
    fragment the tableau rules operate on.

    Memoised by structure, so the search, its replay and sibling leaves get
    the very same normal form of an equal hypothesis, and the caches keyed
    by it (``free_identifiers``) hit by identity.  A subterm already in
    normal form is returned itself, so the memo holds few nodes of its own."""
    match e:
        case s.Ne(l, r):
            return Neg(s.Eq(normalize(l), normalize(r)))
        case s.NotIn(i, st):
            return Neg(s.In(normalize(i), normalize(st)))
        case Quant(kind, binders, body):
            out = normalize(body)
            for b in reversed(binders):
                dom = normalize(b.domain) if b.domain is not None else None
                if dom is None:
                    out = Quant(kind, (Binder(b.name),), out)
                elif kind == "forall":
                    out = Quant(kind, (Binder(b.name),), s.Implies(s.In(Ident(b.name), dom), out))
                else:
                    out = Quant(kind, (Binder(b.name),), s.And(s.In(Ident(b.name), dom), out))
        case _:
            out = map_children(e, normalize)
    return e if out == e else out


def _is_meta(e: Expr) -> bool:
    return isinstance(e, Ident) and e.name.startswith("?")


def _ground(e: Expr) -> bool:
    """No metavariable occurs in e (e already resolved)."""
    return not any(n.startswith("?") for n in free_identifiers(e))


def _reserved_names(sequent: Sequent) -> list[str]:
    """Names in the sequent spelled like a metavariable or a skolem term."""
    names = set(sequent.constants)
    for e in (*sequent.hypotheses, sequent.goal):
        names |= free_identifiers(e)
    return sorted(n for n in names if n.startswith("?") or n.startswith("!"))


# ---------------------------------------------------------------------------
# Substitution over metavariables


class _Subst:
    def __init__(self) -> None:
        self.map: dict[str, Expr] = {}
        self.trail: list[str] = []
        # bumped by every change to map; never repeats, so a form resolved
        # at one version is current exactly while the version is unchanged
        self.version = 0

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        if len(self.trail) > mark:
            self.version += 1
        while len(self.trail) > mark:
            del self.map[self.trail.pop()]

    def bind(self, name: str, value: Expr) -> None:
        self.map[name] = value
        self.trail.append(name)
        self.version += 1

    def resolve(self, e: Expr) -> Expr:
        """e with every bound metavariable replaced by its resolved value.

        Returns e itself when no bound metavariable occurs free in it, and
        rebuilds only the subterms in which one does, so unchanged subterms
        stay shared with e."""
        if not self.map or self.map.keys().isdisjoint(free_identifiers(e)):
            return e
        if isinstance(e, Ident):
            return self.resolve(self.map[e.name])
        return map_children(e, self.resolve)

    def bindings(self, mark: int) -> str:
        """The trace text of the bindings made since mark."""
        return "; ".join(
            f"{k} := {pretty(self.resolve(self.map[k]))}" for k in sorted(self.trail[mark:])
        )

    def occurs(self, name: str, e: Expr) -> bool:
        e = self.resolve(e)
        return name in free_identifiers(e)

    def unify(self, a: Expr, b: Expr, cc: "_Congruence | None" = None) -> bool:
        """Extend the substitution to make a and b equal; trail-undoable.

        With a congruence, a mismatch between a ground subterm and another
        term is retried once through the ground term's congruence class."""
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return True
        if _is_meta(a):
            if self.occurs(a.name, b):
                return False
            self.bind(a.name, b)
            return True
        if _is_meta(b):
            return self.unify(b, a, cc)
        if type(a) is type(b):
            mark = self.mark()
            if self._unify_same(a, b, cc):
                return True
            self.undo(mark)
        return self._unify_via_congruence(a, b, cc)

    def _unify_same(self, a: Expr, b: Expr, cc) -> bool:
        match a:
            case Ident(n):
                return n == b.name  # type: ignore[attr-defined]
            case s.Bool(v):
                return v == b.value  # type: ignore[attr-defined]
            case OpApp(n, args):
                if n != b.name or len(args) != len(b.args):  # type: ignore[attr-defined]
                    return False
                return all(self.unify(x, y, cc) for x, y in zip(args, b.args))  # type: ignore[attr-defined]
            case Quant(kind, binders, body):
                if kind != b.kind or len(binders) != len(b.binders):  # type: ignore[attr-defined]
                    return False
                for ba, bb in zip(binders, b.binders):  # type: ignore[attr-defined]
                    if ba.name != bb.name or (ba.domain is None) != (bb.domain is None):
                        return False
                    if ba.domain is not None and not self.unify(ba.domain, bb.domain, cc):
                        return False
                return self.unify(body, b.body, cc)  # type: ignore[attr-defined]
            case s.SetComp(var, domain, pred):
                return (
                    var == b.var  # type: ignore[attr-defined]
                    and self.unify(domain, b.domain, cc)  # type: ignore[attr-defined]
                    and self.unify(pred, b.pred, cc)  # type: ignore[attr-defined]
                )
            case s.SetImage(expr, var, domain):
                return (
                    var == b.var  # type: ignore[attr-defined]
                    and self.unify(expr, b.expr, cc)  # type: ignore[attr-defined]
                    and self.unify(domain, b.domain, cc)  # type: ignore[attr-defined]
                )
            case _:
                ka = list(s.children(a))
                kb = list(s.children(b))
                if len(ka) != len(kb):
                    return False
                return all(self.unify(x, y, cc) for x, y in zip(ka, kb))

    def _unify_via_congruence(self, a: Expr, b: Expr, cc) -> bool:
        if cc is None:
            return False
        ga, gb = _ground(a), _ground(b)
        if ga and gb:
            return cc.equal(a, b)
        # one hop: retry the non-ground side against the ground side's class
        for g, other, g_ground in ((a, b, ga), (b, a, gb)):
            if not g_ground:
                continue
            for t in cc.pool:
                if t == g or not cc.equal(g, t):
                    continue
                mark = self.mark()
                if self.unify(t, other):
                    return True
                self.undo(mark)
        return False


# ---------------------------------------------------------------------------
# Ground congruence closure


def _pool_terms(e: Expr, pool: dict[Expr, None]) -> None:
    pool.setdefault(e)
    match e:
        case Quant() | s.SetComp() | s.SetImage():
            return  # binder nodes are opaque leaves for congruence
        case _:
            for c in s.children(e):
                _pool_terms(c, pool)


class _Congruence:
    """The congruence closure of a branch's ground equalities.  The pool
    holds the equalities' terms and their subterms, in first-seen order, and
    is fixed once built: a term outside it is in a class of its own, so a
    query does not depend on the queries made before it."""

    def __init__(self, equalities: list[tuple[Expr, Expr]]):
        self.pool: dict[Expr, None] = {}
        for a, b in equalities:
            _pool_terms(a, self.pool)
            _pool_terms(b, self.pool)
        self.parent: dict[Expr, Expr] = {}
        for a, b in equalities:
            self._union(a, b)
        self._congruence_fixpoint()

    def _find(self, t: Expr) -> Expr:
        p = self.parent.get(t, t)
        if p == t:
            return t
        root = self._find(p)
        self.parent[t] = root
        return root

    def _union(self, a: Expr, b: Expr) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def _congruence_fixpoint(self) -> None:
        terms = list(self.pool)
        changed = True
        while changed:
            changed = False
            for i, a in enumerate(terms):
                for b in terms[i + 1 :]:
                    if self._find(a) == self._find(b):
                        continue
                    if self._congruent(a, b):
                        self._union(a, b)
                        changed = True

    def _congruent(self, a: Expr, b: Expr) -> bool:
        if type(a) is not type(b):
            return False
        match a:
            case OpApp(n, args):
                return (
                    n == b.name  # type: ignore[attr-defined]
                    and len(args) == len(b.args)  # type: ignore[attr-defined]
                    and all(self.equal(x, y) for x, y in zip(args, b.args))  # type: ignore[attr-defined]
                )
            case s.FnApp(fn, arg):
                return self.equal(fn, b.fn) and self.equal(arg, b.arg)  # type: ignore[attr-defined]
            case s.PowerSet(st):
                return self.equal(st, b.set)  # type: ignore[attr-defined]
            case s.FuncSpace(dom, cod):
                return self.equal(dom, b.dom) and self.equal(cod, b.cod)  # type: ignore[attr-defined]
            case _:
                return False

    def equal(self, a: Expr, b: Expr) -> bool:
        if a == b:
            return True
        if self._find(a) == self._find(b):
            return True
        return self._congruent(a, b)

    def equal_atom(self, a: Expr, b: Expr) -> bool:
        """Atom congruence: same predicate shape with congruent arguments."""
        if type(a) is not type(b):
            return False
        match a:
            case s.In(i, st):
                return self.equal(i, b.item) and self.equal(st, b.set)  # type: ignore[attr-defined]
            case s.Eq(l, r):
                return self.equal(l, b.left) and self.equal(r, b.right)  # type: ignore[attr-defined]
            case _:
                return self.equal(a, b)


# ---------------------------------------------------------------------------
# Rule justification (applied by the search, re-run by replay)

_ATOMS = (s.In, s.Eq, OpApp, Ident, s.FnApp, s.Bool, s.Subseteq)


def _fresh_bound(base: str, *exprs: Expr) -> str:
    avoid: set[str] = set()
    for e in exprs:
        avoid |= free_identifiers(e)
    return s.fresh_name(base, avoid)


def _expansion(e: Expr) -> Optional[tuple[str, str, object]]:
    """Classify a formula: (rule, kind, payload) where kind is one of
    alpha / beta / gamma / delta, or None for literals."""
    match e:
        case s.And(a, b):
            return ("alpha", "alpha", [a, b])
        case Neg(s.Or(a, b)):
            return ("alpha", "alpha", [Neg(a), Neg(b)])
        case Neg(s.Implies(a, b)):
            return ("alpha", "alpha", [a, Neg(b)])
        case Neg(Neg(a)):
            return ("alpha", "alpha", [a])
        case s.Iff(a, b):
            return ("alpha", "alpha", [s.Implies(a, b), s.Implies(b, a)])
        case s.Or(a, b):
            return ("beta", "beta", [a, b])
        case Neg(s.And(a, b)):
            return ("beta", "beta", [Neg(a), Neg(b)])
        case s.Implies(a, b):
            return ("beta", "beta", [Neg(a), b])
        case Neg(s.Iff(a, b)):
            return ("beta", "beta", [s.And(a, Neg(b)), s.And(Neg(a), b)])
        case Quant("forall", (Binder(x, None),), body):
            return ("gamma", "gamma", (x, body, False))
        case Neg(Quant("exists", (Binder(x, None),), body)):
            return ("gamma", "gamma", (x, body, True))
        case Quant("exists", (Binder(x, None),), body):
            return ("delta", "delta", (x, body, False))
        case Neg(Quant("forall", (Binder(x, None),), body)):
            return ("delta", "delta", (x, body, True))
        case s.In(a, s.SetComp(v, dom, pred)):
            return ("subset-of", "alpha", [s.In(a, dom), s.substitute(pred, v, a)])
        case Neg(s.In(a, s.SetComp(v, dom, pred))):
            return (
                "subset-of-neg",
                "beta",
                [Neg(s.In(a, dom)), Neg(s.substitute(pred, v, a))],
            )
        case s.In(a, s.SetImage(expr, v, dom)):
            y = _fresh_bound(v, a, expr, dom)
            inst = s.substitute(expr, v, Ident(y))
            return (
                "set-of-all",
                "alpha",
                [Quant("exists", (Binder(y),), s.And(s.In(Ident(y), dom), s.Eq(a, inst)))],
            )
        case Neg(s.In(a, s.SetImage(expr, v, dom))):
            y = _fresh_bound(v, a, expr, dom)
            inst = s.substitute(expr, v, Ident(y))
            return (
                "set-of-all-neg",
                "alpha",
                [
                    Quant(
                        "forall",
                        (Binder(y),),
                        Neg(s.And(s.In(Ident(y), dom), s.Eq(a, inst))),
                    )
                ],
            )
        case s.In(a, s.PowerSet(st)):
            return ("power-set", "alpha", [s.Subseteq(a, st)])
        case Neg(s.In(a, s.PowerSet(st))):
            return ("power-set-neg", "alpha", [Neg(s.Subseteq(a, st))])
        case s.Subseteq(a, b):
            z = _fresh_bound("z", a, b)
            return (
                "subseteq",
                "alpha",
                [
                    Quant(
                        "forall",
                        (Binder(z),),
                        s.Implies(s.In(Ident(z), a), s.In(Ident(z), b)),
                    )
                ],
            )
        case Neg(s.Subseteq(a, b)):
            z = _fresh_bound("z", a, b)
            return (
                "subseteq-neg",
                "alpha",
                [
                    Neg(
                        Quant(
                            "forall",
                            (Binder(z),),
                            s.Implies(s.In(Ident(z), a), s.In(Ident(z), b)),
                        )
                    )
                ],
            )
        case s.In(f, s.FuncSpace(dom, cod)):
            z = _fresh_bound("z", f, dom, cod)
            return (
                "func-space",
                "alpha",
                [
                    Quant(
                        "forall",
                        (Binder(z),),
                        s.Implies(s.In(Ident(z), dom), s.In(s.FnApp(f, Ident(z)), cod)),
                    )
                ],
            )
        case Neg(s.Eq(a, b)) if isinstance(a, _SET_SHAPES) or isinstance(b, _SET_SHAPES):
            z = _fresh_bound("z", a, b)
            return (
                "extensionality",
                "alpha",
                [
                    Neg(
                        Quant(
                            "forall",
                            (Binder(z),),
                            s.Iff(s.In(Ident(z), a), s.In(Ident(z), b)),
                        )
                    )
                ],
            )
        case _:
            return None


def _complements(e: Expr, other: Optional[Expr] = None) -> list[tuple[Expr, Expr]]:
    """The term pairs whose unification closes a branch: the two sides of a
    negated equality e, or, for formulas e and other, a negated formula's
    atom and the other formula, in both orders."""
    if other is None:
        if isinstance(e, Neg) and isinstance(e.item, s.Eq):
            return [(e.item.left, e.item.right)]
        return []
    return [(a.item, b) for a, b in ((e, other), (other, e)) if isinstance(a, Neg)]


# The head of a metavariable: it unifies with a formula of any head.
_ANY = "?"


def _head(e: Expr):
    """What top-level unification without congruence needs equal in two
    terms: a constant's or an operator's name, else the node type."""
    if isinstance(e, Ident):
        return _ANY if e.name.startswith("?") else e.name
    if isinstance(e, OpApp):
        return e.name
    return type(e)


def _keys(e: Expr) -> tuple:
    """(head of e, head of the atom under e's negation or None).  A
    substitution replaces only metavariables, so neither changes unless it
    is _ANY; a bare metavariable may come to stand for a negation."""
    head = _head(e)
    if head == _ANY:
        return _ANY, _ANY
    return head, _head(e.item) if isinstance(e, Neg) else None


def _initial(sequent: Sequent) -> tuple[Expr, ...]:
    """The tableau's initial entries: the normalised hypotheses, then the
    negated normalised goal.  The search reads nothing else of a sequent."""
    return (*map(normalize, sequent.hypotheses), Neg(normalize(sequent.goal)))


# An expansion not yet classified
_UNSET = object()


def _new_view(e: Expr) -> list:
    """The view of an entry when it is added: kept for good when no
    metavariable occurs in it, else made at the first read (version -1)."""
    return [None, e, True, _UNSET] if _ground(e) else [-1, e, False, _UNSET]


class _Tableau:
    """The entries of one tableau under a substitution, and the justification
    of every rule over them.  The search chooses which rule to apply where;
    replay re-runs the same justification for each trace line.

    Per entry id it keeps the entry's closure keys (``_keys``) and its view
    under the substitution (``_view``); both are set when the entry is added
    and dropped with it."""

    def __init__(self, initial: tuple[Expr, ...]):
        self.initial = initial
        self.initial_keys = [_keys(e) for e in initial]
        self.initial_views = [_new_view(e) for e in initial]
        self.restart()

    def restart(self) -> None:
        self.entries: list[Expr] = list(self.initial)
        self.keys: list[tuple] = list(self.initial_keys)
        self.views: list[list] = list(self.initial_views)
        self.subst = _Subst()

    def _add(self, e: Expr) -> int:
        self.entries.append(e)
        self.keys.append(_keys(e))
        self.views.append(_new_view(e))
        return len(self.entries) - 1

    def _view(self, i: int) -> list:
        """[version, resolved form, ground, expansion] of entry i under the
        current substitution.  It is memoised with the substitution's version
        and made again when a bind or an effective undo changes the version;
        an entry added without metavariables has version None and one view
        for good.  The expansion is classified on first use."""
        view = self.views[i]
        if view[0] is not None and view[0] != self.subst.version:
            e = self.subst.resolve(self.entries[i])
            view = self.views[i] = [self.subst.version, e, _ground(e), _UNSET]
        return view

    def _resolved(self, i: int) -> Expr:
        """Entry i under the current substitution."""
        return self._view(i)[1]

    def _expansion_of(self, i: int):
        view = self._view(i)
        if view[3] is _UNSET:
            view[3] = _expansion(view[1])
        return view[3]

    def _text(self, e: Expr) -> str:
        return pretty(self.subst.resolve(e))

    def _congruence(self, items: list[int]) -> Optional[_Congruence]:
        eqs: list[tuple[Expr, Expr]] = []
        for i in items:
            _, e, ground, _ = self._view(i)
            if ground and isinstance(e, s.Eq):
                eqs.append((e.left, e.right))
        if not eqs:
            return None
        return _Congruence(eqs)

    def _closings(self, pairs: list[tuple[Expr, Expr]], cc: Optional[_Congruence]):
        """Unify each pair in turn and yield the trace text of the bindings
        made; they are undone when the caller asks for the next pair and
        stay made if it stops."""
        for a, b in pairs:
            mark = self.subst.mark()
            if self.subst.unify(a, b, cc):
                yield self.subst.bindings(mark)
            self.subst.undo(mark)

    def _instance(self, exp: tuple, name: str) -> Expr:
        """The gamma instance of a quantifier at the metavariable name, or its
        delta instance at the skolem term over the body's metavariables."""
        _, kind, (x, body, negate) = exp
        term: Expr = Ident(name)
        if kind == "delta":
            resolved_body = self.subst.resolve(body)
            mvs = sorted(n for n in free_identifiers(resolved_body) if n.startswith("?"))
            if mvs:
                term = OpApp(name, tuple(Ident(m) for m in mvs))
        inst = s.substitute(body, x, term)
        return Neg(inst) if negate else inst

    def _find_rewrite(self, items: list[int], principals) -> Optional[tuple[int, Expr]]:
        """One bounded rewrite: re-expose a set shape hidden behind the
        equalities among items in the first membership literal of principals
        whose set is congruent to it."""
        cc = self._congruence(items)
        if cc is None:
            return None
        shaped = [t for t in cc.pool if isinstance(t, _SET_SHAPES)]
        if not shaped:
            return None
        present = {self._resolved(i) for i in items}
        for i in principals:
            _, e, ground, _ = self._view(i)
            inner = e.item if isinstance(e, Neg) else e
            if not isinstance(inner, s.In) or isinstance(inner.set, _SET_SHAPES):
                continue
            if not ground:
                continue
            for t in shaped:
                if cc.equal(inner.set, t):
                    new_atom = s.In(inner.item, t)
                    out: Expr = Neg(new_atom) if isinstance(e, Neg) else new_atom
                    if out in present:
                        continue
                    return i, out
        return None


# ---------------------------------------------------------------------------
# Search


class _Timeout(Exception):
    """The deadline passed; ``_search`` re-raises it carrying the Stats."""


class _Branch:
    __slots__ = ("items", "expanded", "gamma_uses", "depth", "checked", "version")

    def __init__(self, items, expanded, gamma_uses, depth, checked=0, version=0):
        self.items: list[int] = items
        self.expanded: set[tuple[int, str]] = expanded  # (formula, rule) one-shots
        self.gamma_uses: dict[int, int] = gamma_uses
        self.depth: int = depth
        self.checked: int = checked  # prefix of items already pairwise-checked
        self.version: int = version  # substitution trail length at creation

    def extend(self, new_ids, consumed, depth_cost, version, gamma_of=None):
        items = list(self.items)
        items.extend(new_ids)
        gamma_uses = dict(self.gamma_uses)
        if gamma_of is not None:
            gamma_uses[gamma_of] = gamma_uses.get(gamma_of, 0) + 1
        expanded = set(self.expanded)
        if consumed is not None:
            expanded.add(consumed)
        return _Branch(
            items, expanded, gamma_uses, self.depth - depth_cost,
            checked=len(self.items), version=version,
        )


_THEORY_RULES = ("func-space", "extensionality")


class _Search(_Tableau):
    def __init__(self, initial: tuple[Expr, ...], budget: Budget, deadline: float):
        super().__init__(initial)
        self.budget = budget
        self.deadline = deadline
        self.trace: list[str] = []
        self.counter = 0
        self.cut = False
        self.expansions = 0
        self.closures = 0

    def run(self, depth: int) -> bool:
        self.restart()
        self.trace = []
        self.counter = 0
        self.cut = False
        branch = _Branch(list(range(len(self.entries))), set(), {}, depth)
        return self._prove(branch, [])

    def _check_time(self) -> None:
        if time.monotonic() > self.deadline:
            raise _Timeout()

    def _emit(self, head: str, intro: tuple = ()) -> int:
        """Add a trace line: its head fields, and the introduced entries as
        (id, formula resolved now).  The text is rendered only for a proof
        (``_render``): most lines are taken back when their branch fails."""
        self.trace.append((head, intro))
        return len(self.trace)

    def _untrace(self, mark: int) -> None:
        del self.trace[mark - 1 :]

    def _pop(self, k: int) -> None:
        n = len(self.entries) - k
        del self.entries[n:], self.keys[n:], self.views[n:]

    def _prove(self, cur: _Branch, rest: list[_Branch]) -> bool:
        self._check_time()
        closed = self._try_closures(cur, rest)
        if closed is not None:
            return closed
        if cur.depth <= 0:
            self.cut = True
            return False
        return self._try_expansions(cur, rest)

    def _continue(self, rest: list[_Branch]) -> bool:
        if not rest:
            return True
        return self._prove(rest[0], rest[1:])

    def _try_closures(self, cur: _Branch, rest: list[_Branch]) -> Optional[bool]:
        """None: no closure worked.  True/False: a closure without new
        bindings was found and committed to; result is the continuation's."""
        items = cur.items
        start = 0 if len(self.subst.trail) != cur.version else cur.checked
        if start and any(
            ground and isinstance(e, s.Eq) for _, e, ground, _ in map(self._view, items[start:])
        ):
            # a new ground equality can make old pairs congruent
            start = 0
        news = items[start:]
        # single-formula closures (commit: no bindings involved)
        for i in news:
            e = self._resolved(i)
            if e == s.FALSE or e == Neg(s.TRUE):
                self._emit(f"close-false\t{i}")
                self.closures += 1
                return self._continue(rest)
            if isinstance(e, Neg) and isinstance(e.item, s.Eq) and e.item.left == e.item.right:
                self._emit(f"close-eq\t{i}\t")
                self.closures += 1
                return self._continue(rest)
        cc = self._congruence(items)
        # the pairs with a new member that may close, in pair order
        pairs = self._candidates(items, start, cc)
        # no-binding complementary pairs: commit
        for i, j in pairs:
            ei, ej = self._resolved(i), self._resolved(j)
            for a, b in ((ei, ej), (ej, ei)):
                if isinstance(a, Neg) and a.item == b:
                    self._emit(f"close\t{i}\t{j}\t")
                    self.closures += 1
                    return self._continue(rest)
        # congruence closures (no bindings: commit)
        if cc is not None:
            for i in news:
                _, e, ground, _ = self._view(i)
                if (
                    ground
                    and isinstance(e, Neg)
                    and isinstance(e.item, s.Eq)
                    and cc.equal(e.item.left, e.item.right)
                ):
                    self._emit(f"close-eq\t{i}\t")
                    self.closures += 1
                    return self._continue(rest)
            for i, j in pairs:
                _, ei, gi, _ = self._view(i)
                _, ej, gj, _ = self._view(j)
                if not (gi and gj):
                    continue
                for a, b, x, y in ((ei, ej, i, j), (ej, ei, j, i)):
                    if (
                        isinstance(a, Neg)
                        and isinstance(a.item, _ATOMS)
                        and isinstance(b, _ATOMS)
                        and cc.equal_atom(a.item, b)
                    ):
                        self._emit(f"close\t{x}\t{y}\t")
                        self.closures += 1
                        return self._continue(rest)
        # binding closures: backtrackable choice points (congruence-assisted)
        for i in news:
            found = _complements(self._resolved(i))
            if found and self._close_binding(rest, cc, found, f"close-eq\t{i}"):
                return True
        for i, j in pairs:
            ei, ej = self._resolved(i), self._resolved(j)
            found = [(a, b) for a, b in _complements(ei, ej) if a != b]
            if found and self._close_binding(rest, cc, found, f"close\t{i}\t{j}"):
                return True
        return None

    def _candidates(self, items: list[int], start: int, cc) -> list[tuple[int, int]]:
        """The pairs (i, j) of items, j at position start or later, that a
        closure may close, in pair order: by the position of i, then of j.

        Without congruence a pair closes only by unifying the atom under one
        member's negation with the other member, so their heads (``_keys``)
        must be equal or one of them _ANY.  Through cc, terms of different
        heads unify only when one of them is ground and in cc's pool, so
        such a formula or atom counts as _ANY."""
        by_head: dict = {}  # head -> positions so far of the formulas with it
        by_atom: dict = {}  # head -> positions so far of the negated atoms with it
        negated: list[int] = []  # positions so far of the negations
        found: list[tuple[int, int]] = []
        for q, j in enumerate(items):
            head, atom = self.keys[j]
            if cc is not None:
                _, e, ground, _ = self._view(j)
                if ground:
                    if e in cc.pool:
                        head = _ANY
                    if isinstance(e, Neg) and e.item in cc.pool:
                        atom = _ANY
            if q >= start:
                if atom == _ANY:
                    found.extend((p, q) for p in range(q))
                else:
                    ps = set(by_atom.get(_ANY, ()))
                    ps.update(negated if head == _ANY else by_atom.get(head, ()))
                    if atom is not None:
                        ps.update(by_head.get(atom, ()), by_head.get(_ANY, ()))
                    found.extend((p, q) for p in ps)
            by_head.setdefault(head, []).append(q)
            if atom is not None:
                by_atom.setdefault(atom, []).append(q)
                negated.append(q)
        found.sort()
        return [(items[p], items[q]) for p, q in found]

    def _close_binding(self, rest, cc, pairs, head: str) -> bool:
        for binds in self._closings(pairs, cc):
            mark_t = self._emit(f"{head}\t{binds}")
            self.closures += 1
            if self._continue(rest):
                return True
            self._untrace(mark_t)
        return False

    def _try_expansions(self, cur: _Branch, rest: list[_Branch]) -> bool:
        # invertible non-branching rules first, then delta, rewrite, beta;
        # gamma instantiations and the heuristic theory rules are tried as
        # backtrackable alternatives at the end
        for want in ("alpha", "delta"):
            for i in cur.items:
                exp = self._expansion_of(i)
                if exp is None or exp[1] != want or exp[0] in _THEORY_RULES:
                    continue
                if (i, exp[0]) in cur.expanded:
                    continue
                return self._apply(cur, rest, i, exp)
        rewrite = self._find_rewrite(
            cur.items, (i for i in cur.items if (i, "rewrite") not in cur.expanded)
        )
        if rewrite is not None:
            i, formula = rewrite
            return self._apply_parts(cur, rest, i, "rewrite", [formula])
        for i in cur.items:
            exp = self._expansion_of(i)
            if exp is None or exp[1] != "beta":
                continue
            if (i, exp[0]) in cur.expanded:
                continue
            return self._apply(cur, rest, i, exp)
        alternatives: list[tuple[int, int, tuple]] = []
        for i in cur.items:
            exp = self._expansion_of(i)
            if exp is None:
                continue
            if exp[1] == "gamma":
                uses = cur.gamma_uses.get(i, 0)
                if uses < self.budget.gamma_reuse:
                    alternatives.append((uses, i, exp))
            elif exp[0] in _THEORY_RULES and (i, exp[0]) not in cur.expanded:
                alternatives.append((self.budget.gamma_reuse, i, exp))
        alternatives.sort(key=lambda g: (g[0], g[1]))
        for _, i, exp in alternatives:
            if self._apply(cur, rest, i, exp):
                return True
        return False

    def _apply(self, cur, rest, i, exp) -> bool:
        rule, kind, payload = exp
        if kind in ("alpha", "beta"):
            return self._apply_parts(cur, rest, i, rule, payload, branch=kind == "beta")
        self.counter += 1
        name = f"?{self.counter}" if kind == "gamma" else f"!sk{self.counter}"
        inst = self._instance(exp, name)
        nid = self._add(inst)
        mark_t = self._emit(f"{rule}\t{i}\t{name}", ((nid, self._resolved(nid)),))
        self.expansions += 1
        if kind == "gamma":
            nxt = cur.extend([nid], None, 1, len(self.subst.trail), gamma_of=i)
        else:
            nxt = cur.extend([nid], (i, rule), 1, len(self.subst.trail))
        if self._prove(nxt, rest):
            return True
        self._untrace(mark_t)
        self._pop(1)
        self.counter -= 1
        return False

    def _apply_parts(self, cur, rest, i, rule, parts, branch=False) -> bool:
        ids = [self._add(p) for p in parts]
        mark_t = self._emit(f"{rule}\t{i}", tuple((n, self._resolved(n)) for n in ids))
        self.expansions += 1
        version = len(self.subst.trail)
        if not branch or len(ids) == 1:
            nxt = cur.extend(ids, (i, rule), 1, version)
            if self._prove(nxt, rest):
                return True
        else:
            # second part explored first: it usually constrains the
            # metavariables the first part's side condition needs
            first = cur.extend([ids[1]], (i, rule), 1, version)
            deferred = cur.extend([ids[0]], (i, rule), 1, version)
            if self._prove(first, [deferred] + rest):
                return True
        self._untrace(mark_t)
        self._pop(len(ids))
        return False


def prove(sequent: Sequent, budget: Budget = Budget()) -> ProverOutcome:
    """Attempt to close a tableau for the sequent within the budget.

    The search is memoised on its exact input, the pair (``_initial`` of the
    sequent, budget), so an obligation equal to one already searched in this
    process gets the stored outcome.  A timeout is never stored: the next
    equal obligation is searched again."""
    bad = _reserved_names(sequent)
    if bad:
        return Malformed(f"reserved names in sequent: {bad}")
    try:
        return _search(_initial(sequent), budget)
    except _Timeout as timeout:
        return Unknown("timeout", timeout.args[0])


def _render(line: tuple[str, tuple]) -> str:
    """The text of a trace line kept by ``_Search._emit``."""
    head, intro = line
    return "".join([head, *(f"\t{n}:{pretty(e)}" for n, e in intro), "\n"])


@functools.lru_cache(maxsize=1024)
def _search(initial: tuple[Expr, ...], budget: Budget) -> ProverOutcome:
    """The outcome of the search from the initial entries; raises _Timeout
    with the Stats so far, so that lru_cache stores no timeout."""
    deadline = time.monotonic() + budget.timeout_ms / 1000.0
    search = _Search(initial, budget, deadline)
    iterations = 0
    try:
        for depth in range(1, budget.max_depth + 1):
            iterations += 1
            if search.run(depth):
                return Proved("".join(map(_render, search.trace)))
            if not search.cut:
                break  # saturated: deeper iterations cannot differ
    except _Timeout:
        raise _Timeout(Stats(iterations, search.expansions, search.closures)) from None
    return Unknown(
        "exhausted",
        Stats(iterations, search.expansions, search.closures),
    )


# ---------------------------------------------------------------------------
# Trace replay


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    error: Optional[str] = None


def replay_trace(sequent: Sequent, trace: str) -> ReplayResult:
    """Re-apply every rule in the trace and confirm all branches close."""
    bad = _reserved_names(sequent)
    if bad:
        return ReplayResult(False, f"reserved names in sequent: {bad}")
    t = _Tableau(_initial(sequent))
    stack: list[list[int]] = [list(range(len(t.entries)))]
    skolems: set[str] = set()

    def fail(line_no: int, msg: str) -> ReplayResult:
        return ReplayResult(False, f"line {line_no}: {msg}")

    lines = [ln for ln in trace.splitlines() if ln.strip()]
    for no, line in enumerate(lines, start=1):
        if not stack:
            return fail(no, "all branches already closed")
        branch = stack[-1]
        fields = line.split("\t")
        rule = fields[0]
        try:
            principal = int(fields[1])
        except (IndexError, ValueError):
            return fail(no, "malformed principal index")
        if principal not in branch:
            return fail(no, f"principal {principal} not on the open branch")
        e = t._resolved(principal)

        if rule == "close-false":
            if e not in (s.FALSE, Neg(s.TRUE)):
                return fail(no, "close-false on a non-falsum formula")
            stack.pop()
            continue
        if rule in ("close", "close-eq"):
            if rule == "close-eq":
                pairs = _complements(e)
                recorded = fields[2:3]
            else:
                try:
                    other = int(fields[2])
                except (IndexError, ValueError):
                    return fail(no, "malformed closure pair")
                if other not in branch:
                    return fail(no, f"formula {other} not on the open branch")
                pairs = _complements(e, t._resolved(other))
                recorded = fields[3:4]
            binds = recorded[0] if recorded else ""
            # stopping at the first pair that gives these bindings keeps them made
            if binds not in t._closings(pairs, t._congruence(branch)):
                return fail(no, "no unifier closes the branch with the recorded bindings")
            stack.pop()
            continue

        if rule == "rewrite":
            found = t._find_rewrite(branch, [principal])
            if found is None:
                return fail(no, "rewrite target not justified by branch equalities")
            kind, parts, intro = "alpha", [found[1]], fields[2:]
        else:
            exp = t._expansion_of(principal)
            if exp is None or exp[0] != rule:
                return fail(no, f"rule {rule} does not apply to the principal formula")
            kind, parts, intro = exp[1], exp[2], fields[2:]
            if kind in ("gamma", "delta"):
                name, intro = fields[2] if len(fields) > 2 else "", fields[3:]
                if not name.startswith("?" if kind == "gamma" else "!"):
                    return fail(no, "malformed introduced name")
                if kind == "delta":
                    if name in skolems:
                        return fail(no, f"skolem {name} is not fresh")
                    skolems.add(name)
                parts = [t._instance(exp, name)]
        if intro != [f"{len(t.entries) + k}:{t._text(p)}" for k, p in enumerate(parts)]:
            return fail(no, "introduced formulas do not match the rule")
        ids = [t._add(p) for p in parts]
        if kind == "beta":
            # the search continues with the second part and defers the first
            stack.insert(len(stack) - 1, branch + [ids[0]])
            branch.append(ids[1])
        else:
            branch.extend(ids)

    if stack:
        return ReplayResult(False, f"{len(stack)} branch(es) left open")
    return ReplayResult(True)


def check_trace(sequent: Sequent, trace: str) -> bool:
    """True iff replaying the trace applies only legal rules and closes every
    branch; see replay_trace for the first-failure diagnostic."""
    return replay_trace(sequent, trace).ok
