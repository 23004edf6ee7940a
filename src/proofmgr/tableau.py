"""The tableau that the prover's search and its replay share: the sequent,
budget and outcome records, normalization, substitution and unification
over metavariables, ground congruence closure, and the justification of
every rule (``_Tableau``).  It imports nothing from ``prover``.

The prover refutes hypotheses plus the negated goal.  Rules:

* alpha/beta propositional expansion (iff unfolds to the two implications
  when positive and branches on the two conjunctions when negated);
* gamma: universals instantiated with fresh metavariables (``?k``), reused up
  to the budget's per-formula cap per branch;
* delta: existentials instantiated with skolem terms (``!skk``) over the
  metavariables of the formula;
* closure by unification of complementary formulas, of a negated reflexive
  equality, or by ground congruence closure over the branch's equalities
  (both compare two nodes by their ``syntax._label`` and subterms);
* set rules: membership in a bounded comprehension, an image set, a powerset
  or a function space unfolds per construct; the subset relation unfolds to
  its bounded-universal definition; extensionality fires once per branch on a
  negated equality whose side is a set-shaped term; a bounded rewrite step
  re-exposes a set shape hidden behind a branch equality.  The rule for a
  negated comprehension or powerset membership or subset relation is
  derived from the positive one (``_unfolding``), as in Smullyan's uniform
  notation: it adds the negated parts, branching when there are two.

Bounded quantifiers and the negative relation forms are normalized away on
entry (``\\A x \\in S : e`` to ``\\A x : x \\in S => e``, dually for ``\\E``;
``#`` and ``\\notin`` to negations).

A formula's normal form and expansion are memoised for every tableau it
occurs in, and its free names are kept on the term; ``prover.reset``
empties both memos.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

from . import syntax as s
from .meta import Def, Fact, New, Obligation
from .syntax import (
    Binder, Expr, Ident, Neg, OpApp, Quant, _label, free_identifiers, map_children, pretty
)


class Budget(s.Node):
    __slots__ = ("max_depth", "timeout_ms", "gamma_reuse")
    _defaults = {"max_depth": 12, "timeout_ms": 5000, "gamma_reuse": 4}

    def _check(self) -> None:
        if self.max_depth <= 0 or self.timeout_ms <= 0 or self.gamma_reuse <= 0:
            raise ValueError("budget fields must be positive")


class Sequent(s.Node):
    # constants: tuple[str, ...], hypotheses: tuple[Expr, ...], goal: Expr;
    # __dict__ keeps ``start``
    __slots__ = ("constants", "hypotheses", "goal", "__dict__")

    @functools.cached_property
    def start(self) -> Union[str, tuple[Expr, ...]]:
        """What ``prove`` and ``replay_trace`` start from, worked out once
        per sequent: the error naming its reserved names, if there are any,
        else its initial entries (``_initial``)."""
        bad = _reserved_names(self)
        return f"reserved names in sequent: {bad}" if bad else _initial(self)


class Stats(s.Node):
    __slots__ = ("iterations", "expansions", "closures")
    _defaults = {"iterations": 0, "expansions": 0, "closures": 0}


class Proved(s.Node):
    __slots__ = ("trace",)


class Unknown(s.Node):
    __slots__ = ("reason", "stats")
    _defaults = {"stats": Stats()}


class Malformed(s.Node):
    __slots__ = ("reason",)


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
                hyps.append(obl.expression)
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
    the very same normal form of an equal hypothesis, and the free names
    kept on it (``free_identifiers``) are worked out once.  A subterm already in
    normal form is returned itself, so the memo holds few nodes of its own."""
    match e:
        case s.Ne(l, r):
            return Neg(s.Eq(normalize(l), normalize(r)))
        case s.NotIn(i, st):
            return Neg(s.In(normalize(i), normalize(st)))
        case Quant(kind, binders, body):
            binders, body = s.nest_binders(e)
            out = normalize(body)
            for b in reversed(binders):
                if b.domain is not None:
                    guard = s.In(Ident(b.name), normalize(b.domain))
                    out = s.Implies(guard, out) if kind == "forall" else s.And(guard, out)
                out = Quant(kind, (Binder(b.name, None),), out)
        case _:
            out = map_children(e, normalize)
    return e if out == e else out


def _is_falsum(e: Expr) -> bool:
    """e is FALSE or ~TRUE: a branch holding it closes."""
    if type(e) is Neg:
        e = e.item
        return type(e) is s.Bool and e.value
    return type(e) is s.Bool and not e.value


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
        if type(a) is type(b) and _label(a) == _label(b):
            # their subterms pair up, and unify in order
            mark = self.mark()
            if all(self.unify(x, y, cc) for x, y in zip(s.children(a), s.children(b))):
                return True
            self.undo(mark)
        return self._unify_via_congruence(a, b, cc)

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


# The nodes congruence goes through: a function of their subterms
_APPLICATIONS = (OpApp, s.FnApp, s.PowerSet, s.FuncSpace)


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
        return type(a) is type(b) and isinstance(a, _APPLICATIONS) and self._pairwise(a, b)

    def _pairwise(self, a: Expr, b: Expr) -> bool:
        """a and b, of one type, have one label and equal subterms."""
        return _label(a) == _label(b) and all(
            self.equal(x, y) for x, y in zip(s.children(a), s.children(b))
        )

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
        if isinstance(a, (s.In, s.Eq)):
            return self._pairwise(a, b)
        return self.equal(a, b)


# ---------------------------------------------------------------------------
# Rule justification (applied by the search, re-run by replay)

_ATOMS = (s.In, s.Eq, OpApp, Ident, s.FnApp, s.Bool, s.Subseteq)


def _fresh_bound(base: str, *exprs: Expr) -> str:
    avoid: set[str] = set()
    for e in exprs:
        avoid |= free_identifiers(e)
    return s.fresh_name(base, avoid)


def _forall(z: str, body: Expr) -> Quant:
    return Quant("forall", (Binder(z, None),), body)


def _unfolding(atom: Expr) -> Optional[tuple[str, list[Expr]]]:
    """(rule, parts) of a set atom that means the conjunction of its parts:
    membership in a bounded comprehension or a powerset, and the subset
    relation; else None."""
    match atom:
        case s.In(a, s.SetComp(v, dom, pred)):
            return ("subset-of", [s.In(a, dom), s.substitute(pred, v, a)])
        case s.In(a, s.PowerSet(st)):
            return ("power-set", [s.Subseteq(a, st)])
        case s.Subseteq(a, b):
            z = _fresh_bound("z", a, b)
            return ("subseteq", [_forall(z, s.Implies(s.In(Ident(z), a), s.In(Ident(z), b)))])
    return None


@functools.lru_cache(maxsize=4096)
def _expansion(e: Expr) -> Optional[tuple[str, str, object]]:
    """Classify a formula: (rule, kind, payload) where kind is one of
    alpha / beta / gamma / delta, or None for literals.  The payload is
    shared by every tableau the formula occurs in: it is never changed."""
    negated = type(e) is Neg
    unfolded = _unfolding(e.item if negated else e)
    if unfolded is not None:
        rule, parts = unfolded
        if not negated:
            return (rule, "alpha", parts)
        return (f"{rule}-neg", "beta" if len(parts) == 2 else "alpha", [Neg(p) for p in parts])
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
        case Quant(kind, (Binder(x, None),), body) | Neg(Quant(kind, (Binder(x, None),), body)):
            # gamma for a universal or a negated existential, else delta
            rule = "gamma" if (kind == "forall") != negated else "delta"
            return (rule, rule, (x, body, negated))
        case s.In(a, s.SetImage(expr, v, dom)) | Neg(s.In(a, s.SetImage(expr, v, dom))):
            y = _fresh_bound(v, a, expr, dom)
            member = s.And(s.In(Ident(y), dom), s.Eq(a, s.substitute(expr, v, Ident(y))))
            if negated:
                # \A y : ~(...), not the ~\E y : ... a derived rule would give
                return ("set-of-all-neg", "alpha", [_forall(y, Neg(member))])
            return ("set-of-all", "alpha", [Quant("exists", (Binder(y, None),), member)])
        case s.In(f, s.FuncSpace(dom, cod)):
            z = _fresh_bound("z", f, dom, cod)
            return (
                "func-space",
                "alpha",
                [_forall(z, s.Implies(s.In(Ident(z), dom), s.In(s.FnApp(f, Ident(z)), cod)))],
            )
        case Neg(s.Eq(a, b)) if isinstance(a, _SET_SHAPES) or isinstance(b, _SET_SHAPES):
            z = _fresh_bound("z", a, b)
            return (
                "extensionality",
                "alpha",
                [Neg(_forall(z, s.Iff(s.In(Ident(z), a), s.In(Ident(z), b))))],
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
