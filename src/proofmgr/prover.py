"""Iterative-deepening free-variable tableau for classical first-order logic
with equality, extended with set-construct expansion rules: the search, its
memo, ``prove`` and trace replay.  The rules, closure and normalization
they share are in ``tableau``.

The depth bound counts only the first-order steps, those that can make new
formulas without end: gamma, rewrite, comprehension membership (the
instance of its predicate may hold the formula again) and the theory rules
func-space and extensionality.  Every other rule fires at most once per
formula per branch, and a chain of them ends, so it costs no depth.

Traces are line-oriented and replayable: one rule application per line, as
tab-separated fields ``rule``, ``principal index``, then the introduced
``index:formula`` entries (a gamma or delta line carries the introduced name
before the formula).  A ``close`` line names the complementary pair and the
unifier bindings.  Search and replay share one implementation of every rule
(``tableau._Tableau``): replay re-runs it on each line's principal formula
and accepts the line only when it introduces the same formulas or closes
with the same bindings; it also requires every skolem name to be fresh.
Replay keeps a stack of open branches: expansions extend the current branch;
``beta`` continues on its second introduced formula and pushes a branch for
the first (the second part of a branching rule usually constrains the
metavariables its side condition needs); ``close*`` pops.

Closure tries only the pairs that may close, in the order of all pairs.
Each entry keeps, from when it is added, the head of its formula and of the
atom under its negation (``tableau._keys``); a pair is a candidate when one
member's atom and the other formula have the same head, or one of them is
headed by a metavariable, or, with a congruence over the branch, is ground
and in its pool, since only congruence makes different heads equal.  A trace
line keeps the formulas it introduces as resolved when its rule fired, and
its text is rendered once, for a search that succeeds.

``prove`` gives a proof only once it has replayed: a search's trace is
replayed against the entries searched before the outcome is stored, and a
trace that does not replay makes the outcome ``Unknown``, its reason the
replay's first failure.  ``prove`` memoises the search per process on the
obligation's class up to a renaming of its names: the shape of each
initial entry (its nodes in preorder over ``syntax.scoped``, each as its
type and ``syntax._label``, with each free name replaced by its index in
order of first occurrence, bound names kept), how the entries' names link,
and the budget.  The first obligation of a class is searched under its own names;
a later one with the same names and entries gets the stored outcome, and
one under other names gets it with the names mapped over, a mapped trace
replayed against its own entries before it is given.  The search makes the
same choices under a renaming, except the names it gives bound variables
(``z`` or a bound name, with any digits after it), which avoid the names
that occur; so replay alone decides: a mapped trace that moves such a name
does not replay, and an obligation whose mapped trace does not replay is
searched itself.  A timeout is never stored.

A formula's shape (``_fingerprint``) is memoised too, for every search it
occurs in, as are its normal form and expansion (``tableau``).  The CLI
empties every such store at the start of each run (``reset``).
"""

from __future__ import annotations

import functools
import re
import time
from typing import Iterator, Optional

from . import syntax as s
from .syntax import Expr, Ident, Neg, OpApp, _label, pretty, scoped
from .tableau import (
    Budget,
    Malformed,
    Proved,
    ProverOutcome,
    Sequent,
    Stats,
    Unknown,
    _ANY,
    _ATOMS,
    _Tableau,
    _complements,
    _expansion,
    _is_falsum,
    normalize,
)
from .tableau import sequent_from_obligation  # noqa: F401 - prover's public API


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
# The rules besides gamma that cost depth (see the module's docstring)
_CHARGED = ("rewrite", "subset-of", "subset-of-neg", *_THEORY_RULES)


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
        return self._prove([_Branch(list(range(len(self.entries))), set(), {}, depth)])

    def _check_time(self) -> None:
        if time.monotonic() > self.deadline:
            raise _Timeout()

    def _emit(self, head: str, intro: tuple = ()) -> None:
        """Add a trace line: its head fields, and the introduced entries as
        (id, formula resolved now).  The text is rendered only for a proof
        (``_render``): most lines are taken back when their branch fails."""
        self.trace.append((head, intro))

    def _closed(self, line: str, rest: list[_Branch]) -> list[_Branch]:
        """The agenda after the closure of the branch by the trace line."""
        self._emit(line)
        self.closures += 1
        return rest

    def _back(self, mark: tuple[int, int, int]) -> None:
        """Take back the trace lines, entries and names made since the mark
        (lengths of the trace and entries, the name counter); ``_closings``
        takes back its own bindings."""
        lines, n, self.counter = mark
        del self.trace[lines:], self.entries[n:], self.keys[n:], self.views[n:]

    def _prove(self, agenda: Optional[list[_Branch]]) -> bool:
        """Close every branch of the agenda, the first first.  Where a
        branch goes on in more than one way, the ways are kept on a stack of
        choice points, each with the mark that takes a failed way back, so
        the search needs no Python stack however large its tableau."""
        choices: list[tuple[tuple[int, int, int], Iterator[list[_Branch]]]] = []
        while True:
            while agenda is None:  # the last way failed: take the next one
                if not choices:
                    return False
                mark, ways = choices[-1]
                self._back(mark)
                agenda = next(ways, None)
                if agenda is None:
                    choices.pop()
            if not agenda:
                return True
            self._check_time()
            cur, rest = agenda[0], agenda[1:]
            step = self._try_closures(cur, rest)
            if not isinstance(step, list):
                step = self._ways(cur, rest, *step) if step[0] else self._try_expansions(cur, rest)
            if isinstance(step, list):
                agenda = step
            else:
                choices.append(((len(self.trace), len(self.entries), self.counter), step))
                agenda = None

    def _ways(self, cur, rest, bindings, cc):
        """The agendas of cur's closures with bindings, then of its expansions."""
        for pairs, head in bindings:
            for binds in self._closings(pairs, cc):
                yield self._closed(f"{head}\t{binds}", rest)
        way = self._try_expansions(cur, rest)
        yield from [way] if isinstance(way, list) else way

    def _try_closures(self, cur: _Branch, rest: list[_Branch]):
        """rest when a closure without bindings closes cur, committed to;
        else (the closures with bindings, as (pairs, trace head) each, to be
        tried in turn; the branch's congruence)."""
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
            if _is_falsum(e):
                return self._closed(f"close-false\t{i}", rest)
            if isinstance(e, Neg) and isinstance(e.item, s.Eq) and e.item.left == e.item.right:
                return self._closed(f"close-eq\t{i}\t", rest)
        cc = self._congruence(items)
        # the pairs with a new member that may close, in pair order
        pairs = self._candidates(items, start, cc)
        # no-binding complementary pairs: commit
        for i, j in pairs:
            ei, ej = self._resolved(i), self._resolved(j)
            for a, b in ((ei, ej), (ej, ei)):
                if isinstance(a, Neg) and a.item == b:
                    return self._closed(f"close\t{i}\t{j}\t", rest)
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
                    return self._closed(f"close-eq\t{i}\t", rest)
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
                        return self._closed(f"close\t{x}\t{y}\t", rest)
        # binding closures: backtrackable choice points (congruence-assisted)
        bindings = [(_complements(self._resolved(i)), f"close-eq\t{i}") for i in news]
        for i, j in pairs:
            found = _complements(self._resolved(i), self._resolved(j))
            bindings.append(([(a, b) for a, b in found if a != b], f"close\t{i}\t{j}"))
        return [b for b in bindings if b[0]], cc

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

    def _try_expansions(self, cur: _Branch, rest: list[_Branch]):
        """The agenda after the one expansion to make, else the agendas of
        the alternatives, to be tried in turn."""
        if cur.depth <= 0:
            self.cut = True
            return iter(())
        # invertible non-branching rules first, then delta, rewrite, beta;
        # gamma instantiations and the heuristic theory rules are tried as
        # backtrackable alternatives at the end; one walk of the branch finds
        # the first alpha, or else the first delta and beta and every
        # alternative
        delta = beta = None
        alternatives: list[tuple[int, int, tuple]] = []
        for i in cur.items:
            exp = self._expansion_of(i)
            if exp is None:
                continue
            rule, kind, _ = exp
            if kind == "gamma":
                uses = cur.gamma_uses.get(i, 0)
                if uses < self.budget.gamma_reuse:
                    alternatives.append((uses, i, exp))
            elif (i, rule) in cur.expanded:
                continue
            elif rule in _THEORY_RULES:
                alternatives.append((self.budget.gamma_reuse, i, exp))
            elif kind == "alpha":
                return self._apply(cur, rest, i, exp)
            elif kind == "delta":
                delta = delta or (i, exp)
            else:
                beta = beta or (i, exp)
        if delta is not None:
            return self._apply(cur, rest, *delta)
        rewrite = self._find_rewrite(
            cur.items, (i for i in cur.items if (i, "rewrite") not in cur.expanded)
        )
        if rewrite is not None:
            i, formula = rewrite
            return self._apply_parts(cur, rest, i, "rewrite", [formula])
        if beta is not None:
            return self._apply(cur, rest, *beta)
        alternatives.sort(key=lambda g: (g[0], g[1]))
        return (self._apply(cur, rest, i, exp) for _, i, exp in alternatives)

    def _apply(self, cur, rest, i, exp) -> list[_Branch]:
        """The agenda after applying exp to entry i of cur."""
        rule, kind, payload = exp
        if kind in ("alpha", "beta"):
            return self._apply_parts(cur, rest, i, rule, payload, branch=kind == "beta")
        self.counter += 1
        name = f"?{self.counter}" if kind == "gamma" else f"!sk{self.counter}"
        inst = self._instance(exp, name)
        nid = self._add(inst)
        self._emit(f"{rule}\t{i}\t{name}", ((nid, self._resolved(nid)),))
        self.expansions += 1
        if kind == "gamma":
            return [cur.extend([nid], None, 1, len(self.subst.trail), gamma_of=i), *rest]
        return [cur.extend([nid], (i, rule), 0, len(self.subst.trail)), *rest]

    def _apply_parts(self, cur, rest, i, rule, parts, branch=False) -> list[_Branch]:
        ids = [self._add(p) for p in parts]
        self._emit(f"{rule}\t{i}", tuple((n, self._resolved(n)) for n in ids))
        self.expansions += 1
        version = len(self.subst.trail)
        cost = 1 if rule in _CHARGED else 0
        # a beta's second part is explored first: it usually constrains the
        # metavariables the first part's side condition needs
        groups = [[n] for n in reversed(ids)] if branch else [ids]
        return [*(cur.extend(g, (i, rule), cost, version) for g in groups), *rest]


def _render(line: tuple[str, tuple]) -> str:
    """The text of a trace line kept by ``_Search._emit``."""
    head, intro = line
    return "".join([head, *(f"\t{n}:{pretty(e)}" for n, e in intro), "\n"])


def _search(initial: tuple[Expr, ...], budget: Budget) -> ProverOutcome:
    """The outcome of the search from the initial entries; raises _Timeout
    with the Stats so far."""
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
# The search memo: one search per obligation up to a renaming of its names


@functools.lru_cache(maxsize=4096)
def _fingerprint(e: Expr) -> tuple[tuple, tuple[str, ...]]:
    """(shape, names) of an initial entry.  The shape lists e's nodes in
    preorder (``syntax.scoped``), each as its type and label
    (``syntax._label``), except that a free name is its type, its index in
    names and its number of subterms; names lists the free names in order
    of first occurrence.  Bound names stay as they are.  A node's type and
    label fix how many subterms it has, so two entries have the same shape
    iff one is the other with its free names renamed bijectively."""
    shape: list = []
    names: dict[str, int] = {}
    todo = [(e, frozenset())]
    while todo:
        e, bound = todo.pop()
        kids = list(scoped(e))
        if type(e) in (Ident, OpApp) and e.name not in bound:
            shape.extend((type(e), names.setdefault(e.name, len(names)), len(kids)))
        else:
            shape.extend((type(e), _label(e)))
        for c, b in reversed(kids):
            todo.append((c, bound.union(b) if b else bound))
    return tuple(shape), tuple(names)


def _class_of(initial: tuple[Expr, ...], budget: Budget) -> tuple[tuple, tuple[str, ...]]:
    """(key, names) of a search: the key is its class up to a renaming of
    the names, that is each entry's shape, how the entries' names link
    (each entry's names by their index in names, one entry after another:
    an entry's shape fixes how many it has), and the budget; names lists
    the names of all the entries in order of first occurrence."""
    index: dict[str, int] = {}
    shapes, links = [], []
    for e in initial:
        shape, names = _fingerprint(e)
        shapes.append(shape)
        links.extend([index.setdefault(n, len(index)) for n in names])
    return (tuple(shapes), tuple(links), budget), tuple(index)


# The rule field of each trace line, or a name elsewhere (not a keyword
# spelled with a backslash, a metavariable or a skolem name); compiled at
# the first use, by ``re``'s own cache, not at start-up
_RULE_OR_NAME = r"(?m)^([^\t\n]*)|(?<![\w?!\\])[A-Za-z_]\w*"


def _rename_trace(trace: str, mapping: dict[str, str]) -> str:
    """The trace with each name mapped."""
    return re.sub(
        _RULE_OR_NAME, lambda m: m[1] if m[1] is not None else mapping.get(m[0], m[0]), trace
    )


class _Memo:
    """The outcomes of the searches made, keyed by their class up to a
    renaming of the names (``_class_of``), each stored with the names and
    the initial entries it was searched from.  ``hits`` counts the outcomes
    given from it, ``misses`` the searches made; it keeps the latest
    ``size`` outcomes."""

    size = 1024

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.stored: dict[tuple, tuple[tuple[str, ...], tuple[Expr, ...], ProverOutcome]] = {}
        self.hits = 0
        self.misses = 0

    def store(
        self, key: tuple, names: tuple[str, ...], initial: tuple[Expr, ...], outcome: ProverOutcome
    ) -> None:
        if len(self.stored) >= self.size:
            del self.stored[next(iter(self.stored))]
        self.stored[key] = (names, initial, outcome)


_memo = _Memo()


def reset() -> None:
    """Empty every per-run store: the search outcomes (``_memo``) and the
    per-formula memos."""
    _memo.clear()
    for cache in (normalize, _fingerprint, _expansion):
        cache.cache_clear()


def _reuse(stored, names: tuple[str, ...], initial: tuple[Expr, ...]) -> Optional[ProverOutcome]:
    """The stored outcome of a search of the same class, for the search
    from initial under its names: as stored when the names and the entries
    are the same; else with the names mapped over, a trace only when it
    replays against initial; None when the entries differ under the same
    names or the trace does not replay."""
    searched, entries, outcome = stored
    if searched == names:
        return outcome if entries == initial else None
    if not isinstance(outcome, Proved):
        return outcome
    trace = _rename_trace(outcome.trace, dict(zip(searched, names)))
    return Proved(trace) if _replay(initial, trace).ok else None


def prove(sequent: Sequent, budget: Budget = Budget()) -> ProverOutcome:
    """Attempt to close a tableau for the sequent within the budget.

    A proof is given only once its trace has replayed against the sequent's
    initial entries; a searched trace that does not replay gives ``Unknown``
    with the replay's first failure.  The search is memoised (``_memo``) on
    its class up to a renaming of its names, and the obligation is searched
    when a renamed proof does not replay.  A timeout is never stored: the
    next obligation of its class is searched again."""
    initial = sequent.start
    if isinstance(initial, str):
        return Malformed(initial)
    key, names = _class_of(initial, budget)
    stored = _memo.stored.get(key)
    if stored is not None:
        outcome = _reuse(stored, names, initial)
        if outcome is not None:
            _memo.hits += 1
            return outcome
    _memo.misses += 1
    try:
        outcome = _search(initial, budget)
    except _Timeout as timeout:
        return Unknown("timeout", timeout.args[0])
    if isinstance(outcome, Proved):
        replay = _replay(initial, outcome.trace)
        if not replay.ok:
            outcome = Unknown(f"trace does not replay: {replay.error}")
    if stored is None:
        _memo.store(key, names, initial, outcome)
    return outcome


# ---------------------------------------------------------------------------
# Trace replay


class ReplayResult(s.Node):
    __slots__ = ("ok", "error")
    _defaults = {"error": None}


def replay_trace(sequent: Sequent, trace: str) -> ReplayResult:
    """Re-apply every rule in the trace and confirm all branches close."""
    initial = sequent.start
    if isinstance(initial, str):
        return ReplayResult(False, initial)
    return _replay(initial, trace)


def _replay(initial: tuple[Expr, ...], trace: str) -> ReplayResult:
    """``replay_trace`` from the initial entries of a sequent."""
    t = _Tableau(initial)
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
            if not _is_falsum(e):
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
