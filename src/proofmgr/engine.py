"""Checking and transformation rules: proofs to derivations and leaf obligations.

A claim (a proof against an obligation) is checked by recursively refining
the obligation through each proof step.  Each step either matches the shape
of exactly one rule, producing an output obligation, side leaf obligations
and subclaims, or the claim is meaningless at that step.  A step is one
derivation node: a step over a list (USE and HIDE facts, TAKE binders,
WITNESS items) walks it with a loop and holds its side leaves in item order.

Named assertion steps bind their label as an operator whose definable is the
asserted obligation, and the fact of the label is added hidden; the subproof
context receives the hidden negation of the current goal immediately before
the label definition.  The checker for a whole theorem suppresses that
negated-goal assumption for the steps of the theorem's top-level sequence
only (a claim checked directly always receives it).

Every declaration follows one rule (``_declare``): a NEW item of a goal
form, a TAKE or PICK binder, a DEFINE's name and parameters and a step
label may not reuse a name the context binds, nor one the same step
declared earlier.  Such a step is meaningless; the checker renames nothing.
Only the top level of the context counts, so a name declared inside a
labelled assertion, which lives on only in the label's definition, may be
declared again by a later step.

After a meaningless step, checking continues with the unrefined obligation so
that several errors can be reported in one run.
"""

from __future__ import annotations

from typing import Union

from .meta import (
    Def,
    DuplicateName,
    Fact,
    Lambda,
    MetaError,
    New,
    Obligation,
    UnknownFact,
    check_well_formed,
    context_binds,
    fact,
    hiding_defs,
    obligation_to_expression,
    reflect_binders,
    twin,
    unhide,
    using_defs,
)
from .parser import (
    AssertStep,
    By,
    CaseStep,
    DefineStep,
    FactItem,
    GoalForm,
    HaveStep,
    NewItem,
    NonLeaf,
    Obvious,
    Omitted,
    PickStep,
    Proof,
    ProofStep,
    QedStep,
    Step,
    SufficesStep,
    TakeStep,
    Theorem,
    UseHideStep,
    WitnessStep,
    BeginStepToken,
)
from .syntax import (
    Expr,
    Ident,
    Implies,
    In,
    Neg,
    Node,
    OpApp,
    Quant,
    Subseteq,
    alpha_equal,
    free_identifiers,
    pretty,
    split_binder,
    substitute,
)

Path = tuple[str, ...]


class MeaninglessError(Exception):
    def __init__(self, message: str, path: Path, obligation: Obligation):
        super().__init__(f"{'.'.join(path) or '(root)'}: {message}")
        self.message = message
        self.path = path
        self.obligation = obligation


class StepError(Node):
    __slots__ = ("path", "message", "obligation", "span")
    _defaults = {"span": None}


class LeafObligationRecord(Node):
    __slots__ = ("obligation", "path", "kind", "omitted", "span")
    _defaults = {"omitted": False, "span": None}


class Derivation(Node):
    # output: Optional[Obligation]; children: tuple[Derivation, ...];
    # leaves: tuple[LeafObligationRecord, ...]; error: Optional[StepError]
    __slots__ = ("rule", "input", "output", "path", "children", "leaves", "error", "span")
    _defaults = {"children": (), "leaves": (), "error": None, "span": None}


def leaf_obligations(d: Derivation) -> list[LeafObligationRecord]:
    """Leaf records in derivation order: each node's subclaims and side
    premises come before its own goal leaves."""
    out: list[LeafObligationRecord] = []

    def walk(node: Derivation) -> None:
        for c in node.children:
            walk(c)
        out.extend(node.leaves)

    walk(d)
    return out


def derivation_errors(d: Derivation) -> list[StepError]:
    out: list[StepError] = []

    def walk(node: Derivation) -> None:
        if node.error is not None:
            out.append(node.error)
        for c in node.children:
            walk(c)

    walk(d)
    return out


# ---------------------------------------------------------------------------
# Goal-form reflection


def _declare(name: str, binds: set[str]) -> None:
    """The declaration rule: a step may declare a name (NEW, TAKE, PICK, a
    DEFINE's name or parameter, or a step label) only if no assumption of
    the context binds it and the step has not declared it already.  binds
    holds the names in scope and takes the new one."""
    if name in binds:
        raise DuplicateName(f"{name} is already bound")
    binds.add(name)


def goal_form_obligation(gf: GoalForm, binds: set[str]) -> Obligation:
    """The obligation a goal form denotes (context fragment plus goal); its
    NEW items are declared in binds, the names in scope."""
    ctx: list = []
    for item in gf.assumes:
        match item:
            case NewItem(name, domain):
                _declare(name, binds)
                ctx.append(New(name))
                if domain is not None:
                    ctx.append(fact(In(Ident(name), domain)))
            case FactItem(expr):
                ctx.append(fact(expr))
    return Obligation(tuple(ctx), gf.goal)


# ---------------------------------------------------------------------------
# Goal-head expansion for matching


def expand_for_matching(o: Obligation) -> Obligation:
    """Expand usable definitions at the head of the goal just far enough to
    expose a quantifier or implication; hidden definitions never expand."""
    defs = {
        h.name: h.definable
        for h in o.context
        if isinstance(h, Def) and not h.hidden
    }
    goal = o.goal
    for _ in range(len(defs) + 1):
        if isinstance(goal, (Quant, Implies)):
            break
        match goal:
            case Ident(name) if name in defs:
                d = defs[name]
                if isinstance(d, Lambda):
                    break  # needs arguments; leave for the caller to reject
                goal = obligation_to_expression(d)
            case OpApp(name, args) if name in defs:
                d = defs[name]
                if not isinstance(d, Lambda) or len(d.params) != len(args):
                    break
                goal = d.apply(name, args)
            case _:
                break
    if goal is o.goal:
        return o
    return Obligation(o.context, goal)


def _require_closed(
    e: Union[Expr, Obligation], binds: set[str], what: str, path: Path, obl: Obligation
) -> None:
    """A step may only mention the names bound in its context (binds, read
    once per step), or local ones (its own binders, which the caller adds);
    anything else would leak an unbound identifier into a leaf obligation.
    e is an expression or an obligation."""
    free = e.free if isinstance(e, Obligation) else free_identifiers(e)
    loose = free - binds
    if loose:
        raise MeaninglessError(
            f"{what} mentions {', '.join(sorted(loose))}, not bound in the context",
            path,
            obl,
        )


# ---------------------------------------------------------------------------
# The checker


class StepOutcome(Node):
    __slots__ = ("output", "node")  # Obligation, Derivation


class CheckedTheorem(Node):
    __slots__ = ("theorem", "root", "derivation", "records", "errors", "warnings")

    @property
    def meaningful(self) -> bool:
        return not self.errors

    @property
    def complete(self) -> bool:
        return not any(r.omitted for r in self.records)


class _Checker:
    def __init__(self, local_defs_usable: bool = True):
        self.local_defs_usable = local_defs_usable
        self.warnings: list[str] = []
        # twin of each assumption whose hidden flag a step turned over
        # (meta.twin), kept for this checker's theorem
        self.twins: dict = {}

    # -- claims ---------------------------------------------------------

    def check(
        self,
        proof: Proof,
        obl: Obligation,
        path: Path,
        suppress_neg: bool = False,
        goal_kind: str = "obvious-goal",
    ) -> Derivation:
        match proof:
            case Obvious():
                leaf = LeafObligationRecord(obl, path, goal_kind, span=proof.pos)
                return Derivation("obvious", obl, None, path, leaves=(leaf,), span=proof.pos)
            case Omitted():
                leaf = LeafObligationRecord(obl, path, goal_kind, omitted=True, span=proof.pos)
                return Derivation("omitted", obl, None, path, leaves=(leaf,), span=proof.pos)
            case By(facts, defs):
                token = BeginStepToken(0, None, pos=proof.pos)
                use = UseHideStep(facts, defs, hide=False)
                try:
                    outcome = self._use_hide(token, use, obl, path)
                except (MeaninglessError, MetaError) as err:
                    return self._error_node("by", obl, path, proof.pos, err)
                kind = "by-goal" if goal_kind == "obvious-goal" else goal_kind
                leaf = LeafObligationRecord(outcome.output, path, kind, span=proof.pos)
                return Derivation(
                    "by", obl, None, path, children=(outcome.node,), leaves=(leaf,), span=proof.pos
                )
            case NonLeaf(steps):
                return self._sequence(steps, obl, path, suppress_neg)
        raise TypeError(type(proof).__name__)

    def _sequence(
        self, steps: tuple[Step, ...], obl: Obligation, path: Path, suppress_neg: bool
    ) -> Derivation:
        """One child per step, in order: each step refines the obligation
        the next one starts from, and the QED step proves the last one."""
        if not steps:
            raise MeaninglessError("empty step sequence", path, obl)
        nodes: list[Derivation] = []
        cur = obl
        for idx, step in enumerate(steps):
            token = step.token
            spath = path + (token.name,)
            if isinstance(step.body, QedStep):
                sub = self.check(step.body.proof, cur, spath, False)
                nodes.append(Derivation("qed", cur, None, spath, children=(sub,), span=step.pos))
                break
            if idx == len(steps) - 1:
                err = MeaninglessError(
                    f"step {token.name} is not QED but ends its sequence", path, cur
                )
                nodes.append(self._error_node("step", cur, spath, step.pos, err))
                break
            try:
                outcome = self.transform(token, step.body, cur, path, suppress_neg)
            except (MeaninglessError, MetaError) as err:
                # recovery: siblings continue with the unrefined obligation
                nodes.append(self._error_node("step", cur, spath, step.pos, err))
            else:
                nodes.append(outcome.node)
                cur = outcome.output
        return Derivation(
            "sequence", obl, None, path, children=tuple(nodes), span=steps[0].pos
        )

    def _error_node(self, rule, obl, path, span, err) -> Derivation:
        msg = getattr(err, "message", str(err))
        return Derivation(
            rule, obl, None, path,
            error=StepError(path, msg, obl, span), span=span,
        )

    # -- transformations --------------------------------------------------

    def transform(
        self,
        token: BeginStepToken,
        body: ProofStep,
        obl: Obligation,
        path: Path,
        suppress_neg: bool = False,
    ) -> StepOutcome:
        spath = path + (token.name,)
        match body:
            case UseHideStep():
                return self._use_hide(token, body, obl, path)
            case DefineStep():
                return self._define(token, body, obl, spath)
            case HaveStep(g):
                return self._have(g, obl, spath)
            case TakeStep(binders):
                return self._instantiate("TAKE", binders, obl, spath)
            case WitnessStep(items):
                return self._instantiate("WITNESS", items, obl, spath)
            case AssertStep(gf, proof):
                return self._assert(token, gf, proof, obl, path, suppress_neg)
            case CaseStep(g, proof):
                gf = GoalForm((FactItem(g),), obl.goal)
                return self._assert(token, gf, proof, obl, path, suppress_neg, rule="case")
            case SufficesStep(gf, proof):
                return self._assert(token, gf, proof, obl, path, suppress_neg, rule="suffices")
            case PickStep(binders, pbody, proof):
                return self._pick(token, binders, pbody, proof, obl, path)
            case QedStep():
                raise MeaninglessError("QED before the end of its sequence", spath, obl)
        raise TypeError(type(body).__name__)

    def _use_hide(self, token, body: UseHideStep, obl, path) -> StepOutcome:
        """USE appends the cited facts in order, each with a side leaf that
        proves it from the context before it with every assumption shown;
        HIDE hides, for each cited fact, the last usable fact equal to it."""
        # the internal <0> token of an elaborated BY does not appear in paths
        spath = path + (token.name,) if token.level > 0 else path
        known = {h.name for h in obl.context if isinstance(h, Def)}
        for name in body.defs:
            if name not in known:
                self.warnings.append(
                    f"{'.'.join(spath)}: no definition named {name} in the context"
                )
        leaves: list[LeafObligationRecord] = []
        if body.hide:
            hidden = list(obl.context)
            for cited in body.facts:
                for k in range(len(hidden) - 1, -1, -1):
                    h = hidden[k]
                    if (
                        isinstance(h, Fact)
                        and not h.hidden
                        and not h.obligation.context
                        and alpha_equal(h.obligation.goal, cited)
                    ):
                        hidden[k] = twin(h, self.twins)
                        break
                else:
                    raise UnknownFact(f"no usable fact {pretty(cited)} to hide")
            ctx = hiding_defs(tuple(hidden), body.defs, self.twins)
        else:
            ctx = using_defs(obl.context, body.defs, self.twins)
            binds = context_binds(ctx)
            for cited in body.facts:
                _require_closed(cited, binds, "cited fact", spath, obl)
                side = Obligation(unhide(ctx, self.twins), cited)
                leaves.append(LeafObligationRecord(side, spath, "use-fact-side"))
                ctx += (fact(cited),)
        rule = ("hide" if body.hide else "use") + ("-defs" if body.defs else "")
        output = Obligation(ctx, obl.goal)
        node = Derivation(rule, obl, output, spath, leaves=tuple(leaves), span=token.pos)
        return StepOutcome(output, node)

    def _define(self, token, body: DefineStep, obl, spath) -> StepOutcome:
        binds = context_binds(obl.context)
        declared = set(binds)
        for name in (body.name, *body.params):
            _declare(name, declared)
        _require_closed(body.body, binds | set(body.params), "definition body", spath, obl)
        definable: Union[Obligation, Lambda]
        if body.params:
            definable = Lambda(body.params, body.body)
        else:
            definable = Obligation((), body.body)
        output = Obligation(
            obl.context + (Def(body.name, definable, hidden=True),), obl.goal
        )
        node = Derivation("define", obl, output, spath, span=token.pos)
        if not self.local_defs_usable:
            return StepOutcome(output, node)
        # proof-local definitions are usable by default: lower to an
        # immediate synthetic USE DEF of the new name
        used = Obligation(using_defs(output.context, (body.name,), self.twins), output.goal)
        use_node = Derivation("use-defs", output, used, spath)
        wrapper = Derivation(
            "define", obl, used, spath, children=(node, use_node), span=token.pos
        )
        return StepOutcome(used, wrapper)

    def _have(self, g: Expr, obl, spath) -> StepOutcome:
        _require_closed(g, context_binds(obl.context), "HAVE fact", spath, obl)
        matched = expand_for_matching(obl)
        if not isinstance(matched.goal, Implies):
            raise MeaninglessError(
                f"HAVE requires an implication goal, got {pretty(obl.goal)}",
                spath,
                obl,
            )
        e, f = matched.goal.left, matched.goal.right
        side = Obligation(obl.context + (fact(e),), g)
        leaf = LeafObligationRecord(side, spath, "have-side")
        output = Obligation(obl.context + (fact(g),), f)
        node = Derivation("have", obl, output, spath, leaves=(leaf,))
        return StepOutcome(output, node)

    def _instantiate(self, step: str, items, obl, spath) -> StepOutcome:
        """TAKE (binders, against a universal goal) or WITNESS (witnesses,
        against an existential one): each item in turn takes the place of
        the first binder of the goal, expanded just far enough to show its
        quantifier.  A bounded item adds its side leaves, in item order."""
        take = step == "TAKE"
        kind = "forall" if take else "exists"
        binds = context_binds(obl.context)
        ctx, goal = obl.context, obl.goal
        leaves: list[LeafObligationRecord] = []
        for item in items:
            cur = Obligation(ctx, goal)
            if not take:
                _require_closed(item.expr, binds, "witness", spath, cur)
            dom = item.domain
            if dom is not None:
                _require_closed(dom, binds, "TAKE bound" if take else "witness bound", spath, cur)
            matched = expand_for_matching(cur).goal
            if not (isinstance(matched, Quant) and matched.kind == kind):
                which = "a universally" if take else "an existentially"
                raise MeaninglessError(
                    f"{step} requires {which} quantified goal, got {pretty(goal)}", spath, cur
                )
            first, rest = split_binder(matched)
            if (dom is None) != (first.domain is None):
                want = "bounded" if dom is not None else "unbounded"
                what = item.name if take else pretty(item.expr)
                raise MeaninglessError(
                    f"{step} {what} is {want} but the goal binder is not", spath, cur
                )
            if take:
                _declare(item.name, binds)
                term: Expr = Ident(item.name)
                added: tuple = (New(item.name),)
            else:
                term, added = item.expr, ()
            if dom is not None:
                if take:
                    side = Obligation(ctx, Subseteq(first.domain, dom))
                    leaves.append(LeafObligationRecord(side, spath, "take-subset-side"))
                else:
                    subset = Obligation(ctx, Subseteq(dom, first.domain))
                    member = Obligation(ctx, In(term, dom))
                    leaves.append(LeafObligationRecord(subset, spath, "witness-subset-side"))
                    leaves.append(LeafObligationRecord(member, spath, "witness-membership-side"))
                added += (fact(In(term, dom)),)
            ctx += added
            goal = substitute(rest, first.name, term)
        output = Obligation(ctx, goal)
        node = Derivation(step.lower(), obl, output, spath, leaves=tuple(leaves))
        return StepOutcome(output, node)

    def _assert(
        self, token, gf: GoalForm, proof, obl, path, suppress_neg, rule="assert"
    ) -> StepOutcome:
        """An assertion (rule assert or case) or a SUFFICES step (rule
        suffices).  The claim is proved inside: in the context with its
        fragment, as it is, after the label's definition.  After the step
        the claim is assumed (by the label's hidden fact).  An assertion
        proves inside and goes on after; SUFFICES does the converse."""
        spath = path + (token.name,)
        scope = context_binds(obl.context)
        binds = set(scope)
        alpha = goal_form_obligation(gf, binds)
        what = "SUFFICES claim" if rule == "suffices" else "asserted claim"
        # a name the fragment uses before its NEW declares it is unbound
        _require_closed(alpha, scope, what, spath, obl)
        neg: tuple = () if suppress_neg else (fact(Neg(obl.goal), hidden=True),)
        defined: tuple = ()
        assumed: tuple = (Fact(alpha),)
        if token.label is not None:
            label = token.name
            _declare(label, binds)
            defined = (Def(label, alpha),)
            assumed = defined + (Fact(Obligation((), Ident(label)), hidden=True),)
        inside = Obligation(obl.context + neg + defined + alpha.context, alpha.goal)
        after = Obligation(obl.context + assumed, obl.goal)
        sub_obl, output = (after, inside) if rule == "suffices" else (inside, after)
        sub = self.check(proof, sub_obl, spath, False)
        name = rule if rule == "case" else f"{rule}{1 if token.label is None else 2}"
        node = Derivation(name, obl, output, spath, children=(sub,), span=token.pos)
        return StepOutcome(output, node)

    def _pick(self, token, binders, pbody, proof, obl, path) -> StepOutcome:
        """PICK proves inside that its binders exist; after the step they
        are declared, with their domains (read in the context) and the body
        as facts."""
        spath = path + (token.name,)
        binds = context_binds(obl.context)
        for b in binders:
            if b.domain is not None:
                _require_closed(b.domain, binds, "PICK bound", spath, obl)
        for b in binders:
            _declare(b.name, binds)
        _require_closed(pbody, binds, "PICK body", spath, obl)
        existence = Obligation(obl.context, Quant("exists", tuple(binders), pbody))
        sub = self.check(proof, existence, spath, False, goal_kind="pick-existence")
        output = Obligation(
            obl.context + reflect_binders(binders) + (fact(pbody),), obl.goal
        )
        node = Derivation("pick", obl, output, spath, children=(sub,), span=token.pos)
        return StepOutcome(output, node)


# ---------------------------------------------------------------------------
# Public entry points


def check_claim(
    proof: Proof,
    obligation: Obligation,
    *,
    collect_errors: bool = False,
    local_defs_usable: bool = True,
) -> Derivation:
    """Check a proof against an obligation, producing its derivation.

    Raises MeaninglessError at the first non-matching step unless
    collect_errors is set, in which case error nodes are embedded and
    checking continues with unrefined obligations.
    """
    checker = _Checker(local_defs_usable)
    derivation = checker.check(proof, obligation, ())
    if not collect_errors:
        errors = derivation_errors(derivation)
        if errors:
            first = errors[0]
            raise MeaninglessError(first.message, first.path, first.obligation)
    return derivation


def transform_step(
    token: BeginStepToken,
    body: ProofStep,
    obligation: Obligation,
    *,
    local_defs_usable: bool = True,
) -> StepOutcome:
    """Apply one proof step to an obligation; the outcome carries the output
    obligation and the transformation's derivation node."""
    checker = _Checker(local_defs_usable)
    return checker.transform(token, body, obligation, ())


def theorem_obligation(thm: Theorem) -> Obligation:
    return goal_form_obligation(thm.goal_form, set())


def check_theorem(thm: Theorem, *, local_defs_usable: bool = True) -> CheckedTheorem:
    """Check a theorem's proof against its root obligation.

    The root obligation must be closed; steps of the top-level sequence do
    not receive the hidden negated goal.
    """
    root = theorem_obligation(thm)
    check_well_formed(root)
    checker = _Checker(local_defs_usable)
    derivation = checker.check(thm.proof, root, (), suppress_neg=True)
    records = tuple(leaf_obligations(derivation))
    errors = tuple(derivation_errors(derivation))
    return CheckedTheorem(
        thm, root, derivation, records, errors, tuple(checker.warnings)
    )
