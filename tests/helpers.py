"""Deterministic random generators and independent oracles for the tests."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from proofmgr.engine import check_theorem
from proofmgr.meta import (
    Def,
    Fact,
    Lambda,
    New,
    Obligation,
    fact,
)
from proofmgr.parser import (
    AssertStep,
    BeginStepToken,
    By,
    CaseStep,
    GoalForm,
    NonLeaf,
    Obvious,
    Omitted,
    QedStep,
    Step,
    parse_theorem,
)
from proofmgr.prover import Sequent
from proofmgr.report import ErrorEntry, LeafEntry, ObligationReport
from proofmgr.syntax import (
    And,
    Binder,
    Bool,
    Eq,
    Expr,
    FnApp,
    Ident,
    Iff,
    Implies,
    In,
    Ne,
    Neg,
    NotIn,
    OpApp,
    Or,
    PowerSet,
    Quant,
    SetComp,
    Subseteq,
    _alpha,
)

DATA = Path(__file__).parent / "data"


def rejection(text: str) -> tuple[str, str]:
    """(step path, message) of the one error of a checked theorem."""
    (err,) = check_theorem(parse_theorem(text)).errors
    return ".".join(err.path), err.message


def cantor_text() -> str:
    return (DATA / "cantor.tla").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Random expressions


def rand_expr(rng: random.Random, scope: list[str], depth: int = 3) -> Expr:
    """A formula whose free identifiers all come from scope."""
    if depth <= 0 or (scope and rng.random() < 0.25):
        return rand_atom(rng, scope)
    kind = rng.randrange(8)
    if kind == 0:
        return Neg(rand_expr(rng, scope, depth - 1))
    if kind == 1:
        return And(rand_expr(rng, scope, depth - 1), rand_expr(rng, scope, depth - 1))
    if kind == 2:
        return Or(rand_expr(rng, scope, depth - 1), rand_expr(rng, scope, depth - 1))
    if kind == 3:
        return Implies(rand_expr(rng, scope, depth - 1), rand_expr(rng, scope, depth - 1))
    if kind == 4:
        return Iff(rand_expr(rng, scope, depth - 1), rand_expr(rng, scope, depth - 1))
    if kind == 5:
        var = f"v{rng.randrange(4)}"
        quant = rng.choice(["forall", "exists"])
        binder = (
            Binder(var)
            if not scope or rng.random() < 0.5
            else Binder(var, rand_term(rng, scope, 1))
        )
        return Quant(quant, (binder,), rand_expr(rng, scope + [var], depth - 1))
    if kind == 6 and scope:
        op = rng.choice([Eq, Ne, In, NotIn, Subseteq])
        return op(rand_term(rng, scope, depth - 1), rand_term(rng, scope, depth - 1))
    return rand_atom(rng, scope)


def rand_atom(rng: random.Random, scope: list[str]) -> Expr:
    if not scope or rng.random() < 0.15:
        return Bool(rng.random() < 0.5)
    name = rng.choice(scope)
    if rng.random() < 0.25:
        args = tuple(rand_term(rng, scope, 0) for _ in range(rng.randrange(1, 3)))
        return OpApp(name, args)
    return Ident(name)


def rand_term(rng: random.Random, scope: list[str], depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.5:
        return Ident(rng.choice(scope)) if scope else Bool(True)
    kind = rng.randrange(4)
    if kind == 0:
        return PowerSet(rand_term(rng, scope, depth - 1))
    if kind == 1:
        return FnApp(rand_term(rng, scope, 0), rand_term(rng, scope, 0))
    if kind == 2:
        var = f"w{rng.randrange(3)}"
        return SetComp(var, rand_term(rng, scope, 0), rand_expr(rng, scope + [var], 1))
    return Ident(rng.choice(scope)) if scope else Bool(False)


# ---------------------------------------------------------------------------
# Random closed obligations and contexts


def rand_obligation(rng: random.Random, size: int = 4) -> Obligation:
    ctx: list = []
    scope: list[str] = []
    fresh = itertools.count()
    for _ in range(rng.randrange(size + 1)):
        kind = rng.randrange(4)
        if kind == 0 or not scope:
            name = f"c{next(fresh)}"
            ctx.append(New(name))
            scope.append(name)
        elif kind == 1:
            name = f"d{next(fresh)}"
            hidden = rng.random() < 0.5
            if rng.random() < 0.3:
                params = tuple(f"p{k}" for k in range(rng.randrange(1, 3)))
                body = rand_expr(rng, scope + list(params), 2)
                ctx.append(Def(name, Lambda(params, body), hidden))
            else:
                ctx.append(Def(name, rand_nested_obligation(rng, scope), hidden))
            scope.append(name)
        else:
            hidden = rng.random() < 0.5
            ctx.append(Fact(rand_nested_obligation(rng, scope), hidden))
    return Obligation(tuple(ctx), rand_expr(rng, scope, 3))


def rand_nested_obligation(rng: random.Random, scope: list[str]) -> Obligation:
    inner: list = []
    local = list(scope)
    for k in range(rng.randrange(3)):
        if rng.random() < 0.6:
            name = f"x{k}"
            if name not in local:
                inner.append(New(name))
                local.append(name)
        else:
            inner.append(fact(rand_expr(rng, local, 2)))
    return Obligation(tuple(inner), rand_expr(rng, local, 2))


# ---------------------------------------------------------------------------
# Random well-formed proofs


def rand_wellformed_proof(rng: random.Random, level: int = 1, depth: int = 3) -> NonLeaf:
    """A non-leaf proof whose every sequence has at least two steps, so any
    single-token level change breaks the equal-levels constraint."""
    n = rng.randrange(1, 4)
    steps = []
    for k in range(n):
        token = BeginStepToken(level, str(k + 1))
        body = AssertStep(GoalForm((), Bool(True)), _rand_subproof(rng, level, depth))
        steps.append(Step(token, body))
    qed = Step(
        BeginStepToken(level, str(n + 1)), QedStep(_rand_subproof(rng, level, depth))
    )
    steps.append(qed)
    return NonLeaf(tuple(steps))


def _rand_subproof(rng: random.Random, level: int, depth: int):
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice([Obvious(), Omitted(), By((Bool(True),), ())])
    return rand_wellformed_proof(rng, level + rng.randrange(1, 3), depth - 1)


# ---------------------------------------------------------------------------
# Propositional sequents and the truth-table oracle

_PROP_ATOMS = ["P", "Q", "R", "W"]


def rand_prop_expr(rng: random.Random, depth: int = 3) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        return Ident(rng.choice(_PROP_ATOMS))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(rand_prop_expr(rng, depth - 1))
    ctor = [And, Or, Implies, Iff][kind - 1]
    return ctor(rand_prop_expr(rng, depth - 1), rand_prop_expr(rng, depth - 1))


def rand_prop_sequent(rng: random.Random) -> Sequent:
    hyps = tuple(rand_prop_expr(rng, 3) for _ in range(rng.randrange(3)))
    return Sequent(tuple(_PROP_ATOMS), hyps, rand_prop_expr(rng, 3))


def eval_prop(e: Expr, env: dict[str, bool]) -> bool:
    match e:
        case Ident(name):
            return env[name]
        case Bool(v):
            return v
        case Neg(a):
            return not eval_prop(a, env)
        case And(a, b):
            return eval_prop(a, env) and eval_prop(b, env)
        case Or(a, b):
            return eval_prop(a, env) or eval_prop(b, env)
        case Implies(a, b):
            return (not eval_prop(a, env)) or eval_prop(b, env)
        case Iff(a, b):
            return eval_prop(a, env) == eval_prop(b, env)
    raise TypeError(type(e).__name__)


def truth_table_valid(seq: Sequent) -> bool:
    """Brute-force validity: every assignment satisfying the hypotheses
    satisfies the goal."""
    atoms = sorted(
        set().union(*(_prop_atoms(h) for h in (*seq.hypotheses, seq.goal)))
    )
    for bits in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        if all(eval_prop(h, env) for h in seq.hypotheses) and not eval_prop(
            seq.goal, env
        ):
            return False
    return True


def _prop_atoms(e: Expr) -> set[str]:
    match e:
        case Ident(name):
            return {name}
        case Bool():
            return set()
        case Neg(a):
            return _prop_atoms(a)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return _prop_atoms(a) | _prop_atoms(b)
    raise TypeError(type(e).__name__)


def read_report(text: str) -> ObligationReport:
    """A JSON report read back into its records."""
    raw = json.loads(text)
    leaves = tuple(LeafEntry(**leaf) for leaf in raw["leaves"])
    errors = tuple(ErrorEntry(**err) for err in raw.get("errors", []))
    return ObligationReport(raw["theorem"], raw["status"], leaves, errors)


def alpha_equal_obligation(a: Obligation, b: Obligation) -> bool:
    """a and b are one obligation up to a renaming of the names they bind."""
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
