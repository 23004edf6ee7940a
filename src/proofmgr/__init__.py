"""Proof manager for a hierarchical declarative proof language over
first-order logic with set theory: parses structured proofs, generates
independent leaf proof obligations, filters hidden assumptions, and
discharges obligations with a built-in tableau prover."""

# prover first: the largest source is compiled while least else is loaded,
# which lowers the peak memory of a start that has no cached bytecode
from .prover import Budget, Sequent, check_trace, prove, sequent_from_obligation
from .engine import check_claim, check_theorem, leaf_obligations, transform_step
from .meta import Obligation, embed, filter_obligation
from .parser import parse_expression, parse_theorem

__all__ = [
    "Budget",
    "Obligation",
    "Sequent",
    "check_claim",
    "check_theorem",
    "check_trace",
    "embed",
    "filter_obligation",
    "leaf_obligations",
    "parse_expression",
    "parse_theorem",
    "prove",
    "sequent_from_obligation",
    "transform_step",
]
