"""Serialization of check/prove results for humans and machines.

The JSON document has stable field names: ``theorem``, ``status``,
``leaves``, and ``errors``; each leaf carries ``id``, ``path``, ``kind``,
``omitted``, ``obligation`` (raw), ``filtered`` (after filtration and, by
default, usable-definition expansion), ``embedding``, ``outcome`` and
``millis``.  Timing is null unless explicitly requested, keeping output
byte-identical across runs.  Each distinct assumption of a file's leaves is
rendered and embedded once, through memos freed when the report is built.
The text report and the listing print only ``filtered``, so the CLI builds
a leaf's raw ``obligation`` and ``embedding`` only for JSON.

Status values: PROVED (complete, meaningful, every leaf proved), INCOMPLETE
(omitted leaves exist, all others proved; also used when a path selection
skipped leaves), FAILED (some attempted leaf not proved), MEANINGLESS (a step
did not match any rule), and CHECKED (structure-only run, nothing attempted).
"""

from __future__ import annotations

import json
from typing import Iterator, Optional, Sequence

from .engine import CheckedTheorem, LeafObligationRecord
from .meta import Obligation, _embed, expand_all_usable, filter_obligation, render_obligation
from .syntax import Node

STATUSES = ("PROVED", "INCOMPLETE", "FAILED", "MEANINGLESS", "CHECKED")


class LeafEntry(Node):
    # outcome: proved | unknown | malformed | None (not attempted)
    __slots__ = (
        "id", "path", "kind", "omitted", "obligation", "filtered", "embedding", "outcome", "millis"
    )


class ErrorEntry(Node):
    __slots__ = ("path", "message")


class ObligationReport(Node):
    __slots__ = ("theorem", "status", "leaves", "errors")
    _defaults = {"errors": ()}


def _fields_of(record: Node) -> dict:
    return {f: getattr(record, f) for f in record._fields}


def prepared_obligation(
    record: LeafObligationRecord, expand: bool = True, table: Optional[dict] = None
) -> Obligation:
    """The prover-facing form of a leaf: filtered, optionally expanded.
    table is the one kept across a file's leaves: the state after each
    context prefix they share and each expanded assumption (see
    ``expand_all_usable``)."""
    filtered = filter_obligation(record.obligation, table)
    return expand_all_usable(filtered, table) if expand else filtered


def build_report(
    name: Optional[str],
    checked: CheckedTheorem,
    outcomes: Optional[dict[int, tuple[str, Optional[float]]]],
    shown: Optional[Sequence[Obligation]] = None,
    full: bool = True,
) -> ObligationReport:
    """Assemble the report; outcomes maps leaf index to (outcome, millis),
    None meaning a structure-only run.  shown holds the obligation each
    leaf shows as ``filtered`` and embeds; when it is not given, each
    record's prepared_obligation, made through one table.  Without full, a
    leaf's raw obligation and embedding, which only the JSON format prints,
    are None.  Each distinct assumption is rendered and embedded once,
    through memos that live only while the report is built; a checked
    theorem's leaves are well-formed, so an embedding is not checked
    again."""
    if shown is None:
        table: dict = {}
        shown = [prepared_obligation(r, table=table) for r in checked.records]
        del table
    rendered: dict = {}
    embedded: dict = {}
    leaves = []
    for idx, record in enumerate(checked.records):
        outcome, millis = (None, None)
        if outcomes is not None and idx in outcomes:
            outcome, millis = outcomes[idx]
        leaves.append(
            LeafEntry(
                id=idx,
                path=".".join(record.path),
                kind=record.kind,
                omitted=record.omitted,
                obligation=render_obligation(record.obligation, rendered) if full else None,
                filtered=render_obligation(shown[idx], rendered),
                embedding=_embed(shown[idx], embedded) if full else None,
                outcome=outcome,
                millis=millis,
            )
        )
    errors = tuple(
        ErrorEntry(".".join(e.path), e.message) for e in checked.errors
    )
    status = compute_status(leaves, bool(errors), attempted=outcomes is not None)
    return ObligationReport(name, status, tuple(leaves), errors)


def compute_status(
    leaves: list[LeafEntry], has_errors: bool, attempted: bool
) -> str:
    if has_errors:
        return "MEANINGLESS"
    omitted = any(l.omitted for l in leaves)
    if not attempted:
        return "INCOMPLETE" if omitted else "CHECKED"
    live = [l for l in leaves if not l.omitted]
    if any(l.outcome not in ("proved", None) for l in live):
        return "FAILED"
    skipped = any(l.outcome is None for l in live)
    if omitted or skipped:
        return "INCOMPLETE"
    return "PROVED"


def write_report(report: ObligationReport, fmt: str = "json") -> str:
    return "".join(report_chunks(report, fmt))


def report_chunks(report: ObligationReport, fmt: str = "json") -> Iterator[str]:
    """The report's text in pieces, made as they are asked for, so that a
    writer need not hold the whole JSON text (the largest object of a run)."""
    if fmt == "json":
        document = _fields_of(report)
        document["leaves"] = [_fields_of(leaf) for leaf in report.leaves]
        document["errors"] = [_fields_of(error) for error in report.errors]
        yield from json.JSONEncoder(indent=2).iterencode(document)
        yield "\n"
        return
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"theorem {report.theorem or '(unnamed)'}: {report.status}"]
    for leaf in sorted(report.leaves, key=lambda l: _path_key(l.path)):
        mark = "omitted" if leaf.omitted else (leaf.outcome or "-")
        timing = f" {leaf.millis:.0f}ms" if leaf.millis is not None else ""
        lines.append(f"  [{leaf.id}] {leaf.path or '(root)'} {leaf.kind}: {mark}{timing}")
        lines.append(f"      {leaf.filtered}")
    for err in report.errors:
        lines.append(f"  error at {err.path}: {err.message}")
    yield "\n".join(lines) + "\n"


def _path_key(path: str):
    key = []
    for part in path.split(".") if path else []:
        level, _, label = part.lstrip("<").partition(">")
        key.append((int(level), label))
    return key


def write_embeddings(shown: Sequence[Obligation]) -> str:
    """One embedding per line, in the order given: the report's
    ``embedding`` of each leaf shown.  Each distinct assumption is embedded
    once, through one memo, and nothing is checked again."""
    embedded: dict = {}
    return "".join(_embed(o, embedded) + "\n" for o in shown)
