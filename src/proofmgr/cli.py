"""Command-line front end: parse, check, filter, prove, report.

    proofmgr check FILE [FILE ...] [options]

Exit codes: 0 the theorem is PROVED (or CHECKED in a structure-only run),
1 INCOMPLETE, 2 FAILED (some leaf not proved), 3 MEANINGLESS, a parse
error (a file that is not UTF-8 included) or an ill-formed theorem, 4
internal or I/O error.  With several files the worst exit code wins.

The run reads its options from the parsed arguments (``build_arg_parser``);
the budget's defaults are ``Budget()``'s.  ``--list-obligations`` stops
before the prover, with ``--prove`` too: nothing is proved and no trace is
written, and the exit code is that of the listing.

Leaves are proved one after another in derivation order, so output is
byte-identical for a fixed configuration.  Each obligation is proved once
per run up to a renaming of its names: ``prove`` memoises the search, each
run starts with the prover's stores empty (``reset``), and a leaf that is
one already searched in the run, its names renamed, gets the stored
outcome, proved or exhausted, with the names mapped over.  ``prove`` gives
a proof only once its trace has replayed against the leaf's own entries,
reused outcomes included; a trace that does not replay makes the leaf
``unknown``, and standard error names it with the replay's first failure.

A file's leaves are prepared (filtered and expanded) through one table: it
keeps each expanded assumption and the state after each context prefix the
leaves share, so that a leaf walks only the items it adds.  The report
and the embeddings show each leaf's prepared obligation, or with
``--raw-filtered`` its filtered one, made through the same table.  The
derivation is freed once the file is checked, the table once its leaves
are prepared, and all but the file's report before its text is rendered,
where memory peaks; the text is written out before the next file is
checked.  An output
path that cannot be written is an I/O error (exit 4, the path and the
error on standard error); with ``--emit-traces``, the run goes on with the
next file.

With several files, ``--emit-traces DIR`` writes each file's traces to its
own subdirectory ``DIR/<position>-<stem>`` (position from 0 in the argument
list), and ``--emit-embeddings PATH`` holds every file's embeddings in file
order.  DIR is made only when a trace is written.

``main`` returns the exit code to its caller.  A process (the installed
``proofmgr`` script, or ``python -m proofmgr.cli``) runs ``console``: it
flushes standard output and standard error once ``main`` returns and ends
with ``os._exit``, without the interpreter's teardown (its final
collection, and the freeing of every term and memo one by one), which a
short run would otherwise pay at every start; ``atexit`` hooks do not run.
A standard output that cannot be written, in the run or at that flush, is
an I/O error: ``<stdout>: <error>`` on standard error, exit 4.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext, suppress
from pathlib import Path
from time import perf_counter
from typing import Optional, Union

from .engine import CheckedTheorem, check_theorem
from .meta import MetaError
from .parser import ParseError, parse_theorem
from .prover import (
    Budget,
    Malformed,
    Proved,
    Unknown,
    prove,
    reset,
    sequent_from_obligation,
)
from .report import build_report, prepared_obligation, report_chunks, write_embeddings
from .report import write_report  # noqa: F401 - bench/traced.py wraps cli.write_report

EXIT_BY_STATUS = {
    "PROVED": 0,
    "CHECKED": 0,
    "INCOMPLETE": 1,
    "FAILED": 2,
    "MEANINGLESS": 3,
}


def _prove_leaf(sequent, budget: Budget):
    """(outcome, millis, trace if proved, replay failure) of one leaf."""
    start = perf_counter()
    outcome = prove(sequent, budget)
    millis = (perf_counter() - start) * 1000.0
    match outcome:
        case Proved(trace):
            return "proved", millis, trace, None
        case Unknown(reason, _):
            failure = reason if reason.startswith("trace does not replay") else None
            return "unknown", millis, None, failure
        case Malformed(reason):
            return "malformed", millis, None, None
    raise AssertionError


def _selected(path: str, only: Optional[str]) -> bool:
    if only is None:
        return True
    return path == only or path.startswith(only + ".") or path.startswith(only + "<")


def check_file(
    path: str, args: argparse.Namespace, write, trace_dir: Optional[Path] = None
) -> tuple[int, Optional[str]]:
    """Check (and prove) one file under the parsed options: (exit code,
    embeddings text).  The report text goes to write, piece by piece as it
    is rendered, and proved traces to trace_dir, when given; the embeddings
    text is rendered only when args.emit_embeddings is set, and the caller
    writes it.

    A run's memory peaks while the report is rendered.  All else made for
    the file (the checked theorem, the prepared obligations and the table
    their leaves share) is local to ``_report``, and freed before."""
    built = _report(path, args, trace_dir)
    if isinstance(built, int):
        return built, None
    report, embeddings = built
    if args.list_obligations:
        for leaf in report.leaves:
            flag = " (omitted)" if leaf.omitted else ""
            write(f"[{leaf.id}] {leaf.path or '(root)'} {leaf.kind}{flag}\n    {leaf.filtered}\n")
        for err in report.errors:
            write(f"error at {err.path}: {err.message}\n")
    else:
        for chunk in report_chunks(report, args.format):
            write(chunk)
    return EXIT_BY_STATUS[report.status], embeddings


def _report(path: str, args: argparse.Namespace, trace_dir: Optional[Path]) -> Union[int, tuple]:
    """The report of one file and its embeddings text; the exit code instead
    when the file cannot be read, parsed or checked (the error printed)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        print(f"{path}: {err}", file=sys.stderr)
        return 4
    except UnicodeDecodeError as err:
        # the bytes before the first bad one decode; its line and column
        # are counted as the parser counts them, in the text as read
        before = err.object[: err.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        print(f"{path}: parse error: {line}:{col}: not valid UTF-8", file=sys.stderr)
        return 3
    try:
        theorem = parse_theorem(text)
        checked = check_theorem(theorem, local_defs_usable=not args.local_defs_hidden)
    except ParseError as err:
        print(f"{path}: parse error: {err}", file=sys.stderr)
        return 3
    except MetaError as err:
        print(f"{path}: ill-formed theorem: {err}", file=sys.stderr)
        return 3

    for warning in checked.warnings:
        print(f"{path}: warning: {warning}", file=sys.stderr)
    # only the leaves and the errors are reported: the derivation, which
    # holds every step's obligations, is freed before the leaves are prepared
    checked = CheckedTheorem(
        theorem, checked.root, None, checked.records, checked.errors, checked.warnings
    )

    # the prover, the report and the embeddings share one prepared
    # obligation per leaf, and the leaves one table (prepared_obligation),
    # which is freed once they are prepared; with --raw-filtered the report
    # and the embeddings show the filtered obligation instead, made through
    # the same table, where the filter's prefix states already sit
    prepared = []
    shown = [] if args.raw_filtered else prepared
    table: dict = {}
    for record in checked.records:
        try:
            prepared.append(prepared_obligation(record, table=table))
        except MetaError as err:
            leaf = ".".join(record.path) or "(root)"
            at = f" at {record.span}" if record.span else ""
            print(f"{path}: ill-formed theorem: leaf {leaf}{at}: {err}", file=sys.stderr)
            return 3
        if args.raw_filtered:
            shown.append(prepared_obligation(record, False, table))
    del table
    # a listing stops before the prover, with or without --prove
    proving = args.prove and not args.list_obligations
    outcomes: Optional[dict[int, tuple[str, Optional[float]]]] = {} if proving else None
    traces: dict[int, str] = {}
    if proving and checked.meaningful:
        budget = Budget(args.depth, args.timeout_ms, args.gamma_reuse)
        for idx, record in enumerate(checked.records):
            if record.omitted or not _selected(".".join(record.path), args.only):
                continue
            sequent = sequent_from_obligation(prepared[idx])
            outcome, millis, trace, failure = _prove_leaf(sequent, budget)
            outcomes[idx] = (outcome, millis if args.timings else None)
            if trace is not None and trace_dir:
                traces[idx] = trace
            if failure is not None:
                leaf = ".".join(record.path) or "(root)"
                print(f"{path}: leaf {leaf}: {failure}", file=sys.stderr)

    report = build_report(
        theorem.name,
        checked,
        outcomes,
        shown,
        full=args.format == "json" and not args.list_obligations,
    )

    if traces:
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
            for idx, trace in traces.items():
                (trace_dir / f"leaf-{idx}.trace").write_text(trace, encoding="utf-8")
        except OSError as err:
            print(f"{trace_dir}: {err}", file=sys.stderr)
            return 4
    embeddings = write_embeddings(shown) if args.emit_embeddings else None
    return report, embeddings


def run(args: argparse.Namespace) -> int:
    # the prover's stores live as long as the process; a run starts them
    # empty, so that each run searches its own obligations
    reset()
    embedded: list[str] = []
    code = 0
    # each file's report is written once the file is checked, chunk by
    # chunk, so that no more than a chunk of its text is held; check_file
    # handles its own files' errors, so an OSError here is the report's
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            for position, path in enumerate(args.paths):
                trace_dir = Path(args.emit_traces) if args.emit_traces else None
                if trace_dir and len(args.paths) > 1:
                    trace_dir = trace_dir / f"{position}-{Path(path).stem}"
                file_code, embeddings = check_file(path, args, out.write, trace_dir)
                code = max(code, file_code)
                if embeddings is not None:
                    embedded.append(embeddings)
    except OSError as err:
        print(f"{args.out or '<stdout>'}: {err}", file=sys.stderr)
        return 4
    if embedded:
        try:
            Path(args.emit_embeddings).write_text("".join(embedded), encoding="utf-8")
        except OSError as err:
            print(f"{args.emit_embeddings}: {err}", file=sys.stderr)
            return 4
    return code


def _positive(text: str) -> int:
    """A budget option's value: a positive integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {text!r}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofmgr",
        description="Check hierarchical proofs and discharge their obligations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="check proof files")
    check.add_argument("paths", nargs="+", metavar="FILE")
    check.add_argument("--prove", action="store_true", help="run the prover on every leaf")
    check.add_argument(
        "--list-obligations", action="store_true", help="list leaf obligations and stop"
    )
    check.add_argument("--emit-embeddings", metavar="PATH", help="write one embedding per leaf")
    check.add_argument("--emit-traces", metavar="DIR", help="write prover traces (with --prove)")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    budget = Budget()
    check.add_argument("--timeout-ms", type=_positive, default=budget.timeout_ms)
    check.add_argument(
        "--depth", type=_positive, default=budget.max_depth, help="most first-order steps on a branch"
    )
    check.add_argument("--gamma-reuse", type=_positive, default=budget.gamma_reuse)
    check.add_argument(
        "--local-defs-hidden",
        action="store_true",
        help="keep proof-local definitions hidden instead of usable",
    )
    check.add_argument("--only", metavar="PATH-PREFIX", help="prove only leaves under this step path")
    check.add_argument(
        "--raw-filtered",
        action="store_true",
        help="show filtered obligations without expanding usable definitions",
    )
    check.add_argument("--timings", action="store_true", help="include per-leaf timings")
    return parser


def _same_file(a: str, b: str) -> bool:
    """a and b are one file, or name one path when either does not exist."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.abspath(a) == os.path.abspath(b)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    # an output that is an input would be truncated before it is read, or
    # overwritten after; two outputs in one file would overwrite each other
    for option, target in (("--out", args.out), ("--emit-embeddings", args.emit_embeddings)):
        if target and any(_same_file(target, path) for path in args.paths):
            parser.error(f"{option} {target} is also an input file")
    if args.out and args.emit_embeddings and _same_file(args.out, args.emit_embeddings):
        parser.error("--out and --emit-embeddings name the same file")
    try:
        return run(args)
    except Exception as err:  # noqa: BLE001 - the contract maps crashes to exit 4
        print(f"internal error: {err}", file=sys.stderr)
        return 4


def console() -> None:
    """End the process with main's exit code, once standard output and
    standard error are flushed, and without the interpreter's teardown.

    A standard output that cannot be flushed is an I/O error (exit 4).  A
    usage error leaves through argparse's SystemExit, as it does from main."""
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as err:
            # not reported again after exit 4: a write that failed in run
            # was reported there, and what it left buffered fails again
            if code != 4:
                with suppress(OSError):
                    print(f"<stdout>: {err}", file=sys.stderr)
            code = 4
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console()
