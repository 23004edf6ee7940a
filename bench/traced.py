"""One traced, in-process run of ``proofmgr check --prove --format json``.

    python3 bench/traced.py SRC_DIR SPANS_JSON FILE [FILE ...]

Imports proofmgr from SRC_DIR, wraps the public functions the CLI calls
(at the names the calling modules bound them to, so nothing under SRC_DIR
changes), runs ``proofmgr.cli.main`` with the CLI's default options and the
report on standard output, then replays every proved leaf's trace.  Spans
(name, start, end, parent, self time) and counts taken at the same call
boundaries stay in memory and are written to SPANS_JSON when the run ends.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if count is not None:
                count(self, span, args, result)
            return result

        return traced

    def records(self, origin: float) -> list[dict]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "self": (end - start) - child_time[i],
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def _count_tokens(t, span, args, tokens):
    t.add("tokens", len(tokens))


def _count_check(t, span, args, checked):
    t.add("leaves", len(checked.records))
    t.add("omitted", sum(1 for r in checked.records if r.omitted))


def _count_filter(t, span, args, out):
    t.add("assumptions_in", len(args[0].context))
    t.add("assumptions_kept", len(out.context))


def _count_write(t, span, args, text):
    t.add("report_bytes", len(text.encode("utf-8")))


def main(argv: list[str]) -> int:
    src, spans_path, files = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    from proofmgr import cli, parser, prover, report

    tracer = Tracer()
    proved: list[tuple] = []  # (sequent, trace) of every proved leaf
    leaf_ms: list[float] = []

    def count_prove(t, span, args, outcome):
        leaf_ms.append((span[2] - span[1]) * 1000.0)
        if isinstance(outcome, prover.Proved):
            t.add("proved", 1)
            t.add("trace_lines", outcome.trace.count("\n"))
            proved.append((args[0], outcome.trace))
        elif isinstance(outcome, prover.Unknown):
            t.add(outcome.reason, 1)  # "exhausted" or "timeout"
            t.add("unknown_expansions", outcome.stats.expansions)
        else:
            t.add("malformed", 1)

    parser.tokenize = tracer.wrap("tokenize", parser.tokenize, _count_tokens)
    cli.parse_theorem = tracer.wrap("parse_theorem", cli.parse_theorem)
    cli.check_theorem = tracer.wrap("check_theorem", cli.check_theorem, _count_check)
    report.filter_obligation = tracer.wrap(
        "filter_obligation", report.filter_obligation, _count_filter
    )
    report.expand_all_usable = tracer.wrap("expand_all_usable", report.expand_all_usable)
    cli.sequent_from_obligation = tracer.wrap(
        "sequent_from_obligation", cli.sequent_from_obligation
    )
    cli.prove = tracer.wrap("prove", cli.prove, count_prove)
    cli.build_report = tracer.wrap("build_report", cli.build_report)
    cli.write_report = tracer.wrap("write_report", cli.write_report, _count_write)
    replay = tracer.wrap(
        "replay_trace",
        prover.replay_trace,
        lambda t, span, args, result: t.add("replay_failed", 0 if result.ok else 1),
    )

    origin = perf_counter()
    code = cli.main(["check", "--prove", "--format", "json", *files])
    sys.stdout.flush()
    pipeline_s = perf_counter() - origin
    for sequent, trace in proved:
        replay(sequent, trace)
    wall_s = perf_counter() - origin

    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump(
            {
                "exit": code,
                "pipeline_s": pipeline_s,
                "wall_s": wall_s,
                "counts": tracer.counts,
                "leaf_ms": leaf_ms,
                "spans": tracer.records(origin),
            },
            out,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
