"""Pinned reports: the bytes ``proofmgr check --prove --format json`` writes
for each committed corpus file.

``data/corpus_reports.sha256`` holds one ``file sha256`` line per file of
``tests/data/**/*.tla``, in file order: the digest of that file's report
with the default options.  Rendering, filtering and definition expansion
must not change a report byte; the prover's search order is pinned apart by
``test_trace_manifest.py``.  When a report change is intended, regenerate
the manifest from the repository root and review the diff:

    PYTHONPATH=src:tests python -c "import test_report_manifest as t; print(t.manifest(), end='')" > tests/data/corpus_reports.sha256
"""

import hashlib
from pathlib import Path

from proofmgr.cli import build_arg_parser, check_file

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "corpus_reports.sha256"


def report_bytes(path: Path) -> bytes:
    """The CLI's standard output for the one file, default options."""
    chunks: list[str] = []
    args = build_arg_parser().parse_args(["check", "--prove", "--format", "json", str(path)])
    check_file(str(path), args, chunks.append)
    return "".join(chunks).encode("utf-8")


def manifest() -> str:
    """The manifest's text for the program as it is now."""
    return "".join(
        f"{path.relative_to(DATA).as_posix()} {hashlib.sha256(report_bytes(path)).hexdigest()}\n"
        for path in sorted(DATA.glob("**/*.tla"))
    )


def test_corpus_reports_match_the_manifest():
    want = MANIFEST.read_text(encoding="utf-8").splitlines()
    got = manifest().splitlines()
    assert got == want
