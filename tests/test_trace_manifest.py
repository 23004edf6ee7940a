"""Pinned prover traces: the search order over the committed corpus.

``data/corpus_traces.sha256`` holds one ``file:leaf-path sha256`` line per
non-omitted leaf of ``tests/data/**/*.tla``, in file and derivation order
(a step with several leaves has a line for each): the digest of the trace
the prover gives the leaf with the default budget.  Any change to the order in
which the search tries rules, entries or unifiers changes some trace and
fails this test.  When such a change is intended, regenerate the manifest
from the repository root and review the diff:

    PYTHONPATH=src:tests python -c "import test_trace_manifest as t; print(t.manifest(), end='')" > tests/data/corpus_traces.sha256
"""

import hashlib
from pathlib import Path

from proofmgr.engine import check_theorem
from proofmgr.parser import parse_theorem
from proofmgr.prover import Proved, prove, sequent_from_obligation
from proofmgr.report import prepared_obligation

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "corpus_traces.sha256"


def manifest() -> str:
    """The manifest's text for the prover as it is now."""
    lines = []
    for path in sorted(DATA.glob("**/*.tla")):
        checked = check_theorem(parse_theorem(path.read_text(encoding="utf-8")))
        for record in checked.records:
            if record.omitted:
                continue
            leaf = f"{path.relative_to(DATA).as_posix()}:{'.'.join(record.path) or '(root)'}"
            outcome = prove(sequent_from_obligation(prepared_obligation(record)))
            digest = (
                hashlib.sha256(outcome.trace.encode("utf-8")).hexdigest()
                if isinstance(outcome, Proved)
                else f"not-proved:{type(outcome).__name__}"
            )
            lines.append(f"{leaf} {digest}\n")
    return "".join(lines)


def test_corpus_traces_match_the_manifest():
    want = MANIFEST.read_text(encoding="utf-8").splitlines()
    got = manifest().splitlines()
    assert got == want
