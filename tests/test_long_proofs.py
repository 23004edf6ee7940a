"""Long generated proofs: pinned output bytes, and preparation that grows
linearly with the number of steps of a flat proof.

The proofs are generated here, not read from ``tests/data``: the benchmark's
``corpus`` workload reads that directory whole.
"""

import hashlib

import pytest

from proofmgr import meta
from proofmgr.cli import main


def flat_proof(n: int) -> str:
    """n steps ``<1>k. Pk => Pk`` under ``NEW P0 ... NEW Pn``, then QED: each
    leaf's context extends the one before it."""
    news = ", ".join(f"NEW P{k}" for k in range(n + 1))
    lines = [f"THEOREM Flat == ASSUME {news} PROVE TRUE"]
    for k in range(1, n + 1):
        lines += [f"<1>{k}. P{k} => P{k}", "  OBVIOUS"]
    lines += [f"<1>{n + 1}. QED", "  OBVIOUS"]
    return "\n".join(lines) + "\n"


def structured_proof(n: int) -> str:
    """n level-1 steps, each with a local DEFINE, USE and HIDE of a fact and
    a definition, a CASE split and BY ... DEF citing earlier steps."""
    lines = [
        "THEOREM Long == ASSUME NEW S, NEW T, NEW P, NEW Q,",
        "    S \\subseteq T, \\A x \\in S : P(x)",
        "    PROVE \\A x \\in S : P(x) \\/ Q(x)",
    ]
    for i in range(1, n + 1):
        cite = f", <1>{i - 1}" if i > 1 else ""
        lines += [
            f"<1>{i}. ASSUME NEW a{i} \\in S PROVE P(a{i}) \\/ Q(a{i})",
            f"  <2>1. DEFINE D{i}(y) == y \\in S /\\ P(y)",
            f"  <2>2. D{i}(a{i})",
            f"        BY DEF D{i}",
            "  <2>3. USE <2>2",
            f"  <2>4. HIDE <2>2 DEF D{i}",
            f"  <2>5. CASE Q(a{i})",
            f"        BY <2>2 DEF D{i}",
            f"  <2>6. CASE ~Q(a{i})",
            f"        BY <2>2{cite} DEF D{i}",
            "  <2>7. QED BY <2>5, <2>6",
        ]
    lines.append(f"<1>{n + 1}. QED BY <1>{n}")
    return "\n".join(lines) + "\n"


PROOFS = {"flat60": flat_proof(60), "structured12": structured_proof(12)}
OPTIONS = {
    "json": ["--prove", "--format", "json"],
    "text": ["--prove"],
    "list": ["--list-obligations"],
    "raw-filtered": ["--raw-filtered", "--format", "json"],
    "embeddings": [],
}
# sha256 of each output: the report on standard output, or the file that
# --emit-embeddings writes
DIGESTS = {
    ("flat60", "json"): "2fb2ad623e2513736208dbad6de5299eff1bd72abdd46b7de08f87ebb0b10c8e",
    ("flat60", "text"): "dfe7647d2500866b27facd0d3290015f78d4d50615eb42c24c7f3277fb2fa25e",
    ("flat60", "list"): "a65639ee2c136d6fed733296174c3386921eb87926cd505f34c8008d797834ae",
    ("flat60", "raw-filtered"): "99f5bff8f0d0d7350f29ccdf0f4202e43b7cf3a95365a6aacd1b27f9eb3fdd28",
    ("flat60", "embeddings"): "448dd207209da8fd746923a83cdbd5e9f61f9422496f53f9ee2fea4f1ed1c669",
    ("structured12", "json"): "02c749c4d5f62a545bfa32de3716b88f71b88b86120e17541c0c59c8fca3a92a",
    ("structured12", "text"): "5ba4aa5e72afcae7014d7b5d1e4b76857809947d36de7b17d0ed257d0d2f0fbe",
    ("structured12", "list"): "d8873a2c08954df18b43e675dbdf69eed9fd7cd11d5e3ab5c0ad11efa6ae4baa",
    ("structured12", "raw-filtered"): "b50eb8841b49974f41dc021a5ca829c440f37bab7aedf03e17bb8b6cbda52ddd",
    ("structured12", "embeddings"): "6b47bda8e52e005976dba292ba5cbc7fbcfd45b291c8d3c89cd287a2b9332571",
}


@pytest.mark.parametrize("proof, option", sorted(DIGESTS))
def test_output_bytes_are_pinned(capsys, tmp_path, proof, option):
    path = tmp_path / f"{proof}.tla"
    path.write_text(PROOFS[proof], encoding="utf-8")
    argv = ["check", *OPTIONS[option], str(path)]
    embeddings = tmp_path / "embeddings.txt"
    if option == "embeddings":
        argv += ["--emit-embeddings", str(embeddings)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = embeddings.read_bytes() if option == "embeddings" else captured.out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[proof, option]


def test_flat_proof_preparation_grows_linearly(capsys, tmp_path, monkeypatch):
    """Each context item goes through the per-item steps of preparation
    (filtering and expansion) once per prefix, not once per leaf: the
    leaves of a flat proof extend one context, so doubling its steps about
    doubles the steps taken, where a walk over each leaf's whole context
    would take about four times as many."""
    calls = [0]

    def counted(step):
        def step_counted(*args):
            calls[0] += 1
            return step(*args)

        return step_counted

    for name in ("_filtered", "_expanded"):
        monkeypatch.setattr(meta, name, counted(getattr(meta, name)))
    counts = {}
    for n in (500, 1000):
        path = tmp_path / f"flat{n}.tla"
        path.write_text(flat_proof(n), encoding="utf-8")
        calls[0] = 0
        assert main(["check", "--list-obligations", str(path)]) == 0
        capsys.readouterr()
        counts[n] = calls[0]
    assert counts[500] > 1000
    assert counts[1000] / counts[500] <= 2.2
