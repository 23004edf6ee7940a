"""Workload inputs for the benchmark: the committed corpus and two seeded
generators.

Every workload is a list of ``ProofFile``s.  Each carries the text the CLI
reads and the known verdict of its leaves: ``valid`` (the leaf's sequent is
a theorem) or ``false`` (it has a countermodel).  The verdicts are written
by hand with the templates below, never taken from the program.

- ``corpus``: the committed ``tests/data/**/*.tla`` files.  They are correct
  proofs of true theorems, so every leaf is valid.
- ``structure``: a few long hierarchical proofs.  Each level-1 step is an
  ``ASSUME ... PROVE`` with a parameterised local ``DEFINE``, a ``CASE``
  split and a ``QED BY ... DEF`` citing earlier steps.  Every leaf is valid
  and proves in milliseconds, but each leaf's unfiltered context grows with
  the proof, so filtering, expansion and rendering dominate.
- ``wide``: many small files.  Each theorem's proof is a few independent
  ``ASSUME ... PROVE ... OBVIOUS`` steps drawn from ``TEMPLATES``.  Every
  template appears the same number of times for every seed; the seed picks
  names, order and grouping, so the amount of work does not depend on it.

The same seed gives the same bytes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

VALID = "valid"
FALSE = "false"


@dataclass(frozen=True)
class ProofFile:
    name: str  # file name, unique within a workload
    text: str
    theorem: str | None  # the THEOREM's name, None when it has none
    # Leaf path -> verdict; a leaf not named here is valid.
    verdicts: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Template:
    """One leaf shape for ``wide``.

    ``hyps`` and ``goal`` use ``{name}`` placeholders for every identifier
    the template declares, and ``names`` lists them.  ``prop`` says the
    template is propositional, so its verdict can be checked by truth table.
    """

    name: str
    verdict: str
    names: tuple[str, ...]
    hyps: tuple[str, ...]
    goal: str
    prop: bool = False
    note: str = ""


def _chain(n: int) -> tuple[tuple[str, ...], tuple[str, ...], str]:
    names = tuple(f"P{i}" for i in range(1, n + 1))
    hyps = ("{P1}",) + tuple(f"{{P{i}}} => {{P{i + 1}}}" for i in range(1, n))
    return names, hyps, f"{{P{n}}}"


_CHAIN6 = _chain(6)
_CHAIN14 = _chain(14)

# Verdicts are hand-checked.  Valid set-theory templates follow from the
# definitions of the constructs; every false one names its countermodel.
TEMPLATES: tuple[Template, ...] = (
    Template("func_apply", VALID, ("S", "T", "f", "c"),
             ("{f} \\in [{S} -> {T}]", "{c} \\in {S}"), "{f}[{c}] \\in {T}"),
    Template("subset_chain", VALID, ("A", "B", "C", "D", "c"),
             ("{A} \\subseteq {B}", "{B} \\subseteq {C}", "{C} \\subseteq {D}", "{c} \\in {A}"),
             "{c} \\in {D}"),
    Template("subset_trans", VALID, ("A", "B", "C"),
             ("{A} \\subseteq {B}", "{B} \\subseteq {C}"), "{A} \\subseteq {C}"),
    Template("comp_out", VALID, ("S", "P", "c"),
             ("{c} \\in {{x \\in {S} : {P}(x)}}",), "{c} \\in {S} /\\ {P}({c})"),
    Template("comp_in", VALID, ("S", "P", "c"),
             ("{c} \\in {S}", "{P}({c})"), "{c} \\in {{x \\in {S} : {P}(x)}}"),
    Template("image_member", VALID, ("S", "f", "c"),
             ("{c} \\in {S}",), "{f}[{c}] \\in {{{f}[x] : x \\in {S}}}"),
    Template("image_subset", VALID, ("S", "T", "f"),
             ("{f} \\in [{S} -> {T}]",), "{{{f}[x] : x \\in {S}}} \\subseteq {T}"),
    Template("inst_imp", VALID, ("S", "P", "Q", "c"),
             ("\\A x \\in {S} : {P}(x) => {Q}(x)", "{c} \\in {S}", "{P}({c})"), "{Q}({c})"),
    Template("inst_two", VALID, ("S", "R", "a", "b"),
             ("\\A x \\in {S} : \\A y \\in {S} : {R}(x, y)", "{a} \\in {S}", "{b} \\in {S}"),
             "{R}({b}, {a})"),
    Template("eq_chain", VALID, ("S", "P", "A", "B", "c"),
             ("{A} = {B}", "{B} = {{x \\in {S} : {P}(x)}}", "{c} \\in {A}"), "{P}({c})",
             note="proved, but its trace fails replay: search rewrites through the "
                  "whole congruence class, replay allows one equality hop"),
    Template("eq_sym", VALID, ("a", "b", "c"), ("{a} = {b}", "{b} = {c}"), "{c} = {a}"),
    Template("pow_member", VALID, ("S", "T"), ("{S} \\subseteq {T}",), "{S} \\in SUBSET {T}"),
    Template("imp_chain6", VALID, _CHAIN6[0], _CHAIN6[1], _CHAIN6[2], prop=True),
    Template("contrapose", VALID, ("P", "Q"), ("{P} => {Q}",), "~{Q} => ~{P}", prop=True),
    Template("distribute", VALID, ("P", "Q", "R"), ("{P} /\\ ({Q} \\/ {R})",),
             "({P} /\\ {Q}) \\/ ({P} /\\ {R})", prop=True),
    # Valid, but the prover runs out of depth (budget depth 12) on them.
    Template("pow_mono", VALID, ("S", "T"), ("{S} \\subseteq {T}",),
             "SUBSET {S} \\subseteq SUBSET {T}",
             note="valid; needs more depth than the default budget"),
    Template("imp_chain14", VALID, _CHAIN14[0], _CHAIN14[1], _CHAIN14[2], prop=True,
             note="valid; the chain is longer than the default depth"),
    # False: the prover must never prove these.
    Template("subset_converse", FALSE, ("A", "B"), ("{A} \\subseteq {B}",),
             "{B} \\subseteq {A}", note="A = {}, B = {1}"),
    Template("exists_to_all", FALSE, ("S", "P"), ("\\E x \\in {S} : {P}(x)",),
             "\\A x \\in {S} : {P}(x)", note="S = {1, 2}, P = {1}"),
    Template("func_range", FALSE, ("S", "T", "f", "c"),
             ("{f} \\in [{S} -> {T}]", "{c} \\in {T}"), "{c} \\in {S}",
             note="S = {}, T = {1}, f = {}, c = 1"),
    Template("comp_drop", FALSE, ("S", "P", "c"), ("{c} \\in {S}",),
             "{c} \\in {{x \\in {S} : {P}(x)}}", note="S = {1}, P = {}, c = 1"),
    Template("eq_stray", FALSE, ("a", "b", "c"), ("{a} = {b}",), "{b} = {c}",
             note="a = b = 1, c = 2"),
    Template("or_left", FALSE, ("P", "Q"), ("{P} \\/ {Q}",), "{P}", prop=True),
    Template("imp_back", FALSE, ("P", "Q", "R"), ("{P} => {Q}", "{Q} => {R}"),
             "{R} => {P}", prop=True),
)
# Left out: ``|- f[c] \in {f[x] : x \in S}`` ran for the whole 5000 ms
# budget.  A leaf that times out measures the budget constant, not the
# program, so no template may come near the timeout.

WIDE_COPIES = 3  # copies of each template per run
WIDE_STEPS = 4  # steps per file (the last file may hold fewer)

STRUCTURE_PROOFS = 2
STRUCTURE_STEPS = 20  # a multiple of 4, the number of step variants

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _fresh(rng: random.Random, used: set[str], upper: bool) -> str:
    while True:
        base = "".join(rng.choice(_LETTERS) for _ in range(3))
        name = (base.capitalize() if upper else base) + str(rng.randrange(10, 100))
        if name not in used:
            used.add(name)
            return name


def instantiate(t: Template, rng: random.Random, used: set[str]) -> str:
    """The ``ASSUME ... PROVE ...`` text of a template under fresh names."""
    names = {n: _fresh(rng, used, n[0].isupper()) for n in t.names}
    decls = ", ".join(f"NEW {names[n]}" for n in t.names)
    hyps = "".join(f", {h.format(**names)}" for h in t.hyps)
    return f"ASSUME {decls}{hyps}\n      PROVE {t.goal.format(**names)}"


def corpus(root: Path) -> list[ProofFile]:
    files = []
    for path in sorted((root / "tests" / "data").rglob("*.tla")):
        name = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        named = re.search(r"^THEOREM\s+(\w+)\s*==", text, re.MULTILINE)
        files.append(ProofFile(name, text, named and named.group(1)))
    return files


def structure(seed: int) -> list[ProofFile]:
    rng = random.Random(f"structure:{seed}")
    return [_structure_proof(rng, k) for k in range(1, STRUCTURE_PROOFS + 1)]


def _structure_proof(rng: random.Random, k: int) -> ProofFile:
    used: set[str] = set()
    S, T, P, Q = (_fresh(rng, used, True) for _ in range(4))
    thm = f"Long{k}"
    lines = [
        f"THEOREM {thm} == ASSUME NEW {S}, NEW {T}, NEW {P}, NEW {Q},",
        f"    {S} \\subseteq {T}, \\A x \\in {S} : {P}(x)",
        f"    PROVE \\A x \\in {S} : {P}(x) \\/ {Q}(x)",
    ]
    # Each variant of a step is used equally often in every proof, so the
    # seed moves names, order and citations but not the amount of work.
    shapes = [(c, b) for c in range(2) for b in range(2)] * (STRUCTURE_STEPS // 4)
    rng.shuffle(shapes)
    for i, (c, b) in enumerate(shapes, 1):
        a = _fresh(rng, used, False)
        d = _fresh(rng, used, True)
        case = (f"{Q}({a})", f"{a} \\in {T}")[c]
        cite = f", <1>{rng.randrange(1, i)}" if i > 1 else ""
        body = (f"y \\in {S} /\\ {P}(y)", f"{P}(y) /\\ y \\in {S}")[b]
        lines += [
            f"<1>{i}. ASSUME NEW {a} \\in {S} PROVE {P}({a}) \\/ {Q}({a})",
            f"  <2>1. DEFINE {d}(y) == {body}",
            f"  <2>2. {d}({a})",
            f"        BY DEF {d}",
            f"  <2>3. CASE {case}",
            f"        BY <2>2 DEF {d}",
            f"  <2>4. CASE ~({case})",
            f"        BY <2>2{cite} DEF {d}",
            f"  <2>5. QED BY <2>3, <2>4",
        ]
    lines.append(f"<1>{STRUCTURE_STEPS + 1}. QED BY <1>{STRUCTURE_STEPS}")
    return ProofFile(f"structure_{k:02d}.tla", "\n".join(lines) + "\n", thm)


def wide(seed: int) -> list[ProofFile]:
    rng = random.Random(f"wide:{seed}")
    steps = [t for t in TEMPLATES for _ in range(WIDE_COPIES)]
    rng.shuffle(steps)
    files = []
    for k, start in enumerate(range(0, len(steps), WIDE_STEPS), 1):
        group = steps[start:start + WIDE_STEPS]
        thm = f"Wide{k}"
        lines = [f"THEOREM {thm} == TRUE"]
        verdicts = {}
        used: set[str] = set()
        for i, t in enumerate(group, 1):
            lines += [f"<1>{i}. {instantiate(t, rng, used)}", "      OBVIOUS"]
            verdicts[f"<1>{i}"] = t.verdict
        lines.append(f"<1>{len(group) + 1}. QED OBVIOUS")
        files.append(ProofFile(f"wide_{k:03d}.tla", "\n".join(lines) + "\n", thm, verdicts))
    return files


WORKLOADS = ("corpus", "structure", "wide")


def generate(workload: str, seed: int, root: Path) -> list[ProofFile]:
    if workload == "corpus":
        return corpus(root)
    if workload == "structure":
        return structure(seed)
    if workload == "wide":
        return wide(seed)
    raise ValueError(f"unknown workload {workload!r}")
