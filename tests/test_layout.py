"""The package's source layout: what a start pays to compile it, and the
boundary between the prover's two modules."""

import ast
import tracemalloc
from pathlib import Path

import proofmgr

SRC = Path(proofmgr.__file__).parent
# Every start compiles the package from source when no bytecode is cached,
# and CPython holds a module's whole syntax tree while it compiles it, so
# the largest module's compile sets the start's peak memory.
MAX_COMPILE_PEAK_MB = 2.5


def compile_peak_mb(path: Path) -> float:
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def imported_modules(path: Path) -> set[str]:
    """The absolute names of the modules a module of the package imports,
    ``from M import N`` counted as importing M and M.N."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ("proofmgr", base)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_module_compiles_past_the_bound():
    peaks = {p.name: compile_peak_mb(p) for p in sorted(SRC.glob("*.py"))}
    largest = max(peaks, key=peaks.get)
    assert peaks[largest] < MAX_COMPILE_PEAK_MB, (
        f"compiling {largest} peaks at {peaks[largest]:.2f} MB: every start compiles "
        "the package from source when no bytecode is cached, and the largest "
        "module's syntax tree sets the start's memory peak"
    )


def test_tableau_imports_nothing_from_prover():
    imported = imported_modules(SRC / "tableau.py")
    assert "proofmgr.syntax" in imported  # the scan sees the relative imports
    assert {m for m in imported if m == "proofmgr.prover" or m.startswith("proofmgr.prover.")} == set()
