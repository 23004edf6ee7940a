"""The process entry point, ``python -m proofmgr.cli`` (``cli.console``):
it writes what an in-process ``main`` run writes, exits with its code, and
reports a standard output that cannot be written as an I/O error.

Every run here is a child process: ``console`` ends the process it runs in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import proofmgr
from proofmgr.cli import main

DATA = Path(__file__).parent / "data"
FILES = [str(p) for p in sorted(DATA.glob("*.tla")) + sorted((DATA / "corpus").glob("*.tla"))]
FALSE_LEAF = "THEOREM ASSUME NEW P, NEW Q PROVE P => P\n<1>1. Q OBVIOUS\n<1>2. QED OBVIOUS\n"
MEANINGLESS = "THEOREM ASSUME NEW B, NEW C, B, C PROVE B /\\ C\n<1>1. TAKE x\n<1>2. QED OBVIOUS\n"


def spawn(*argv, **kwargs) -> subprocess.Popen:
    """``python -m proofmgr.cli`` on argv, with this package on its path and
    its standard output buffered, as by default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(proofmgr.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "proofmgr.cli", *argv], env=env, **kwargs)


def run_child(*argv) -> tuple[int, bytes, bytes]:
    with spawn(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        out, err = child.communicate(timeout=300)
    return child.returncode, out, err


def written(root: Path) -> dict[str, bytes]:
    """Every file under root, by its path relative to root."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_process_writes_what_main_writes(capsys, tmp_path, fmt, to_file):
    def argv(root: Path) -> list[str]:
        options = ["--emit-traces", str(root / "traces")]
        options += ["--emit-embeddings", str(root / "emb.txt")]
        if to_file:
            options += ["--out", str(root / "report")]
        return ["check", "--prove", "--format", fmt, *options, *FILES]

    inside, child = tmp_path / "main", tmp_path / "child"
    inside.mkdir()
    child.mkdir()
    code = main(argv(inside))
    captured = capsys.readouterr()
    assert run_child(*argv(child)) == (code, captured.out.encode(), captured.err.encode())
    assert code == 0 and (captured.out == "") == to_file
    files = written(inside)
    assert written(child) == files
    assert "emb.txt" in files and len([f for f in files if f.startswith("traces")]) > len(FILES)


@pytest.mark.parametrize(
    "argv, text, code",
    [
        # checked, the file would exit 3: the usage error comes first
        (["--prove", "--depth", "0"], MEANINGLESS, 2),
        ([], MEANINGLESS, 3),
        (["--prove"], FALSE_LEAF, 2),
    ],
    ids=["usage-error", "meaningless", "false-leaf"],
)
def test_exit_codes_through_the_process(tmp_path, argv, text, code):
    path = tmp_path / "theorem.tla"
    path.write_text(text)
    assert run_child("check", *argv, str(path))[0] == code


@pytest.mark.parametrize("while_writing", [True, False], ids=["in-run", "final-flush"])
def test_a_closed_standard_output_is_an_io_error(tmp_path, while_writing):
    # in-run: four copies of the corpus's JSON reports are more than a pipe
    # holds, so a write fails once the reader has gone; final-flush: one
    # short report stays in the buffer until the process flushes it
    short = [str(DATA / "corpus" / "true_qed.tla")]
    argv = ["--format", "json", *FILES * 4] if while_writing else short
    err = tmp_path / "stderr"
    with err.open("wb") as sink:
        child = spawn("check", "--prove", *argv, stdout=subprocess.PIPE, stderr=sink)
        if while_writing:
            assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        code = child.wait(timeout=300)
    assert code == 4
    assert err.read_text() == "<stdout>: [Errno 32] Broken pipe\n"
