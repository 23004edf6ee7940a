"""Command-line front end: modes, exit codes, determinism, side outputs."""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import cantor_text
from proofmgr import cli, prover, tableau
from proofmgr.cli import main
from proofmgr.engine import check_theorem
from proofmgr.meta import embed, filter_obligation, render_obligation
from proofmgr.parser import parse_theorem
from proofmgr.prover import (
    Budget,
    Proved,
    _class_of,
    _search,
    prove,
    sequent_from_obligation,
)
from proofmgr.report import prepared_obligation
from proofmgr.tableau import _initial
from test_report_manifest import MANIFEST, report_bytes

DATA = Path(__file__).parent / "data"
CANTOR = str(DATA / "cantor.tla")
PICK = str(DATA / "corpus" / "pick.tla")
TRUE_QED = str(DATA / "corpus" / "true_qed.tla")
# Three leaves that are one obligation up to a renaming of S and A; the
# second names one of them z
RENAMED_TO_Z = r"""THEOREM Renamed == TRUE
<1>1. ASSUME NEW S, NEW A, \A x : x \in S => x \in A PROVE S \subseteq A
      OBVIOUS
<1>2. ASSUME NEW z, NEW B, \A x : x \in z => x \in B PROVE z \subseteq B
      OBVIOUS
<1>3. ASSUME NEW C, NEW D, \A x : x \in C => x \in D PROVE C \subseteq D
      OBVIOUS
<1>4. QED OBVIOUS
"""
# The second and fourth leaves are the first renamed; the third is the first
RENAMED_TWICE = r"""THEOREM Twice == TRUE
<1>1. ASSUME NEW S, NEW A, \A x : x \in S => x \in A PROVE S \subseteq A
      OBVIOUS
<1>2. ASSUME NEW C, NEW D, \A x : x \in C => x \in D PROVE C \subseteq D
      OBVIOUS
<1>3. ASSUME NEW S, NEW A, \A x : x \in S => x \in A PROVE S \subseteq A
      OBVIOUS
<1>4. ASSUME NEW C, NEW D, \A x : x \in C => x \in D PROVE C \subseteq D
      OBVIOUS
<1>5. QED OBVIOUS
"""

# F(S) is proved by TAKE: the goal's head F is a definition with a
# parameter, expanded to show its quantifier
LAMBDA_TAKE = r"""THEOREM LambdaTake == ASSUME NEW S, NEW P, \A x \in S : P(x)
                      PROVE \A x \in S : P(x)
<1>1. DEFINE F(X) == \A x \in X : P(x)
<1>2. F(S)
  <2>1. TAKE y \in S
  <2>2. QED OBVIOUS
<1>3. QED BY <1>2 DEF F
"""


def count_replays(monkeypatch) -> list:
    """The (initial entries, trace) of every replay run from now on."""
    replayed = []
    body = prover._replay

    def counted(initial, trace):
        replayed.append((initial, trace))
        return body(initial, trace)

    monkeypatch.setattr(prover, "_replay", counted)
    return replayed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_proved_is_zero(self, capsys):
        code, out, _ = run(capsys, "check", CANTOR, "--prove")
        assert code == 0
        assert "PROVED" in out

    def test_omitted_leaf_is_one(self, capsys, tmp_path):
        text = cantor_text().replace(
            "<4>1. CASE x \\in T\n            OBVIOUS",
            "<4>1. CASE x \\in T\n            OMITTED",
        )
        p = tmp_path / "omitted.tla"
        p.write_text(text)
        code, out, _ = run(capsys, "check", str(p), "--prove")
        assert code == 1
        assert "INCOMPLETE" in out

    def test_meaningless_is_three(self, capsys, tmp_path):
        p = tmp_path / "bad.tla"
        p.write_text(
            "THEOREM ASSUME NEW B, NEW C, B, C PROVE B /\\ C\n"
            "<1>1. TAKE x\n<1>2. QED OBVIOUS\n"
        )
        code, out, _ = run(capsys, "check", str(p))
        assert code == 3
        assert "MEANINGLESS" in out and "<1>1" in out

    @pytest.mark.parametrize(
        "text",
        [
            "THEOREM ASSUME NEW x, NEW T PROVE \\A x \\in T, y \\in x : y \\in x\n"
            "<1>1. QED OBVIOUS\n",
            # the same term reached by expanding a definition
            "THEOREM ASSUME NEW x, NEW T PROVE TRUE\n"
            "<1>1. DEFINE D(a) == \\A x \\in T, y \\in a : y \\in x\n"
            "<1>2. D(x)\n      OBVIOUS\n<1>3. QED OBVIOUS\n",
        ],
    )
    def test_sibling_domain_is_not_captured(self, capsys, tmp_path, text):
        # y \in x reads the declared x, so the claim is false
        p = tmp_path / "false.tla"
        p.write_text(text)
        code, out, _ = run(capsys, "check", str(p), "--prove", "--format", "json")
        assert code == 2
        assert json.loads(out)["leaves"][0]["outcome"] != "proved"

    def test_parse_error_is_three(self, capsys, tmp_path):
        p = tmp_path / "syntax.tla"
        p.write_text("THEOREM ((")
        code, _, err = run(capsys, "check", str(p))
        assert code == 3
        assert "parse error" in err

    def test_file_not_utf8_is_three_and_the_run_goes_on(self, capsys, tmp_path):
        # a CRLF and a two-byte character before the bad byte: its line and
        # column are counted as the parser counts them, in the text as read
        ok = str(DATA / "corpus" / "true_qed.tla")
        bad = tmp_path / "bad.tla"
        bad.write_bytes(b"THEOREM T == TRUE\r\n\xc3\xa9 \xff<1>1. QED OBVIOUS\n")
        code, out, err = run(capsys, "check", "--prove", ok, str(bad), ok)
        assert code == 3
        assert err == f"{bad}: parse error: 2:3: not valid UTF-8\n"
        assert out.count("theorem Truth: PROVED\n") == 2

    def test_missing_file_is_four(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/f.tla")
        assert code == 4

    @pytest.mark.parametrize(
        "option, value",
        [("--depth", "0"), ("--timeout-ms", "-1"), ("--gamma-reuse", "0"), ("--format", "xml")],
    )
    def test_bad_option_is_a_usage_error(self, capsys, option, value):
        # exit 4 is kept for internal faults
        with pytest.raises(SystemExit) as stopped:
            main(["check", "--prove", option, value, CANTOR])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: proofmgr check") and f"argument {option}: invalid" in err

    @pytest.mark.parametrize("option", ["--out", "--emit-embeddings"])
    def test_an_output_that_is_an_input_is_a_usage_error(self, capsys, tmp_path, option):
        # it would be truncated before it is read, or overwritten after
        text = Path(TRUE_QED).read_bytes()
        first, second = tmp_path / "first.tla", tmp_path / "second.tla"
        first.write_bytes(text)
        second.write_bytes(text)
        same = str(tmp_path / "." / "second.tla")  # another spelling of second
        with pytest.raises(SystemExit) as stopped:
            main(["check", "--prove", str(first), str(second), option, same])
        assert stopped.value.code == 2
        assert first.read_bytes() == second.read_bytes() == text
        assert f"error: {option} {same} is also an input file" in capsys.readouterr().err

    def test_both_outputs_in_one_file_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as stopped:
            main(["check", TRUE_QED, "--out", str(out), "--emit-embeddings", str(out)])
        assert stopped.value.code == 2 and not out.exists()
        assert "--out and --emit-embeddings name the same file" in capsys.readouterr().err

    def test_failed_leaf_is_two(self, capsys, tmp_path):
        p = tmp_path / "unprovable.tla"
        p.write_text("THEOREM ASSUME NEW P, NEW Q, P PROVE Q\n<1>1. QED OBVIOUS\n")
        code, out, _ = run(
            capsys, "check", str(p), "--prove", "--timeout-ms", "500", "--depth", "6"
        )
        assert code == 2
        assert "FAILED" in out

    def test_trace_that_does_not_replay_is_unknown(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "one.tla"
        p.write_text("THEOREM ASSUME NEW P, NEW Q, P /\\ Q PROVE Q\n<1>1. QED OBVIOUS\n")

        def search_without_last_line(initial, budget):
            out = _search(initial, budget)
            return Proved("".join(out.trace.splitlines(keepends=True)[:-1]))

        monkeypatch.setattr(prover, "_search", search_without_last_line)
        code, out, err = run(capsys, "check", str(p), "--prove", "--format", "json")
        assert code == 2
        assert [l["outcome"] for l in json.loads(out)["leaves"]] == ["unknown"]
        assert f"{p}: leaf <1>1: trace does not replay: 1 branch(es) left open" in err

    def test_arity_mismatch_is_three(self, capsys, tmp_path):
        p = tmp_path / "arity.tla"
        p.write_text(
            "THEOREM ASSUME NEW S, NEW c PROVE TRUE\n"
            "<1>1. DEFINE F(x) == x \\in S\n"
            "<1>2. F(c, c)\n"
            "      OBVIOUS\n"
            "<1>3. QED OBVIOUS\n"
        )
        code, _, err = run(capsys, "check", str(p))
        assert code == 3
        assert err == (
            f"{p}: ill-formed theorem: leaf <1>2 at 4:7: F expects 1 arguments, got 2\n"
        )

    def test_expansion_does_not_capture(self, capsys, tmp_path):
        # F's S is the theorem's S; under \A S it must not be captured, or
        # <1>2 becomes \A S : S = S and the false goal c = S is proved
        p = tmp_path / "capture.tla"
        p.write_text(
            "THEOREM Capture == ASSUME NEW S, NEW c PROVE c = S\n"
            "<1>1. DEFINE F(x) == x = S\n"
            "<1>2. \\A S : F(S)\n"
            "      OBVIOUS\n"
            "<1>3. F(c)\n"
            "      <2>1. HIDE DEF F\n"
            "      <2>2. QED BY <1>2\n"
            "<1>4. QED BY <1>3\n"
        )
        code, out, _ = run(capsys, "check", str(p), "--prove", "--format", "json")
        assert code == 2
        raw = json.loads(out)
        assert raw["status"] == "FAILED"
        leaf = raw["leaves"][0]
        assert (leaf["path"], leaf["outcome"]) == ("<1>2", "unknown")
        assert leaf["filtered"] == "NEW S, NEW c |- \\A S1 : S1 = S"

    def test_report_path_a_directory_is_four(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "--prove", "--out", str(tmp_path), TRUE_QED)
        assert code == 4
        assert err.startswith(f"{tmp_path}: [Errno ") and err.count("\n") == 1

    def test_embeddings_path_unwritable_is_four(self, capsys, tmp_path):
        target = tmp_path / "missing" / "embeddings.txt"
        code, out, err = run(capsys, "check", "--emit-embeddings", str(target), TRUE_QED)
        assert code == 4
        assert "CHECKED" in out
        assert err.startswith(f"{target}: [Errno ") and err.count("\n") == 1

    def test_traces_path_under_a_file_is_four_and_the_run_goes_on(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        traces = blocker / "sub"
        code, _, err = run(
            capsys, "check", "--prove", "--emit-traces", str(traces), TRUE_QED, TRUE_QED
        )
        assert code == 4
        # each file's trace directory fails in turn: the second file is
        # checked after the first one's error
        lines = err.splitlines()
        assert [line.partition(": [Errno ")[0] for line in lines] == [
            str(traces / "0-true_qed"),
            str(traces / "1-true_qed"),
        ]

    def test_checkonly_complete_is_zero(self, capsys):
        code, out, _ = run(capsys, "check", CANTOR)
        assert code == 0
        assert "CHECKED" in out

    def test_worst_exit_code_wins_across_files(self, capsys, tmp_path):
        p = tmp_path / "bad.tla"
        p.write_text("THEOREM TRUE <1>1. TAKE x <1>2. QED OBVIOUS")
        code, _, _ = run(capsys, "check", CANTOR, str(p))
        assert code == 3


class TestDeclarations:
    """A declaration may not reuse a name in scope: the step is meaningless."""

    @pytest.mark.parametrize(
        "text",
        [
            # a binder repeated within one step
            "THEOREM ASSUME NEW S, NEW c, c \\in S PROVE TRUE\n"
            "<1>1. PICK z, z : z \\in S\n      OBVIOUS\n<1>2. QED OBVIOUS\n",
            "THEOREM ASSUME NEW S, NEW P PROVE \\A x \\in S, y \\in S : P\n"
            "<1>1. TAKE x \\in S, x \\in S\n<1>2. QED OBVIOUS\n",
            # a binder the context declares; y's bound would read the outer x
            "THEOREM ASSUME NEW x, NEW S, NEW P PROVE \\A x \\in S, y \\in S : P\n"
            "<1>1. TAKE x \\in S, y \\in x\n<1>2. QED OBVIOUS\n",
            # a DEFINE parameter the context declares
            "THEOREM ASSUME NEW x, NEW S PROVE TRUE\n"
            "<1>1. DEFINE F(x) == x \\in S\n<1>2. QED OBVIOUS\n",
        ],
        ids=["pick-repeated", "take-repeated", "take-declared", "define-parameter"],
    )
    def test_redeclaration_is_three(self, capsys, tmp_path, text):
        p = tmp_path / "redeclared.tla"
        p.write_text(text)
        code, out, _ = run(capsys, "check", "--list-obligations", str(p))
        assert code == 3
        # the listing names the step error, as the report does
        assert "\nerror at <1>1: " in out and " is already bound\n" in out
        code, out, _ = run(capsys, "check", str(p))
        assert code == 3
        assert "MEANINGLESS" in out
        assert "error at <1>1: " in out and " is already bound" in out

    def test_theorem_redeclaration_is_three(self, capsys, tmp_path):
        p = tmp_path / "theorem.tla"
        p.write_text("THEOREM ASSUME NEW x, NEW x PROVE TRUE\n<1>1. QED OBVIOUS\n")
        code, _, err = run(capsys, "check", str(p))
        assert code == 3
        assert err == f"{p}: ill-formed theorem: x is already bound\n"

    def test_a_later_take_bound_reads_the_taken_name(self, capsys, tmp_path):
        p = tmp_path / "take.tla"
        p.write_text(
            "THEOREM ASSUME NEW S, NEW P PROVE \\A x \\in S, y \\in S : P\n"
            "<1>1. TAKE x \\in S, y \\in x\n<1>2. QED OBVIOUS\n"
        )
        code, out, _ = run(capsys, "check", "--list-obligations", str(p))
        assert code == 0
        assert "[1] <1>1 take-subset-side\n    NEW S, NEW P, NEW x, x \\in S |- S \\subseteq x\n" in out

    def test_a_nested_declaration_does_not_block_a_later_one(self, capsys, tmp_path):
        # <1>1's x lives only in the label's definition
        p = tmp_path / "scoped.tla"
        p.write_text(
            "THEOREM ASSUME NEW S PROVE \\A x \\in S : x \\in S\n"
            "<1>1. ASSUME NEW x \\in S PROVE x \\in S\n      OBVIOUS\n"
            "<1>2. TAKE x \\in S\n"
            "<1>3. QED BY <1>1\n"
        )
        code, out, _ = run(capsys, "check", "--prove", str(p))
        assert code == 0
        assert "PROVED" in out


class TestModes:
    def test_list_obligations(self, capsys):
        code, out, _ = run(capsys, "check", CANTOR, "--list-obligations")
        assert code == 0
        assert out.count("[") >= 11
        assert "<1>1.<2>2.<3>1.<4>1" in out

    def test_a_listing_stops_before_the_prover(self, capsys, tmp_path):
        # <1>1 is false and <1>2 is proved; with --prove the listing still
        # proves nothing: the same output and exit code, and no trace
        # directory
        p = tmp_path / "false_leaf.tla"
        p.write_text("THEOREM ASSUME NEW P, NEW Q PROVE P => P\n<1>1. Q OBVIOUS\n<1>2. QED OBVIOUS\n")
        tdir = tmp_path / "traces"
        want = run(capsys, "check", "--list-obligations", str(p))
        got = run(capsys, "check", "--prove", "--emit-traces", str(tdir), "--list-obligations", str(p))
        assert got == want and want[0] == 0
        assert "[0] <1>1 " in want[1] and not tdir.exists()
        assert run(capsys, "check", "--prove", str(p))[0] == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "check", CANTOR, "--prove", "--format", "json")
        assert code == 0
        raw = json.loads(out)
        assert raw["status"] == "PROVED"
        assert len(raw["leaves"]) == 11
        assert all(l["outcome"] == "proved" for l in raw["leaves"])

    def test_emit_embeddings(self, capsys, tmp_path):
        target = tmp_path / "embeddings.txt"
        code, _, _ = run(capsys, "check", CANTOR, "--emit-embeddings", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("!!S. !!f.")

    def test_emit_traces(self, capsys, tmp_path):
        tdir = tmp_path / "traces"
        code, _, _ = run(capsys, "check", CANTOR, "--prove", "--emit-traces", str(tdir))
        assert code == 0
        files = sorted(tdir.glob("leaf-*.trace"))
        assert len(files) == 11
        assert "close" in files[0].read_text()

    def test_emit_traces_of_several_files(self, capsys, tmp_path):
        alone = {}
        for path in (CANTOR, PICK):
            tdir = tmp_path / Path(path).stem
            run(capsys, "check", path, "--prove", "--emit-traces", str(tdir))
            alone[path] = {p.name: p.read_text() for p in tdir.iterdir()}
        both = tmp_path / "both"
        code, _, _ = run(capsys, "check", CANTOR, PICK, "--prove", "--emit-traces", str(both))
        assert code == 0
        assert sorted(p.name for p in both.iterdir()) == ["0-cantor", "1-pick"]
        for sub, path in (("0-cantor", CANTOR), ("1-pick", PICK)):
            got = {p.name: p.read_text() for p in (both / sub).iterdir()}
            assert got == alone[path]
        assert len(alone[CANTOR]) == 11 and len(alone[PICK]) == 2

    def test_emit_embeddings_of_several_files(self, capsys, tmp_path):
        alone = []
        for path in (CANTOR, PICK):
            target = tmp_path / f"{Path(path).stem}.txt"
            run(capsys, "check", path, "--emit-embeddings", str(target))
            alone.append(target.read_text())
        target = tmp_path / "both.txt"
        code, _, _ = run(capsys, "check", CANTOR, PICK, "--emit-embeddings", str(target))
        assert code == 0
        assert target.read_text() == "".join(alone)
        assert len(target.read_text().splitlines()) == 13

    def test_check_file_returns_the_embeddings(self, capsys, tmp_path):
        target = tmp_path / "embeddings.txt"
        run(capsys, "check", CANTOR, "--emit-embeddings", str(target))
        args = cli.build_arg_parser().parse_args(["check", CANTOR, "--emit-embeddings", str(target)])
        assert cli.check_file(CANTOR, args, [].append) == (0, target.read_text())
        args = cli.build_arg_parser().parse_args(["check", CANTOR])
        assert cli.check_file(CANTOR, args, [].append) == (0, None)

    def test_only_restricts_proving(self, capsys):
        code, out, _ = run(
            capsys, "check", CANTOR, "--prove", "--format", "json",
            "--only", "<1>1.<2>2.<3>1",
        )
        raw = json.loads(out)
        # leaves outside the selection stay unattempted: not claimable as proved
        assert code == 1
        assert raw["status"] == "INCOMPLETE"
        attempted = [l for l in raw["leaves"] if l["outcome"] is not None]
        assert {l["path"].rsplit(".", 1)[0] for l in attempted} == {
            "<1>1.<2>2.<3>1"
        }

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check", CANTOR, "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["status"] == "CHECKED"

    def test_local_defs_hidden_flag(self, capsys):
        # without the implicit USE DEF, the local definition stays hidden and
        # the case leaves lose the expansion needed to prove them
        code, out, _ = run(
            capsys, "check", CANTOR, "--prove", "--local-defs-hidden",
            "--timeout-ms", "1000", "--depth", "8",
        )
        assert code == 2
        assert "FAILED" in out

    def test_raw_filtered_shows_each_leaf_filtered_only(self, capsys):
        paths = [CANTOR, *sorted(str(p) for p in (DATA / "corpus").glob("*.tla"))]
        code, out, _ = run(capsys, "check", "--prove", "--raw-filtered", "--format", "json", *paths)
        want_code, want, _ = run(capsys, "check", "--prove", "--format", "json", *paths)
        raw, default = reports_of(out), reports_of(want)
        assert code == want_code == 0 and len(raw) == len(default) == len(paths)
        expanded = 0
        for path, got, plain in zip(paths, raw, default):
            records = check_theorem(parse_theorem(Path(path).read_text(encoding="utf-8"))).records
            filtered = [filter_obligation(r.obligation) for r in records]
            assert [l["filtered"] for l in got["leaves"]] == [render_obligation(f) for f in filtered]
            assert [l["embedding"] for l in got["leaves"]] == [embed(f) for f in filtered]
            assert [l["outcome"] for l in got["leaves"]] == [l["outcome"] for l in plain["leaves"]]
            assert got["status"] == plain["status"]
            expanded += sum(a["filtered"] != b["filtered"] for a, b in zip(got["leaves"], plain["leaves"]))
        assert expanded  # some leaf's definitions are expanded by default

    @pytest.mark.parametrize("options", [[], ["--raw-filtered"]], ids=["prepared", "raw-filtered"])
    def test_embeddings_file_holds_the_reports_embeddings(self, capsys, tmp_path, options):
        target = tmp_path / "embeddings.txt"
        argv = ["check", *options, "--format", "json", "--emit-embeddings", str(target)]
        code, out, _ = run(capsys, *argv, CANTOR, PICK)
        assert code == 0
        want = [leaf["embedding"] for report in reports_of(out) for leaf in report["leaves"]]
        assert target.read_text(encoding="utf-8").splitlines() == want and len(want) == 13

    def test_take_against_a_goal_headed_by_a_lambda_definition(self, capsys, tmp_path):
        path = tmp_path / "lambda_take.tla"
        path.write_text(LAMBDA_TAKE)
        code, out, _ = run(capsys, "check", "--prove", str(path))
        assert code == 0
        assert "NEW y, y \\in S |- P(y)" in out


def reports_of(text: str) -> list[dict]:
    """The JSON reports of a run over several files, in file order."""
    decoder, reports, at = json.JSONDecoder(), [], 0
    while text[at:].strip():
        report, end = decoder.raw_decode(text, at)
        reports.append(report)
        at = end + 1  # the newline after each report
    return reports


class TestDeterminism:
    def test_output_byte_identical_across_runs(self, capsys):
        outs = []
        # every run starts with the prover's stores empty (cli.run)
        for _ in range(3):
            code, out, _ = run(capsys, "check", CANTOR, "--prove", "--format", "json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_timings_off_by_default(self, capsys):
        _, out, _ = run(capsys, "check", CANTOR, "--prove", "--format", "json")
        raw = json.loads(out)
        assert all(l["millis"] is None for l in raw["leaves"])

    def test_timings_flag_populates_millis(self, capsys):
        _, out, _ = run(
            capsys, "check", CANTOR, "--prove", "--format", "json", "--timings"
        )
        raw = json.loads(out)
        assert all(
            l["millis"] is not None for l in raw["leaves"] if l["outcome"] is not None
        )


class TestProveOncePerRun:
    def test_every_proved_leaf_is_replayed(self, capsys, monkeypatch):
        replayed = count_replays(monkeypatch)
        proved = []

        def recorded(sequent, budget):
            out = prove(sequent, budget)
            if isinstance(out, Proved):
                proved.append((_initial(sequent), out.trace))
            return out

        monkeypatch.setattr(cli, "prove", recorded)
        files = [str(p) for p in sorted(DATA.glob("**/*.tla"))]
        code, out, _ = run(capsys, "check", "--prove", "--format", "json", *files)
        assert code == 0
        memo = prover._memo
        assert memo.hits > 0
        assert len(proved) == out.count('"outcome": "proved"') == memo.hits + memo.misses == 61
        # each proof given was replayed against entries equal to its own
        assert set(proved) <= set(replayed)
        assert len(replayed) == 33

    def test_each_run_starts_with_an_empty_memo(self, capsys, monkeypatch):
        replayed = count_replays(monkeypatch)
        infos = []
        for _ in range(2):
            replayed.clear()
            run(capsys, "check", CANTOR, "--prove")
            memo = prover._memo
            stores = (tableau.normalize, prover._fingerprint, tableau._expansion)
            caches = [f.cache_info() for f in stores]
            infos.append((memo.hits, memo.misses, len(memo.stored), len(replayed), caches))
        # an earlier run's entries would turn the second run's misses into
        # hits, and spare their replays
        assert infos[0] == infos[1] and infos[0][1] > 0 and infos[0][3] > 0

    def test_the_cli_makes_no_replay_of_its_own(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "twice.tla"
        path.write_text(RENAMED_TWICE)
        replayed = count_replays(monkeypatch)
        per_leaf = []

        def counted(sequent, budget):
            before = len(replayed)
            out = prove(sequent, budget)
            per_leaf.append(len(replayed) - before)
            return out

        monkeypatch.setattr(cli, "prove", counted)
        code, out, _ = run(capsys, "check", str(path), "--prove", "--format", "json")
        assert code == 0 and out.count('"outcome": "proved"') == 5
        assert not hasattr(cli, "replay_trace")
        assert (prover._memo.hits, prover._memo.misses) == (3, 2)
        # every replay is made by prove: the searches of leaves 1 and 5 and
        # the renamed proofs of leaves 2 and 4, which are one pair; leaf 3
        # is leaf 1 exactly
        assert per_leaf == [1, 1, 0, 1, 1] and sum(per_leaf) == len(replayed) == 4
        assert len(set(replayed)) == 3

    def test_reversed_file_order_gives_the_same_reports(self):
        want = dict(
            line.split() for line in MANIFEST.read_text(encoding="utf-8").splitlines()
        )
        paths = sorted(DATA.glob("**/*.tla"), reverse=True)
        for path in paths:
            digest = hashlib.sha256(report_bytes(path)).hexdigest()
            assert digest == want[path.relative_to(DATA).as_posix()], path
        assert prover._memo.hits > 0

    def test_a_renamed_leaf_gets_the_traces_of_an_exact_search(self, capsys, tmp_path):
        path = tmp_path / "renamed.tla"
        path.write_text(RENAMED_TO_Z)
        tdir = tmp_path / "traces"
        code, _, _ = run(capsys, "check", str(path), "--prove", "--emit-traces", str(tdir))
        assert code == 0
        # the third leaf gets the first one's trace, the second is searched
        assert (prover._memo.hits, prover._memo.misses) == (1, 3)
        records = check_theorem(parse_theorem(RENAMED_TO_Z)).records
        keys = []
        for idx, record in enumerate(records):
            sequent = sequent_from_obligation(prepared_obligation(record))
            exact = _search(_initial(sequent), Budget())
            assert (tdir / f"leaf-{idx}.trace").read_text() == exact.trace
            keys.append(_class_of(_initial(sequent), Budget())[0])
        assert keys[0] == keys[1] == keys[2] != keys[3]
        # the subseteq rule's bound variable avoids the constant z
        second = (tdir / "leaf-1.trace").read_text()
        assert second.startswith("subseteq-neg\t1\t2:~(\\A z1 : z1 \\in z => z1 \\in B)\n")
