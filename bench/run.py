"""The proofmgr benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1 --seconds 40   # every workload, interleaved

Run it from the repository root.  It builds nothing: the program is the
Python source under ``src/``.  Workloads (see ``workloads.py``):

- ``corpus``: the committed ``tests/data/**/*.tla`` files, one CLI process;
- ``structure``: a few long seeded hierarchical proofs (front-end bound);
- ``wide``: many seeded files of small independent leaves (many medium
  prover searches, including searches that run out of depth).

With ``--trace 0`` each repeat spawns ``proofmgr check --prove --format
json`` over the workload's files with tracing off (default options only),
then CLI processes on the trivial ``tests/data/corpus/true_qed.tla``
(``setup_s``), and times a fixed pure-Python loop (``host.ref_loop_ms``)
before, between and after them.  Each time is scaled to a host on which
that loop takes ``REF_MS``, by the loop's mean time on the two sides of
it: a shared host can change speed by up to twice, within seconds, and the
loop moves with it.  The times as measured are reported as
``cli.wall_raw_s`` and ``cli.setup_raw_s``.  Repeats go on, one child at
a time, until ``--seconds`` is used up; the end-to-end metrics are
medians over the repeats.  With ``--trace 1`` each
repeat adds a traced in-process run (``traced.py``) and the per-layer
metrics are reported instead.  Without ``--workload`` every workload runs,
interleaved repeat by repeat, and every metric is printed.

Every CLI output is checked against the leaves' known verdicts: the exit
code, each theorem's status and each leaf's outcome must agree, no
known-false leaf may be proved (the run stops at once if one is), and the
report bytes must be identical across repeats.  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The seed, every
raw sample and the spans of the last traced repeat are written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (sibling module)

SRC = ROOT / "src"
SETUP_FILE = ROOT / "tests" / "data" / "corpus" / "true_qed.tla"
CLI = [sys.executable, "-m", "proofmgr.cli", "check", "--prove", "--format", "json"]
# The CLI's documented exit codes for the two statuses a workload may give
# (no workload has omitted leaves or meaningless steps).
EXIT_BY_STATUS = {"PROVED": 0, "FAILED": 2}
REF_TABLE = 1 << 19  # slots the lookups are scattered over
REF_STEPS = 200_000  # lookups, about 0.1 s
REF_TOKENS = 1200  # per list matched, about 0.1 s
# The reference loop's time that the end-to-end times are scaled to.
REF_MS = 150.0
MIN_REPEATS = 2
SETUP_PER_REPEAT = 2

# The two times are scaled to a host on which the reference loop takes
# REF_MS: a shared host can change speed by up to twice, within seconds, and
# the loop timed on both sides of each child moves with it.
END_TO_END = {  # name -> unit
    "wall_s": "s",  # one CLI process over all the workload's files
    "setup_s": "s",  # one CLI process on the trivial true_qed.tla
    "peak_rss_mb": "MB",  # of the wall_s process
    # Leaves whose outcome matches the known verdict (a valid leaf proved, a
    # false one not), over leaves attempted: 1 - failed_share.  Reported this
    # way round because a metric here must never be 0.
    "verdict_share": "ratio",
}
# Which end-to-end metric each layer metric should move, and where:
# - parser.*, engine.*, meta.*, report.*: wall_s on structure; ~0 elsewhere.
#   report.build_ms includes the second prepared_obligation per leaf.
# - prover.prove_ms and prover.leaf_ms.*: wall_s on corpus and wide;
#   leaf_ms.max bounds what leaf-level parallelism can reach.
# - prover outcome counts, trace_lines, unknown_expansions, verdict_flips:
#   verdict_share on wide; any change in them marks changed search.
# - prover.replay_*: nothing today, since the CLI does not replay; wall_s
#   everywhere and verdict_share once it does.
# - cli.cpu_s equals wall_s in one process; under a process pool it rises
#   while wall_s falls.  trace.overhead_s and host.ref_loop_ms are
#   diagnostics of the measurement and the machine.
PER_LAYER = {
    "parser.parse_ms": "ms",
    "parser.tokens": "count",
    "engine.check_ms": "ms",
    "engine.leaves": "count",
    "engine.omitted": "count",
    "meta.filter_ms": "ms",
    "meta.expand_ms": "ms",
    "meta.kept_ratio": "ratio",  # assumptions kept / assumptions in
    "prover.prove_ms": "ms",
    "prover.leaf_ms.p50": "ms",
    "prover.leaf_ms.p90": "ms",
    "prover.leaf_ms.max": "ms",
    "prover.proved": "count",
    "prover.exhausted": "count",
    "prover.timeout": "count",
    "prover.malformed": "count",
    "prover.trace_lines": "count",
    "prover.unknown_expansions": "count",
    "prover.verdict_flips": "count",  # leaves whose outcome differs between repeats
    "prover.replay_ms": "ms",
    "prover.replay_failed": "count",
    "report.build_ms": "ms",
    "report.write_ms": "ms",
    "report.bytes": "bytes",
    "cli.cpu_s": "s",
    "cli.wall_raw_s": "s",  # wall_s as timed, not scaled to REF_MS
    "cli.setup_raw_s": "s",  # setup_s as timed
    "trace.overhead_s": "s",  # traced pipeline time - (wall_raw_s - setup_raw_s)
    "host.ref_loop_ms": "ms",
}
# Spans whose self time makes up each module's share of the traced run.
LAYER_SPANS = {
    "parser": ("parse_theorem", "tokenize"),
    "engine": ("check_theorem",),
    "meta": ("filter_obligation", "expand_all_usable"),
    "prover": ("sequent_from_obligation", "prove"),
    "report": ("build_report", "write_report"),
}


class CheckFailed(Exception):
    """The program's output contradicts a known verdict."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes


class Spawner:
    """Runs children through ``spawner.py``, one at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], work: Path) -> Child:
        out = work / "stdout"
        request = {
            "argv": argv,
            "env": self.env,
            "cwd": str(ROOT),
            "stdout": str(out),
            "stderr": str(work / "stderr"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner ended early")
        reply = json.loads(line)
        if reply["code"] < 0:
            raise RuntimeError(f"child killed by signal {-reply['code']}: {argv[:4]}")
        return Child(reply["code"], reply["wall_s"], reply["cpu_s"], reply["rss_mb"],
                     out.read_bytes())

    def close(self, kill: bool = False) -> None:
        """Wait for the spawner to end; with ``kill``, end its child first."""
        if kill:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()


@functools.cache
def _ref_inputs() -> tuple[list[int], list[str], list[str]]:
    """One fixed cycle through REF_TABLE slots in random order, and two
    fixed token lists that differ in about a fifth of their places."""
    rng = random.Random(0)
    order = list(range(REF_TABLE))
    rng.shuffle(order)
    succ = [0] * REF_TABLE
    for a, b in zip(order, order[1:] + order[:1]):
        succ[a] = b
    a = [rng.choice("abcdefghij") for _ in range(REF_TOKENS)]
    b = [c if rng.random() < 0.8 else rng.choice("abcdefghij") for c in a]
    return succ, a, b


def ref_loop_ms() -> float:
    """Time a fixed pure-Python workload that shares nothing with the program.

    Lookups scattered over some 20 MB, then a difflib match of two token
    lists.  Of the loops tried, these two slowed down with the host most
    nearly as the CLI did; tight recursion slowed down much more.
    """
    succ, a, b = _ref_inputs()
    start = perf_counter()
    slot = 0
    for _ in range(REF_STEPS):
        slot = succ[slot]
    difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    return (perf_counter() - start) * 1000.0


def at_ref_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time scaled to a host on which the reference loop takes REF_MS."""
    return seconds * 2 * REF_MS / (ref_before + ref_after)


def parse_reports(data: bytes) -> list[dict]:
    """The CLI writes one JSON document per file, separated by newlines."""
    text, docs, pos = data.decode("utf-8"), [], 0
    decoder = json.JSONDecoder()
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


@dataclass
class Checked:
    attempted: int = 0
    mismatched: int = 0  # outcome differs from the known verdict
    outcomes: tuple = ()


def check_output(files: list[workloads.ProofFile], code: int, data: bytes) -> Checked:
    """Compare one CLI run's exit code, statuses and leaf outcomes with the
    files' known verdicts; raise CheckFailed on any contradiction."""
    docs = parse_reports(data)
    if len(docs) != len(files):
        raise CheckFailed(f"{len(docs)} reports for {len(files)} files")
    result = Checked()
    outcomes, worst = [], 0
    for spec, doc in zip(files, docs):
        where = spec.name
        if doc["theorem"] != spec.theorem:
            raise CheckFailed(f"{where}: theorem {doc['theorem']!r}, expected {spec.theorem!r}")
        if doc["errors"]:
            raise CheckFailed(f"{where}: step errors {doc['errors']}")
        paths = {leaf["path"] for leaf in doc["leaves"]}
        missing = set(spec.verdicts) - paths
        if missing:
            raise CheckFailed(f"{where}: no leaf at {sorted(missing)}")
        all_proved = True
        for leaf in doc["leaves"]:
            outcome = leaf["outcome"]
            verdict = spec.verdicts.get(leaf["path"], workloads.VALID)
            if leaf["omitted"] or outcome not in ("proved", "unknown"):
                raise CheckFailed(f"{where} {leaf['path']}: outcome {outcome!r}")
            if verdict == workloads.FALSE and outcome == "proved":
                raise CheckFailed(f"{where} {leaf['path']}: known-false leaf proved")
            result.attempted += 1
            result.mismatched += (outcome == "proved") != (verdict == workloads.VALID)
            all_proved &= outcome == "proved"
            outcomes.append((where, leaf["path"], outcome))
        status = "PROVED" if all_proved else "FAILED"
        if doc["status"] != status:
            raise CheckFailed(f"{where}: status {doc['status']}, leaves say {status}")
        worst = max(worst, EXIT_BY_STATUS[status])
    if code != worst:
        raise CheckFailed(f"exit code {code}, statuses say {worst}")
    result.outcomes = tuple(outcomes)
    return result


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


@dataclass
class Workload:
    name: str
    files: list[workloads.ProofFile]
    paths: list[str]
    work: Path
    samples: dict[str, list[float]] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    first_report: bytes | None = None
    first_outcomes: tuple = ()
    flipped: set = field(default_factory=set)
    runs_checked: int = 0
    runs_differing: int = 0  # reports whose bytes differ from the first
    attempted: int = 0  # leaves
    mismatched: int = 0

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def accept(self, child: Child) -> None:
        self.runs_checked += 1
        checked = check_output(self.files, child.code, child.stdout)
        if self.first_report is None:
            self.first_report, self.first_outcomes = child.stdout, checked.outcomes
        elif child.stdout != self.first_report:
            self.runs_differing += 1
            self.flipped |= {
                (a[0], a[1]) for a, b in zip(self.first_outcomes, checked.outcomes) if a != b
            }
        self.attempted += checked.attempted
        self.mismatched += checked.mismatched

    def repeat(self, spawner: Spawner, traced: bool) -> None:
        # The reference loop brackets each timed child: its mean time on the
        # two sides is the host's speed while the child ran.
        before = ref_loop_ms()
        child = spawner.run(CLI + self.paths, self.work)
        between = ref_loop_ms()
        self.accept(child)
        setups = []
        for _ in range(SETUP_PER_REPEAT):
            setup = spawner.run(CLI + [str(SETUP_FILE)], self.work)
            if setup.code != 0:
                raise CheckFailed(f"{SETUP_FILE.name}: exit code {setup.code}")
            setups.append(setup.wall_s)
        after = ref_loop_ms()
        self.add("cli.wall_raw_s", child.wall_s)
        self.add("wall_s", at_ref_speed(child.wall_s, before, between))
        for raw in setups:
            self.add("cli.setup_raw_s", raw)
            self.add("setup_s", at_ref_speed(raw, between, after))
        self.add("cli.cpu_s", child.cpu_s)
        self.add("peak_rss_mb", child.rss_mb)
        for ref in (before, between, after):
            self.add("host.ref_loop_ms", ref)
        if traced:
            spans = self.work / "spans.json"
            argv = [sys.executable, str(BENCH / "traced.py"), str(SRC), str(spans)]
            self.accept(spawner.run(argv + self.paths, self.work))
            self.traces.append(json.loads(spans.read_text(encoding="utf-8")))

    def end_to_end(self) -> dict[str, float]:
        metrics = {k: median(self.samples[k]) for k in ("wall_s", "setup_s", "peak_rss_mb")}
        metrics["verdict_share"] = 1.0 - self.mismatched / self.attempted
        return metrics

    def per_layer(self) -> dict[str, float]:
        rows = [layer_row(t) for t in self.traces]
        metrics = {
            # Counts take an observed value, so they stay whole numbers.
            k: (statistics.median_low if PER_LAYER[k] in ("count", "bytes") else median)(
                [r[k] for r in rows]
            )
            for k in rows[0]
        }
        metrics["prover.verdict_flips"] = len(self.flipped)
        metrics["cli.cpu_s"] = median(self.samples["cli.cpu_s"])
        metrics["cli.wall_raw_s"] = median(self.samples["cli.wall_raw_s"])
        metrics["cli.setup_raw_s"] = median(self.samples["cli.setup_raw_s"])
        untraced = metrics["cli.wall_raw_s"] - metrics["cli.setup_raw_s"]
        metrics["trace.overhead_s"] = median(
            [t["pipeline_s"] - untraced for t in self.traces]
        )
        metrics["host.ref_loop_ms"] = median(self.samples["host.ref_loop_ms"])
        return {k: metrics[k] for k in PER_LAYER}


def layer_row(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced repeat (inclusive times, in ms)."""
    total: dict[str, float] = {}
    for span in trace["spans"]:
        total[span["name"]] = total.get(span["name"], 0.0) + span["end"] - span["start"]
    ms = {name: seconds * 1000.0 for name, seconds in total.items()}
    counts = trace["counts"]
    leaf_ms = sorted(trace["leaf_ms"])
    return {
        "parser.parse_ms": ms.get("parse_theorem", 0.0),
        "parser.tokens": counts.get("tokens", 0),
        "engine.check_ms": ms.get("check_theorem", 0.0),
        "engine.leaves": counts.get("leaves", 0),
        "engine.omitted": counts.get("omitted", 0),
        "meta.filter_ms": ms.get("filter_obligation", 0.0),
        "meta.expand_ms": ms.get("expand_all_usable", 0.0),
        "meta.kept_ratio": counts["assumptions_kept"] / counts["assumptions_in"],
        "prover.prove_ms": ms.get("prove", 0.0),
        "prover.leaf_ms.p50": median(leaf_ms),
        "prover.leaf_ms.p90": statistics.quantiles(leaf_ms, n=10)[-1],
        "prover.leaf_ms.max": leaf_ms[-1],
        "prover.proved": counts.get("proved", 0),
        "prover.exhausted": counts.get("exhausted", 0),
        "prover.timeout": counts.get("timeout", 0),
        "prover.malformed": counts.get("malformed", 0),
        "prover.trace_lines": counts.get("trace_lines", 0),
        "prover.unknown_expansions": counts.get("unknown_expansions", 0),
        "prover.replay_ms": ms.get("replay_trace", 0.0),
        "prover.replay_failed": counts.get("replay_failed", 0),
        "report.build_ms": ms.get("build_report", 0.0),
        "report.write_ms": ms.get("write_report", 0.0),
        "report.bytes": counts.get("report_bytes", 0),
    }


def layer_shares(trace: dict) -> dict[str, float]:
    """Each module's share of the summed self time of the pipeline spans."""
    self_s = {}
    for span in trace["spans"]:
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self"]
    by_layer = {k: sum(self_s.get(n, 0.0) for n in v) for k, v in LAYER_SPANS.items()}
    total = sum(by_layer.values())
    return {k: v / total for k, v in by_layer.items()}


def prepare(name: str, seed: int, scratch: Path) -> Workload:
    files = workloads.generate(name, seed, ROOT)
    work = scratch / name
    work.mkdir(parents=True)
    if name == "corpus":
        paths = [str(ROOT / f.name) for f in files]
    else:
        paths = []
        for f in files:
            (work / f.name).write_text(f.text, encoding="utf-8")
            paths.append(str(work / f.name))
    return Workload(name, files, paths, work)


def measure(runs: list[Workload], spawner: Spawner, seconds: float, traced: bool) -> None:
    """Interleave repeats of every workload until the time is used up."""
    start = perf_counter()
    done = 0
    while True:
        elapsed = perf_counter() - start
        if done >= MIN_REPEATS and elapsed + elapsed / done > seconds:
            return
        for run in runs:
            run.repeat(spawner, traced)
        done += 1


def fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def report_lines(run: Workload, metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    """One line per metric: value, unit, how it was aggregated, sample count."""
    lines = []
    for key, value in metrics.items():
        samples = run.samples.get(key)
        if key == "verdict_share":
            how = f"leaves, n={run.attempted}"
        elif samples:
            high = tail(samples)
            how = f"median, n={len(samples)}" + (f", p{high[0]} {fmt(high[1])}" if high else "")
        else:
            how = f"median, n={len(run.traces)} traced"
        lines.append(f"{run.name:9s} {key:26s} {fmt(value):>10s} {units[key]:6s} ({how})")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "proofmgr" / "cli.py").is_file() or not SETUP_FILE.is_file():
        print(f"no proofmgr source under {ROOT}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    both = args.workload is None
    traced = both or args.trace == 1
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"work-{os.getpid()}"
    runs: list[Workload] = []
    error = None
    # A termination signal unwinds through the finally below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spawner = Spawner()
    idle = False  # no child is running
    try:
        runs = [prepare(n, args.seed, scratch) for n in names]
        # Compile bytecode and fill the file cache before timing.
        spawner.run(CLI + [str(SETUP_FILE)], runs[0].work)
        measure(runs, spawner, args.seconds * len(runs), traced)
        idle = True
    except CheckFailed as err:
        error = str(err)
        idle = True
    finally:
        spawner.close(kill=not idle)
        shutil.rmtree(scratch, ignore_errors=True)

    # An operation is one checked CLI run; it fails when its output does.
    attempted = sum(r.runs_checked for r in runs)
    failed = sum(r.runs_differing for r in runs) + (error is not None)
    metrics: dict[str, dict] = {}
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for run in runs if error is None else []:
        chosen: dict[str, float] = {}
        units: dict[str, str] = {}
        if both or args.trace == 0:
            chosen.update(run.end_to_end())
            units.update(END_TO_END)
        if traced:
            chosen.update(run.per_layer())
            units.update(PER_LAYER)
        for line in report_lines(run, chosen, units):
            print(line)
        if "verdict_share" in chosen:
            print(f"{run.name:9s} {'failed_share':26s} {fmt(1 - chosen['verdict_share']):>10s} ratio")
        shares = {}
        if run.traces:
            shares = layer_shares(run.traces[-1])
            biggest = max(run.traces[-1]["leaf_ms"])
            prove_ms = layer_row(run.traces[-1])["prover.prove_ms"]
            print(
                f"{run.name:9s} layer shares of self time: "
                + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
                + f"; slowest leaf {biggest / prove_ms:.1%} of prove_ms"
            )
            spans_file = out_dir / f"spans-{run.name}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(run.traces[-1]), encoding="utf-8")
        for key, value in chosen.items():
            name = key if not both else f"{run.name}.{key}"
            metrics[name] = {"value": value, "unit": units[key]}
        record["workloads"][run.name] = {
            "metrics": chosen,
            "samples": run.samples,
            "traced_repeats": len(run.traces),
            "layer_shares": shares,
            "attempted": run.attempted,
            "mismatched": run.mismatched,
            "reports_differing": run.runs_differing,
            "flipped_leaves": sorted(map(list, run.flipped)),
        }
    if error is not None:
        print(f"output check failed: {error}", file=sys.stderr)
    tag = args.workload or "all"
    (out_dir / f"result-{tag}-seed{args.seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
