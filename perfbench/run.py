#!/usr/bin/env python3
"""Closed-loop benchmark of the iasgl command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One client runs one CLI process at a time (the runner plus one child,
with ``IASGL_THREADS`` unset), and each command is measured the way a
user pays for it: a fresh interpreter from spawn to exit. A pass runs
every command of the workload once; passes repeat while another one fits
in ``--seconds``, and every timing is the median over passes.

Every output is checked against an answer the program did not produce
(see ``answers.py``). A wrong verdict, an unexpected exit code, a
traceback, a budget-exceeded status, a killed hung child or a search
counter that differs between passes counts as a failed op and the run
goes on; ``correct`` is true only when no op failed.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json: ``cpu_s``, the summed CPU time (user plus system, from
``wait4``) of a pass's timed commands (``verify`` only checks an answer
and is not timed); ``setup_s``, the CPU time of interpreter start plus
``import iasgl.cli``, the median of five imports before the first pass
and one after every pass; and ``peak_rss_mb``, the largest child
``ru_maxrss`` of a pass. The commands are single-threaded and CPU-bound,
so their CPU time is the wall time they take on an idle machine; on a
shared virtual machine the wall time also holds whatever the host steals,
which spreads it by 10-30% between runs of the same code. Both times are
scaled to a reference host speed (see ``Runner.scaled``). The raw wall and
CPU times are reported too: per command in the report, and per pass as
the per-layer ``cli.wall_s`` and ``cli.cpu_s``. With ``--trace 1`` each pass also replays every command
in a traced process of its own (``replay.py``) and the result holds the
per-layer metrics; ``trace.overhead_s`` is the traced minus the
untraced wall time of the pass.

The last line of standard output is the JSON result; the lines before
it are a readable report. The full record (inputs, every op, counters,
spans, environment) is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import answers
import calibrate
import replay

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: A run must end well inside 180 s, whatever the program does.
RUN_CAP_S = 170.0
#: Wall-clock cap of one op; a child still running then is killed.
OP_CAP_S = 90.0
SETUP_SAMPLES = 5
#: CPU time of ``calibrate.py`` that the end-to-end times are scaled to,
#: about what it takes on the 2-vCPU host that defined this benchmark
#: when that host runs at its faster speed.
REFERENCE_CPU_S = 0.27

#: Search nodes at the commit that defined this benchmark. Reported
#: beside the measured count; a search change may move them.
BASELINE_NODES = {"broom-sweep": 4_858_976, "wide-n9": 511}

ENTRY = "import sys; from iasgl.cli import main; sys.exit(main())"


@dataclass
class Op:
    """One CLI command of a workload and how to check its answer."""

    op: str
    argv: list[str]
    check: Callable[[int | None, str], str | None]
    timed: bool = True
    counters: Callable[[dict], object] | None = None
    outputs: tuple[Path, ...] = ()

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class OpResult:
    op: str
    exit: int | None
    wall_s: float
    cpu_s: float = 0.0
    scaled_cpu_s: float = 0.0
    maxrss_kb: int = 0
    failure: str | None = None
    counters: object = None


@dataclass
class Pass:
    results: list[OpResult] = field(default_factory=list)
    replay: list[OpResult] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def write_broom(path: Path, seed: int) -> list[str]:
    """Write the 15-vertex broom and return its vertex ids (layout order).

    Layout: hub v0, leaves v1..v12, path v0-v13-v14. The DFS visits
    vertices by (-degree, id), so node counts depend on ids: with the
    path on v1-v2 instead, {0,1,2,3} is still undecided after 3,000,000
    nodes, against 1,041,353 for this layout. A nonzero seed therefore
    renames the vertices to fresh seeded names that sort the way the
    default names do, and shuffles the listing order; the search's
    order, and so every counter, is the same for every seed.
    """
    default = [f"v{i}" for i in range(15)]
    if seed == 0:
        ids = default
    else:
        rng = random.Random(seed)
        fresh: set[str] = set()
        while len(fresh) < len(default):
            fresh.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6)))
        rank = {v: i for i, v in enumerate(sorted(default))}
        ordered = sorted(fresh)
        ids = [ordered[rank[v]] for v in default]
    edges = [[ids[0], ids[i]] for i in range(1, 13)] + [[ids[0], ids[13]], [ids[13], ids[14]]]
    vertices = list(ids)
    if seed:
        rng.shuffle(vertices)
        rng.shuffle(edges)
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}) + "\n", encoding="utf-8")
    return ids


def _sweep_counters(payload: dict) -> list:
    return [
        [item["ground_set"], item["outcome"]["stats"]["nodes"], item["outcome"]["stats"]["prunes"]]
        for item in payload["sweep"]
    ]


def _search_counters(payload: dict) -> list:
    return [payload["stats"]["nodes"], payload["stats"]["prunes"]]


def check_broom(exit_code, stdout):
    # The broom is a tree with 2^4 - 2 edges that is not the star
    # S(2^4 - 2); by the tree theorem no ground set labels it.
    if exit_code != 1:
        return f"exit {exit_code}, expected 1 (nonexistent)"
    payload = json.loads(stdout)
    sets = [tuple(item["ground_set"]) for item in payload["sweep"]]
    if sets != answers.canonical_ground_sets(4, 5):
        return f"swept ground sets {sets} are not the canonical ones"
    for item in payload["sweep"]:
        status = item["outcome"]["status"]
        if status not in ("exhausted-none", "gate-rejected") or item["outcome"]["witnesses"]:
            return f"{item['ground_set']}: {status}, expected no labeling"
    return None


def check_classify(ground):
    def check(exit_code, stdout):
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        payload = json.loads(stdout)
        got = {tuple(s) for s in payload["non_summands"]}
        expected = answers.non_summands(ground)
        if got != expected:
            return (f"non_summands differ from the summand rule: {len(got - expected)} extra, "
                    f"{len(expected - got)} missing")
        neither = {tuple(s) for s in payload["neither"]}
        if neither != {tuple(s) for s in payload["non_sumsets"]} & got:
            return "neither is not non_sumsets & non_summands"
        return None
    return check


def check_star_search(path: Path, ground, leaves: int):
    def check(exit_code, stdout):
        if exit_code != 0:
            return f"exit {exit_code}, expected 0 (found)"
        if json.loads(stdout)["status"] != "found":
            return "status is not found"
        return answers.check_graceful_document(str(path), ground, hub_degree=leaves)
    return check


def check_verify(exit_code, stdout):
    if exit_code != 0 or json.loads(stdout)["iasgl"] is not True:
        return f"exit {exit_code}: witness not verified as IASGL"
    return None


def check_construct(path: Path, ground):
    def check(exit_code, stdout):
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        edges = json.loads(stdout)["edges"]
        if edges != (1 << len(ground)) - 2:
            return f"{edges} edges, expected {(1 << len(ground)) - 2}"
        return answers.check_graceful_document(str(path), ground)
    return check


def check_theorems(exit_code, stdout):
    if exit_code != 0:
        return f"exit {exit_code}, expected 0"
    payload = json.loads(stdout)
    totals = payload["totals"]
    if totals.get("Refuted", 0) or totals.get("Unknown-budget", 0):
        return f"totals {totals}: expected 0 Refuted and 0 Unknown-budget"
    if not payload["checks"] or totals.get("Confirmed") != len(payload["checks"]):
        return f"totals {totals} do not confirm all {len(payload['checks'])} checks"
    return None


def broom_sweep(seed: int, work: Path) -> tuple[list[Op], dict]:
    graph = work / "broom15.json"
    ids = write_broom(graph, seed)
    ops = [Op("search", ["search", "--graph", f"file:{graph}", "--ground-set", "sweep:n=4,max=5"],
              check_broom, counters=_sweep_counters)]
    return ops, {"broom_vertex_ids": ids}


def wide_n9(seed: int, work: Path) -> tuple[list[Op], dict]:
    # Ground sets may be written in any order; a nonzero seed shuffles it.
    rng = random.Random(seed)
    x10, x9 = list(range(10)), list(range(9))
    if seed:
        rng.shuffle(x10)
        rng.shuffle(x9)
    w, r = work / "W.json", work / "R.json"
    ops = [
        Op("classify", ["classify", "--ground-set", ",".join(map(str, x10))],
           check_classify(range(10))),
        Op("search", ["search", "--graph", "star:510", "--ground-set", ",".join(map(str, x9)),
                      "--out", str(w)],
           check_star_search(w, range(9), 510), counters=_search_counters, outputs=(w,)),
        Op("verify", ["verify", str(w)], check_verify, timed=False),
        Op("construct", ["construct", "--ground-set", ",".join(map(str, x9)), "--out", str(r)],
           check_construct(r, range(9)), outputs=(r,)),
    ]
    return ops, {"ground_set_args": [ops[0].argv[2], ops[1].argv[4]]}


def theorems_breadth(seed: int, work: Path) -> tuple[list[Op], dict]:
    # The harness bounds are the whole input; the seed changes nothing.
    ops = [Op("theorems", ["theorems", "--n-max", "5", "--max-element", "10"], check_theorems)]
    return ops, {}


WORKLOADS = {
    "broom-sweep": broom_sweep,
    "wide-n9": wide_n9,
    "theorems-breadth": theorems_breadth,
}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("IASGL_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], cap_s: float, stdout_path: Path, stderr_path: Path):
    """Run a child to exit.

    Returns (exit code or None if killed, wall s, CPU s, maxrss KB). CPU
    time is the child's user plus system time from ``wait4``.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        done = threading.Event()

        def kill() -> None:
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(cap_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if proc.returncode == -signal.SIGKILL else proc.returncode
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def judge(op: Op, exit_code, stdout: str, stderr: str) -> tuple[str | None, object]:
    """Return (failure reason or None, counters) for one op's output."""
    if "Traceback" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1], None
    if exit_code is None:
        return "killed at the wall-clock cap", None
    try:
        failure = op.check(exit_code, stdout)
        counters = op.counters(json.loads(stdout)) if op.counters and not failure else None
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", None
    return failure, counters


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.cli_dir = work / "cli"
        self.replay_dir = work / "replay"
        self.cli_dir.mkdir(parents=True)
        self.replay_dir.mkdir(parents=True)
        self.ops, self.inputs = WORKLOADS[workload](seed, self.cli_dir)
        self.references: list[float] = []
        self.replay_ops, _ = WORKLOADS[workload](seed, self.replay_dir)

    def cap(self) -> float:
        return max(1.0, min(OP_CAP_S, self.deadline - time.perf_counter()))

    def time_import(self) -> float | None:
        code, _, cpu, _ = spawn([sys.executable, "-c", "import iasgl.cli"], self.cap(),
                                self.work / "setup.out", self.work / "setup.err")
        return cpu if code == 0 else None

    def time_reference(self) -> None:
        code, _, cpu, _ = spawn([sys.executable, str(Path(calibrate.__file__))], self.cap(),
                                self.work / "reference.out", self.work / "reference.err")
        if code != 0:
            raise SetupError("the reference work (calibrate.py) failed")
        self.references.append(cpu)

    def scaled(self, cpu: float) -> float:
        """Scale a CPU time just measured to the reference host speed.

        The host's speed switches by up to 1.7x within seconds, and a
        CPU time moves with it; so does ``calibrate.py``. The time is
        multiplied by ``REFERENCE_CPU_S`` over the mean of the reference
        runs just before and just after it, which share its host state.
        """
        before = self.references[-1]
        self.time_reference()
        return cpu * REFERENCE_CPU_S * 2 / (before + self.references[-1])

    def time_setup(self) -> float | None:
        cpu = self.time_import()
        return None if cpu is None else self.scaled(cpu)

    def run_op(self, op: Op) -> OpResult:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        out, err = self.work / f"{op.op}.out", self.work / f"{op.op}.err"
        code, wall, cpu, rss = spawn([sys.executable, "-c", ENTRY, *op.argv], self.cap(), out, err)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        stderr = err.read_text(encoding="utf-8", errors="replace")
        failure, counters = judge(op, code, stdout, stderr)
        return OpResult(op.op, code, wall, cpu, self.scaled(cpu), rss, failure, counters)

    def run_replay(self) -> tuple[list[OpResult], list[dict]]:
        """Replay each command traced in its own process; spans get unique ids."""
        results, spans = [], []
        spec, result = self.work / "replay-spec.json", self.work / "replay-result.json"
        for op in self.replay_ops:
            for path in op.outputs:
                path.unlink(missing_ok=True)
            result.unlink(missing_ok=True)
            spec.write_text(json.dumps({"op": op.op, "argv": op.argv}), encoding="utf-8")
            code, wall, cpu, rss = spawn(
                [sys.executable, str(Path(replay.__file__)), str(spec), str(result)],
                self.cap(), self.work / "replay.out", self.work / "replay.err")
            if code != 0 or not result.exists():
                results.append(OpResult(op.op, None, 0.0, failure=f"traced replay exited {code}"))
                continue
            rec = json.loads(result.read_text(encoding="utf-8"))
            offset = len(spans)
            for s in rec["spans"]:
                s["id"] += offset
                if s["parent"] is not None:
                    s["parent"] += offset
            spans += rec["spans"]
            failure, counters = judge(op, rec["exit"], rec["stdout"], rec["stderr"])
            results.append(OpResult(op.op, rec["exit"], wall, cpu, 0.0, rss, failure, counters))
        return results, spans

    def run_pass(self, traced: bool) -> Pass:
        start = time.perf_counter()
        p = Pass(results=[self.run_op(op) for op in self.ops])
        if traced:
            p.replay, p.spans = self.run_replay()
        p.seconds = time.perf_counter() - start
        return p


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def find_nondeterminism(passes: list[Pass], ops: list[Op]) -> list[str]:
    """Ops whose search counters differ between passes and runs.

    Compared: the CLI's stats from every pass and from the traced
    replay, and the replay's nodes summed over SearchOutcome.stats.
    """
    mismatched = []
    for i, op in enumerate(ops):
        reported = [r.counters for p in passes for r in (p.results[i], *p.replay[i:i + 1])
                    if r.counters is not None]
        if not reported:
            continue
        traced_nodes = [
            sum(s.get("nodes", 0) for s in p.spans
                if s["op"] == op.op and s["name"] == "search.search_iasgl")
            for p in passes if p.replay and p.replay[i].counters is not None
        ]
        if (any(c != reported[0] for c in reported)
                or any(n != _counter_nodes(reported[0]) for n in traced_nodes)):
            mismatched.append(op.op)
    return mismatched


def _counter_nodes(counters) -> int:
    if counters and isinstance(counters[0], list):
        return sum(item[1] for item in counters)
    return counters[0]


def pass_wall(p: Pass, ops: list[Op]) -> float:
    return sum(r.wall_s for r, op in zip(p.results, ops) if op.timed)


def pass_cpu(p: Pass, ops: list[Op]) -> float:
    return sum(r.cpu_s for r, op in zip(p.results, ops) if op.timed)


def end_to_end(passes: list[Pass], ops: list[Op], setup: list[float]) -> dict[str, float]:
    return {
        "cpu_s": statistics.median(sum(r.scaled_cpu_s for r, op in zip(p.results, ops) if op.timed)
                                   for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(r.maxrss_kb for r in p.results) / 1024.0
                                         for p in passes),
    }


def per_layer(passes: list[Pass], ops: list[Op]) -> tuple[dict[str, float], list[str]]:
    """Median over passes of every per-layer metric, and a report.

    Each traced command's wall time (spawn to exit) splits exactly into
    the self time of its library spans, its probes, and ``cli`` self
    time: start-up, argument parsing, output and the tracer's own cost.
    """
    per_pass = []
    report = []
    for p in passes:
        m, library, probes = replay.summarise(p.spans)
        for command in ("classify", "search", "construct", "theorems"):
            m[f"cli.{command}_s"] = sum(r.wall_s for r, op in zip(p.results, ops)
                                        if op.command == command and op.timed)
        cli_self = {op.op: t.wall_s - library.get(op.op, 0.0) - probes.get(op.op, 0.0)
                    for t, op in zip(p.replay, ops)}
        m["cli.self_s"] = sum(cli_self.values())
        m["cli.wall_s"] = pass_wall(p, ops)
        m["cli.cpu_s"] = pass_cpu(p, ops)
        m["trace.wall_s"] = sum(r.wall_s for r, op in zip(p.replay, ops) if op.timed)
        m["trace.overhead_s"] = m["trace.wall_s"] - pass_wall(p, ops)
        per_pass.append(m)
        for r, t, op in zip(p.results, p.replay, ops):
            report.append(f"  {op.op:10s} untraced {r.wall_s:8.3f} s   traced {t.wall_s:8.3f} s "
                          f"= library {library.get(op.op, 0.0):8.3f} s "
                          f"+ probes {probes.get(op.op, 0.0):6.3f} s + cli {cli_self[op.op]:6.3f} s")
    metrics = {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in per_pass[0]}
    return metrics, report


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class SetupError(Exception):
    """The program cannot be measured at all; no result is printed."""


def measure(workload: str, seed: int, seconds: float, trace: bool,
            declared: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and a readable report."""
    run_start = time.perf_counter()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        runner = Runner(workload, seed, work, run_start + RUN_CAP_S)
        # The first import compiles bytecode, which users pay once per install.
        if runner.time_import() is None:
            raise SetupError("`import iasgl.cli` failed:\n"
                             + (work / "setup.err").read_text(encoding="utf-8", errors="replace"))
        runner.time_reference()
        setup = [runner.time_setup() for _ in range(SETUP_SAMPLES)]

        passes: list[Pass] = []
        measure_start = time.perf_counter()
        while True:
            passes.append(runner.run_pass(trace))
            # Imports spread over the run, so set-up time sees the same drift.
            setup.append(runner.time_setup())
            now = time.perf_counter()
            last = passes[-1].seconds
            if now - measure_start + last > seconds or now + last > run_start + RUN_CAP_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if None in setup:
        raise SetupError("`import iasgl.cli` failed during the run")
    ops = runner.ops
    results = [r for p in passes for r in p.results + p.replay]
    failures = [f"{r.op}: {r.failure}" for r in results if r.failure]
    nondeterministic = find_nondeterminism(passes, ops)
    failures += [f"{name}: search counters differ between passes" for name in nondeterministic]
    attempted = len(results)
    failed = sum(1 for r in results if r.failure) + len(nondeterministic)

    report = [f"workload {workload}  seed {seed}  passes {len(passes)}  "
              f"ops {attempted}  failed {failed}  fail_ratio {failed / attempted:.4f}"]
    for i, op in enumerate(ops):
        walls = [p.results[i].wall_s for p in passes]
        cpus = [p.results[i].cpu_s for p in passes]
        report.append(f"  {op.op:10s} median wall {statistics.median(walls):8.3f} s, "
                      f"CPU {statistics.median(cpus):8.3f} s over {len(walls)} passes"
                      f"{'' if op.timed else ' (check only, untimed)'}")
    for i, op in enumerate(ops):
        counters = next((p.results[i].counters for p in passes if p.results[i].counters), None)
        if counters is not None:
            report.append(f"  {op.op:10s} search nodes {_counter_nodes(counters)} "
                          f"(baseline {BASELINE_NODES.get(workload)})")
    report += [f"  FAILED {line}" for line in failures]

    metrics = end_to_end(passes, ops, setup)
    metrics["host.reference_cpu_s"] = statistics.median(runner.references)
    report.append(f"  setup_s is the median scaled CPU time of {len(setup)} imports; "
                  f"{len(runner.references)} reference runs")
    if trace:
        layer_metrics, accounting = per_layer(passes, ops)
        metrics.update(layer_metrics)
        report += ["per command: traced wall = library self time + probes + cli self time",
                   *accounting]
    wanted = declared["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    record = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "IASGL_THREADS": os.environ.get("IASGL_THREADS"),
            "seed": seed,
            "seconds": seconds,
        },
        "inputs": {"ops": [op.argv for op in ops], **runner.inputs},
        "baseline_nodes": BASELINE_NODES.get(workload),
        "passes": [
            {"seconds": p.seconds, "ops": [vars(r) for r in p.results],
             "replay": [vars(r) for r in p.replay]}
            for p in passes
        ],
        "setup_s": setup,
        "reference_cpu_s": runner.references,
        "failures": failures,
        "metrics": metrics,
        "result": result,
        "spans": [p.spans for p in passes],
    }
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name in sorted(metrics):
        report.append(f"  {name:32s} {metrics[name]:16.6f} {units.get(name, '')}")
    report.append(f"record: {record_path.relative_to(ROOT)}")
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iasgl" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'iasgl' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name], report = measure(name, args.seed, args.seconds, bool(args.trace),
                                            declared)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(report), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
