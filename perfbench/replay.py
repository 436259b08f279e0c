"""Traced in-process replay of a workload's CLI commands.

    python3 perfbench/replay.py SPEC.json RESULT.json

SPEC is {"op": ID, "argv": [...]}: one command, run through
``iasgl.cli.main`` in this fresh process, so it starts as cold as the
CLI does. Spans are recorded around the calls that cross a layer
boundary: the public functions of ``BOUNDARIES`` are rebound, for the
length of the replay, in every iasgl module that holds them, so calls
from other layers (and a layer's calls to itself) pass through the
tracer. The program's files are not changed.

After each ``search_iasgl`` call that built its tables, the table build
is measured once more as a probe (the same call with ``node_budget=1``
and the gate off, untraced inside). Probe spans belong to no layer: the
enclosing spans' self time excludes them and their time shows up only
as tracing overhead.

Spans (name, start, end, parent, op) stay in memory and are written
once, with the command's exit code and output, when the replay ends.
``summarise`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import sys
import time
import traceback
from collections import defaultdict

LAYERS = ("cli", "io", "sets", "graphs", "labeling", "search", "realisation", "harness")

#: Public functions spanned, by defining layer; harness adds every check_*.
BOUNDARIES = {
    "io": ("load_document", "dump_document", "document_from_graph", "labeling_to_obj"),
    "sets": ("classify_ground_set", "enumerate_canonical_ground_sets"),
    "graphs": ("generate", "enumerate_free_trees"),
    "labeling": ("structural_gate", "verify_iasl", "verify_iasi", "verify_iasgl"),
    "search": ("search_iasgl", "sweep_ground_sets"),
    "realisation": ("build_realisation",),
    "harness": ("run_all",),
}

#: The harness checks run_all calls, one metric each (0 where not run).
HARNESS_CHECKS = (
    "star_theorem", "tree_theorem", "path_cycle",
    "complete_graphs", "pendant_bounds", "edge_count",
)

PRUNE_RULES = ("P1", "P2", "P3", "P4", "gate")
SETUP_PROBE = "probe.search_setup"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans), "name": name, "start": time.perf_counter(),
            "end": None, "parent": self.stack[-1] if self.stack else None, "op": self.op,
        }
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            self.stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(record, result, args, kwargs)
                return result

        return traced


def _observers(tracer: Tracer, modules: dict):
    search_mod = modules["search"]
    search_fn = search_mod.search_iasgl
    signature = inspect.signature(search_fn)

    def search(record, outcome, args, kwargs):
        stats = outcome.stats
        record["nodes"] = stats.nodes
        record["prunes"] = dict(stats.prunes)
        record["status"] = outcome.status.value
        if outcome.status.value == "gate-rejected":
            return
        bound = signature.bind(*args, **kwargs)
        cfg = bound.arguments.get("cfg") or search_mod.SearchConfig()
        probe_cfg = dataclasses.replace(
            cfg, node_budget=1, disabled_rules=frozenset(cfg.disabled_rules) | {"gate"}
        )
        tracer.paused = True
        try:
            with tracer.span(SETUP_PROBE):
                search_fn(bound.arguments["g"], bound.arguments["x"], probe_cfg)
        finally:
            tracer.paused = False

    def gate(record, report, args, kwargs):
        record["passed"] = bool(report.passed)

    def realisation(record, result, args, kwargs):
        record["edges"] = result.graph.edge_count()
        record["vertices"] = len(result.graph.vertex_ids)

    return {
        "search.search_iasgl": search,
        "labeling.structural_gate": gate,
        "realisation.build_realisation": realisation,
    }


def _install(tracer: Tracer, modules: dict) -> list[tuple[object, str, object]]:
    """Rebind every boundary function; return what to restore."""
    observers = _observers(tracer, modules)
    boundaries = {layer: list(names) for layer, names in BOUNDARIES.items()}
    boundaries["harness"] += [n for n in vars(modules["harness"]) if n.startswith("check_")]
    restore = []
    for layer, names in boundaries.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            span_name = f"{layer}.{fname}"
            traced = tracer.wrap(span_name, original, observers.get(span_name))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, attr, value))
                        setattr(module, attr, traced)
    return restore


def _run_command(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        except Exception:  # reported as a failed op, never a crash of the replay
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def replay(op: str, argv: list[str]) -> dict:
    modules = {layer: importlib.import_module(f"iasgl.{layer}") for layer in LAYERS}
    tracer = Tracer()
    tracer.op = op
    restore = _install(tracer, modules)
    try:
        with tracer.span("cli.main") as record:
            code, out, err = _run_command(modules["cli"], argv)
    finally:
        for module, attr, value in reversed(restore):
            setattr(module, attr, value)
    return {
        "op": op, "exit": code, "stdout": out, "stderr": err,
        "wall_s": record["end"] - record["start"], "spans": tracer.spans,
    }


#: Spans whose inclusive time (outermost span only) makes a metric.
INCLUSIVE = {
    "sets.classify_ground_set": "sets.classify_s",
    "labeling.verify_iasl": "labeling.verify_s",
    "labeling.verify_iasi": "labeling.verify_s",
    "labeling.verify_iasgl": "labeling.verify_s",
    "graphs.generate": "graphs.generate_s",
    "graphs.enumerate_free_trees": "graphs.free_trees_s",
    "io.load_document": "io.load_s",
    "io.dump_document": "io.dump_s",
    **{f"harness.check_{c}": f"harness.check_s.{c}" for c in HARNESS_CHECKS},
}


def summarise(spans: list[dict]) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Per-layer metrics, and per op the self time of its library layers
    and the time of its probes.

    A span's self time is its duration minus its children's. Inclusive
    times leave out any probe beneath the span.
    """
    by_id = {s["id"]: s for s in spans}
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    probe_time: dict[int, float] = defaultdict(float)
    for s in reversed(spans):
        if s["name"] == SETUP_PROBE:
            probe_time[s["id"]] = duration[s["id"]]
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[s["id"]]
            probe_time[s["parent"]] += probe_time[s["id"]]

    def self_time(s):
        return duration[s["id"]] - child_time[s["id"]]

    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS if layer != "cli"}
    m.update(dict.fromkeys(INCLUSIVE.values(), 0.0))
    m.update(dict.fromkeys((f"search.prunes.{rule}" for rule in PRUNE_RULES), 0))
    for key in ("sets.classify_calls", "search.setup_s", "search.calls", "search.nodes",
                "labeling.gate_s", "labeling.gate_rejects", "realisation.build_s",
                "realisation.edges", "realisation.vertices"):
        m[key] = 0
    search_self = item_total = 0.0
    library_by_op: dict[str, float] = defaultdict(float)
    probe_by_op: dict[str, float] = defaultdict(float)

    for s in spans:
        name = s["name"]
        if name == SETUP_PROBE:
            m["search.setup_s"] += duration[s["id"]]
            probe_by_op[s["op"]] += duration[s["id"]]
            continue
        layer = name.partition(".")[0]
        if layer != "cli":
            m[f"{layer}.self_s"] += self_time(s)
            library_by_op[s["op"]] += self_time(s)
        key = INCLUSIVE.get(name)
        parent = by_id.get(s["parent"])
        if key and (parent is None or INCLUSIVE.get(parent["name"]) != key):
            m[key] += duration[s["id"]] - probe_time[s["id"]]
        if name == "sets.classify_ground_set":
            m["sets.classify_calls"] += 1
        elif name == "search.search_iasgl":
            search_self += self_time(s)
            item_total += duration[s["id"]] - probe_time[s["id"]]
            m["search.calls"] += 1
            m["search.nodes"] += s.get("nodes", 0)
            for rule, count in s.get("prunes", {}).items():
                m[f"search.prunes.{rule}"] = m.get(f"search.prunes.{rule}", 0) + count
        elif name == "labeling.structural_gate":
            m["labeling.gate_s"] += self_time(s)
            m["labeling.gate_rejects"] += 0 if s.get("passed", True) else 1
        elif name == "realisation.build_realisation":
            m["realisation.build_s"] += self_time(s)
            m["realisation.edges"] += s.get("edges", 0)
            m["realisation.vertices"] += s.get("vertices", 0)

    nodes = m["search.nodes"]
    m["search.dfs_s"] = search_self - m["search.setup_s"]
    m["search.item_s"] = item_total / m["search.calls"] if m["search.calls"] else 0.0
    m["search.nodes_per_s"] = nodes / m["search.dfs_s"] if m["search.dfs_s"] > 0 else 0.0
    admitted = nodes - sum(m[f"search.prunes.{r}"] for r in ("P1", "P2", "P3"))
    m["search.admit_ratio"] = admitted / nodes if nodes else 0.0
    m["trace.spans"] = len(spans)
    m["trace.probe_s"] = m["search.setup_s"]
    return m, dict(library_by_op), dict(probe_by_op)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = replay(spec["op"], spec["argv"])
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
