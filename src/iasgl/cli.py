"""Command-line surface: classify, search, verify, construct, theorems.

Output is machine-parseable JSON by default (``--format table`` for a
human-aligned view). Exit codes are a stable contract:

* search: 0 found, 1 nonexistent, 2 budget exceeded, 3 gate-rejected
  (sweeps: 0 if anything was found, 2 if undecided by budget, else 1)
* verify: 0 only for a full graceful set-indexer
* construct: 0 on success, 4 when no exact assignment exists
* theorems: 0 unless some check was refuted
* usage and input errors exit 2 via the argument parser
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as iasgl_io
from .harness import HarnessConfig, run_all
from .labeling import verify_iasgl, verify_iasi, verify_iasl
from .realisation import RealisationInfeasible, build_realisation
from .search import SearchConfig, SearchStatus, search_iasgl, sweep_ground_sets
from .sets import GroundSet, IntegerSet, SummandMode, classify_ground_set
from .graphs import generate, is_bipartite, pendant_vertices

_EXIT_BY_STATUS = {
    SearchStatus.FOUND: 0,
    SearchStatus.EXHAUSTED_NONE: 1,
    SearchStatus.BUDGET_EXCEEDED: 2,
    SearchStatus.GATE_REJECTED: 3,
}


def _parse_ground_set(text: str, parser: argparse.ArgumentParser, require_zero: bool = True) -> GroundSet:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        parser.error(f"malformed ground set: {text!r}")
    if not values:
        parser.error("empty ground set")
    if len(values) != len(set(values)):
        print("warning: duplicate elements in ground set were dropped", file=sys.stderr)
    if any(v < 0 for v in values):
        parser.error("ground set elements must be non-negative")
    ground = GroundSet(IntegerSet.from_iterable(values))
    if require_zero and not ground.contains_zero():
        parser.error("graceful ground set must contain 0")
    return ground


def _parse_graph(spec: str, parser: argparse.ArgumentParser):
    kind, _, arg = spec.partition(":")
    if kind == "file":
        try:
            return iasgl_io.load_document(arg).to_graph()
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read graph file {arg!r}: {exc}")
    if kind in {"star", "path", "cycle", "complete"}:
        try:
            return generate(kind, int(arg))
        except ValueError as exc:
            parser.error(str(exc))
    parser.error(f"bad graph spec: {spec!r} (use star:m|path:m|cycle:m|complete:m|file:PATH)")


def _parse_sweep(text: str, parser: argparse.ArgumentParser) -> tuple[int, int]:
    body = text.removeprefix("sweep:")
    params = dict(part.split("=", 1) for part in body.split(",") if "=" in part)
    try:
        return int(params["n"]), int(params["max"])
    except (KeyError, ValueError):
        parser.error(f"bad sweep spec: {text!r} (use sweep:n=N,max=M)")


def _mode(args) -> SummandMode:
    return SummandMode.ALLOW_EQUAL if args.allow_equal_summands else SummandMode.DISTINCT_LABELS


def _emit(payload: dict, args, table: list[str] | None = None) -> None:
    if args.format == "table" and table is not None:
        print("\n".join(table))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _sets_arr(family) -> list[list[int]]:
    return [list(s.elements) for s in family]


def cmd_classify(args, parser) -> int:
    ground = _parse_ground_set(args.ground_set, parser)
    try:
        cls = classify_ground_set(ground, _mode(args))
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "ground_set": list(ground.base.elements),
        "mode": cls.mode.value,
        "non_sumsets": _sets_arr(cls.non_sumsets),
        "non_summands": _sets_arr(cls.non_summands),
        "neither": _sets_arr(cls.neither),
        "counts": {
            "non_sumsets": len(cls.non_sumsets),
            "non_summands": len(cls.non_summands),
            "neither": len(cls.neither),
        },
    }
    table = [
        f"ground set    {ground}",
        f"mode          {cls.mode.value}",
        f"non-sumsets   ({len(cls.non_sumsets)})  " + " ".join(str(s) for s in cls.non_sumsets),
        f"non-summands  ({len(cls.non_summands)})  " + " ".join(str(s) for s in cls.non_summands),
        f"neither       ({len(cls.neither)})  " + " ".join(str(s) for s in cls.neither),
    ]
    _emit(payload, args, table)
    return 0


def _outcome_obj(outcome) -> dict:
    return {
        "status": outcome.status.value,
        "witnesses": [iasgl_io.labeling_to_obj(w) for w in outcome.witnesses],
        "stats": outcome.stats.to_obj(),
    }


def cmd_search(args, parser) -> int:
    graph = _parse_graph(args.graph, parser)
    try:
        cfg = SearchConfig(
            mode=_mode(args),
            node_budget=args.node_budget,
            time_budget_ms=args.time_budget_ms,
            find_all=args.find_all,
            seed=args.seed,
            disabled_rules=frozenset({"gate"}) if args.no_gate else frozenset(),
        )
    except ValueError as exc:
        parser.error(str(exc))

    if args.ground_set.startswith("sweep:"):
        n, max_element = _parse_sweep(args.ground_set, parser)
        try:
            outcomes = sweep_ground_sets(graph, n, max_element, cfg)
        except ValueError as exc:
            parser.error(str(exc))
        payload = {
            "sweep": [
                {"ground_set": list(x.base.elements), "outcome": _outcome_obj(o)}
                for x, o in outcomes.items()
            ],
            "summary": {
                "total": len(outcomes),
                "found": sum(1 for o in outcomes.values() if o.found),
            },
        }
        table = [
            f"{str(x):16s} {o.status.value:16s} nodes={o.stats.nodes}"
            for x, o in outcomes.items()
        ]
        witness = next((o.witnesses[0] for o in outcomes.values() if o.found), None)
        _emit(payload, args, table)
        if args.out and witness is not None:
            _write_witness(graph, witness, args.out)
        if any(o.found for o in outcomes.values()):
            return 0
        if any(o.status is SearchStatus.BUDGET_EXCEEDED for o in outcomes.values()):
            return 2
        return 1

    ground = _parse_ground_set(args.ground_set, parser)
    outcome = search_iasgl(graph, ground, cfg)
    payload = _outcome_obj(outcome)
    table = [
        f"status   {outcome.status.value}",
        f"nodes    {outcome.stats.nodes}",
        f"prunes   {outcome.stats.prunes}",
        f"witnesses {len(outcome.witnesses)}",
    ]
    _emit(payload, args, table)
    if args.out and outcome.witnesses:
        _write_witness(graph, outcome.witnesses[0], args.out)
    return _EXIT_BY_STATUS[outcome.status]


def _write_witness(graph, labeling, path: str) -> None:
    doc = iasgl_io.document_from_graph(graph, labeling, include_edge_labels=True)
    iasgl_io.dump_document(doc, path)


def cmd_verify(args, parser) -> int:
    try:
        doc = iasgl_io.load_document(args.document)
        graph = doc.to_graph()
        labeling = doc.to_labeling()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        parser.error(f"cannot verify {args.document!r}: {exc}")
    reports = {
        "IASL": verify_iasl(graph, labeling),
        "IASI": verify_iasi(graph, labeling),
        "IASGL": verify_iasgl(graph, labeling),
    }
    highest = "none"
    for rung in ("IASL", "IASI", "IASGL"):
        if reports[rung].passed:
            highest = rung
    violations = [v.to_obj() for v in reports["IASGL"].violations]
    payload = {
        "iasl": reports["IASL"].passed,
        "iasi": reports["IASI"].passed,
        "iasgl": reports["IASGL"].passed,
        "highest": highest,
        "violations": violations,
    }
    table = [f"highest rung  {highest}"] + [
        f"violation     [{v['rule']}] {v['detail']}" for v in violations
    ]
    _emit(payload, args, table)
    return 0 if reports["IASGL"].passed else 1


def cmd_construct(args, parser) -> int:
    ground = _parse_ground_set(args.ground_set, parser)
    try:
        result = build_realisation(ground, args.prefer_nonbipartite, _mode(args))
    except RealisationInfeasible as exc:
        payload = {
            "error": "infeasible",
            "unassignable": _sets_arr(exc.unassignable),
        }
        _emit(payload, args, [f"infeasible: {exc}"])
        return 4
    except ValueError as exc:
        parser.error(str(exc))
    graph, labeling = result.graph, result.labeling
    payload = {
        "vertices": len(graph.vertex_ids),
        "edges": graph.edge_count(),
        "pendants": len(pendant_vertices(graph)),
        "bipartite": is_bipartite(graph),
        "non_bipartite": result.non_bipartite,
        "trace": {str(t): list(e) for t, e in result.assignment_trace},
    }
    table = [
        f"vertices   {payload['vertices']}",
        f"edges      {payload['edges']}",
        f"pendants   {payload['pendants']}",
        f"bipartite  {payload['bipartite']}",
    ]
    _emit(payload, args, table)
    if args.out:
        doc = iasgl_io.document_from_graph(graph, labeling, include_edge_labels=True)
        iasgl_io.dump_document(doc, args.out)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(iasgl_io.to_dot(graph, labeling))
    return 0


def cmd_theorems(args, parser) -> int:
    config = HarnessConfig(
        n_range=(args.n_min, args.n_max),
        max_element=args.max_element,
        tree_sizes=tuple(args.trees),
        diophantine_max=args.diophantine_max,
    )
    report = run_all(config)
    payload = report.to_obj()
    table = [f"{c.status:16s} {c.check_id:34s} {c.evidence}" for c in report.checks] + [
        f"totals: {report.totals}"
    ]
    _emit(payload, args, table)
    if args.report:
        from datetime import datetime, timezone

        # Timestamp lives outside the deterministic body of the report.
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.refuted == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iasgl",
        description="Integer additive set-graceful labeling toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify subsets of a ground set", parents=[common])
    p.add_argument("--ground-set", required=True, metavar="0,1,2")
    p.add_argument("--allow-equal-summands", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search", parents=[common], help="decide whether a graph admits a labeling")
    p.add_argument("--graph", required=True, metavar="star:6|path:5|cycle:6|complete:4|file:PATH")
    p.add_argument("--ground-set", required=True, metavar="0,1,2|sweep:n=3,max=6")
    p.add_argument("--node-budget", type=int, default=10_000_000)
    p.add_argument("--time-budget-ms", type=int, default=60_000)
    p.add_argument("--find-all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-gate", action="store_true",
                   help="skip the structural gate and explore exhaustively")
    p.add_argument("--allow-equal-summands", action="store_true")
    p.add_argument("--out", metavar="PATH", help="write the first witness document")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", parents=[common], help="verify a labeled document")
    p.add_argument("document", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", parents=[common], help="build a graceful graph-realisation")
    p.add_argument("--ground-set", required=True, metavar="0,1,2")
    p.add_argument("--prefer-nonbipartite", action="store_true")
    p.add_argument("--allow-equal-summands", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("theorems", parents=[common], help="run the desk-scale theorem harness")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--max-element", type=int, default=8)
    p.add_argument("--trees", type=int, nargs="+", default=[3, 7])
    p.add_argument("--diophantine-max", type=int, default=30)
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func=cmd_theorems)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
