"""Command-line surface: classify, search, verify, construct, theorems.

Output is machine-parseable JSON by default (``--format table`` for a
human-aligned view). Exit codes are a stable contract:

* search: 0 found, 1 nonexistent, 2 budget exceeded, 3 gate-rejected
  (sweeps: 0 if anything was found, 2 if undecided by budget, else 1)
* verify: 0 only for a full graceful set-indexer; the three rungs are
  read off one ``verify_ladder`` pass
* construct: 0 on success
* theorems: 0 unless some check was refuted
* usage and input errors exit 2 via the command's own argument parser
  (``iasgl <command>: error: ...``): bad flags, malformed ground sets,
  graph specs and documents, ground sets above the subset cap (sweeps
  and ``verify`` documents too), family graph specs with more than
  2^SUBSET_ENUMERATION_CAP - 2 edges (rejected before the graph is
  built), ground-set families above ``GROUND_SET_FAMILY_CAP`` (sweeps
  and ``theorems``) and bad ``theorems`` bounds
* an output path that cannot be written (``--out``, ``--dot``,
  ``--report``) exits 2 after the result was printed, naming the path
* an unexpected internal error prints its traceback and exits 70
  (``EXIT_INTERNAL_ERROR``), never 0 or 1

A process loads only the layers its command runs: at import this module
needs ``sets`` alone (ground-set parsing and ``classify``), and each
``cmd_*`` imports what it calls.
"""

from __future__ import annotations

import argparse
import sys

from .sets import SUBSET_ENUMERATION_CAP, GroundSet, IntegerSet, SummandMode, classify_ground_set

#: Exit code of an unexpected internal error (sysexits' EX_SOFTWARE).
EXIT_INTERNAL_ERROR = 70

#: Exit code of one search by the value of its ``SearchStatus``.
_EXIT_BY_STATUS = {"found": 0, "exhausted-none": 1, "budget-exceeded": 2, "gate-rejected": 3}


def _parse_ground_set(text: str, parser: argparse.ArgumentParser) -> GroundSet:
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
    if not ground.contains_zero():
        parser.error("graceful ground set must contain 0")
    return ground


def _parse_graph(spec: str, parser: argparse.ArgumentParser):
    from .graphs import family_edge_count, generate

    kind, _, arg = spec.partition(":")
    if kind == "file":
        from .io import load_document

        try:
            return load_document(arg).to_graph()
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read graph file {arg!r}: {exc}")
    if kind in {"star", "path", "cycle", "complete"}:
        try:
            size = int(arg)
        except ValueError as exc:
            parser.error(str(exc))
        # An IASGL over X has 2^|X| - 2 edges, so a family member with
        # more edges than the subset cap allows is rejected unbuilt.
        edges = family_edge_count(kind, size)
        if edges > (1 << SUBSET_ENUMERATION_CAP) - 2:
            parser.error(
                f"graph spec {spec!r} has {edges} edges, but a ground set of at most "
                f"{SUBSET_ENUMERATION_CAP} elements labels at most "
                f"2^{SUBSET_ENUMERATION_CAP} - 2 edges"
            )
        try:
            return generate(kind, size)
        except ValueError as exc:
            parser.error(str(exc))
    parser.error(f"bad graph spec: {spec!r} (use star:m|path:m|cycle:m|complete:m|file:PATH)")


def _parse_sweep(text: str, parser: argparse.ArgumentParser) -> tuple[int, int]:
    """(n, max) of ``sweep:n=N,max=M``: both keys exactly once, nothing else."""
    parts = text.removeprefix("sweep:").split(",")
    params = dict(part.split("=", 1) for part in parts if "=" in part)
    try:
        if len(parts) != 2 or sorted(params) != ["max", "n"]:
            raise ValueError(text)
        return int(params["n"]), int(params["max"])
    except ValueError:
        parser.error(f"bad sweep spec: {text!r} (use sweep:n=N,max=M)")


def _write_document(doc, path: str, parser: argparse.ArgumentParser) -> None:
    from .io import dump_document

    try:
        dump_document(doc, path)
    except OSError as exc:
        _unwritable(path, exc, parser)
    except ValueError as exc:
        # Two edges whose "u--v" keys coincide: the document would lose a label.
        parser.error(f"cannot write {path!r}: {exc}")


def _write_text(text: str, path: str, parser: argparse.ArgumentParser) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _unwritable(path, exc, parser)


def _unwritable(path: str, exc: OSError, parser: argparse.ArgumentParser) -> None:
    # No such directory, no permission: an input error, not a defect.
    parser.error(f"cannot write {path!r}: {exc.strerror or exc}")


def _emit(payload: dict, args, table) -> None:
    """Print the payload as JSON, or under ``--format table`` the lines
    that the callable ``table`` returns; it is called only then.

    The JSON text is ``json.dumps(payload, indent=2, sort_keys=True)``
    byte for byte, written by ``_jsonout.dumps`` (imported here, so that
    importing this module still loads only ``sets``), which formats
    huge ints such as a search's orbit count 65534! in subquadratic
    time.

    All input is parsed by now, under the interpreter's int-to-decimal
    digit limit (4,300 by default, where it exists), its guard against
    quadratic int parsing. The limit is lifted only while the output is
    formatted: a search's orbit count such as 2046! has more digits.
    """
    from ._jsonout import dumps

    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    if args.format == "table":
        text = "\n".join(table())
    else:
        text = dumps(payload)
    if limit:
        sys.set_int_max_str_digits(limit)
    print(text)


def _sets_arr(family) -> list[list[int]]:
    return [list(s.elements) for s in family]


def cmd_classify(args, parser) -> int:
    ground = _parse_ground_set(args.ground_set, parser)
    mode = SummandMode.ALLOW_EQUAL if args.allow_equal_summands else SummandMode.DISTINCT_LABELS
    try:
        cls = classify_ground_set(ground, mode)
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
    _emit(payload, args, lambda: [
        f"ground set    {ground}",
        f"mode          {cls.mode.value}",
        f"non-sumsets   ({len(cls.non_sumsets)})  " + " ".join(str(s) for s in cls.non_sumsets),
        f"non-summands  ({len(cls.non_summands)})  " + " ".join(str(s) for s in cls.non_summands),
        f"neither       ({len(cls.neither)})  " + " ".join(str(s) for s in cls.neither),
    ])
    return 0


def _outcome_obj(outcome) -> dict:
    from .io import labeling_to_obj

    return {
        "status": outcome.status.value,
        "witnesses": [labeling_to_obj(w) for w in outcome.witnesses],
        "stats": outcome.stats.to_obj(),
        "budget_stop": outcome.budget_stop,
        "labelings": outcome.labelings,
    }


def cmd_search(args, parser) -> int:
    from ._jsonout import dumps
    from .io import document_from_graph
    from .search import SearchConfig, SearchStatus, search_iasgl, sweep_ground_sets

    graph = _parse_graph(args.graph, parser)
    try:
        cfg = SearchConfig(
            node_budget=args.node_budget,
            time_budget_ms=args.time_budget_ms,
            find_all=args.find_all,
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
        witness = next((o.witnesses[0] for o in outcomes.values() if o.found), None)
        _emit(payload, args, lambda: [
            f"{str(x):16s} {o.status.value:16s} nodes={o.stats.nodes}"
            for x, o in outcomes.items()
        ])
        if args.out and witness is not None:
            _write_document(document_from_graph(graph, witness), args.out, parser)
        if any(o.found for o in outcomes.values()):
            return 0
        if any(o.status is SearchStatus.BUDGET_EXCEEDED for o in outcomes.values()):
            return 2
        return 1

    ground = _parse_ground_set(args.ground_set, parser)
    try:
        outcome = search_iasgl(graph, ground, cfg)
    except ValueError as exc:
        parser.error(str(exc))
    payload = _outcome_obj(outcome)
    _emit(payload, args, lambda: [
        f"status   {outcome.status.value}",
        f"nodes    {outcome.stats.nodes}",
        f"prunes   {outcome.stats.prunes}",
        f"witnesses {len(outcome.witnesses)}",
        # JSON text of an int is its decimal digits, huge counts included.
        f"labelings {dumps(outcome.labelings)}",
        f"budget   {outcome.budget_stop or 'none'}",
    ])
    if args.out and outcome.witnesses:
        _write_document(document_from_graph(graph, outcome.witnesses[0]), args.out, parser)
    return _EXIT_BY_STATUS[outcome.status.value]


def cmd_verify(args, parser) -> int:
    from .io import load_document
    from .labeling import verify_ladder

    try:
        doc = load_document(args.document)
        graph = doc.to_graph()
        labeling = doc.to_labeling()
    except (OSError, ValueError) as exc:
        parser.error(f"cannot verify {args.document!r}: {exc}")
    # Naming missing targets enumerates every subset of X.
    if labeling.ground.n > SUBSET_ENUMERATION_CAP:
        parser.error(f"cannot verify {args.document!r}: ground set too large")
    reports = verify_ladder(graph, labeling)
    climbed = sum(1 for r in reports if r.passed)
    highest = ("none", "IASL", "IASI", "IASGL")[climbed]
    violations = [v.to_obj() for v in reports[-1].violations]
    payload = {
        "iasl": climbed >= 1,
        "iasi": climbed >= 2,
        "iasgl": climbed >= 3,
        "highest": highest,
        "violations": violations,
    }
    _emit(payload, args, lambda: [f"highest rung  {highest}"] + [
        f"violation     [{v['rule']}] {v['detail']}" for v in violations
    ])
    return 0 if highest == "IASGL" else 1


def cmd_construct(args, parser) -> int:
    from .graphs import pendant_vertices
    from .io import document_from_graph
    from .realisation import build_realisation

    ground = _parse_ground_set(args.ground_set, parser)
    try:
        result = build_realisation(ground)
    except ValueError as exc:
        parser.error(str(exc))
    graph, labeling = result.graph, result.labeling
    # The document's edge labels are the verified labeling's f(u) + f(v);
    # each target is the label of exactly one edge, which traces it.
    doc = document_from_graph(graph, labeling)
    non_bipartite = result.non_bipartite
    payload = {
        "vertices": len(graph.vertex_ids),
        "edges": graph.edge_count(),
        "pendants": len(pendant_vertices(graph)),
        "bipartite": not non_bipartite,
        "non_bipartite": non_bipartite,
        "trace": {str(lab): list(e) for e, lab in doc.edge_labels.items()},
    }
    _emit(payload, args, lambda: [
        f"vertices   {payload['vertices']}",
        f"edges      {payload['edges']}",
        f"pendants   {payload['pendants']}",
        f"bipartite  {payload['bipartite']}",
    ])
    if args.out:
        _write_document(doc, args.out, parser)
    if args.dot:
        from .io import to_dot

        _write_text(to_dot(doc), args.dot, parser)
    return 0


def cmd_theorems(args, parser) -> int:
    from .harness import HarnessConfig, run_all

    try:
        config = HarnessConfig(n_range=(args.n_min, args.n_max), max_element=args.max_element)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_all(config)
    payload = report.to_obj()
    _emit(payload, args, lambda: [
        f"{c.status:16s} {c.check_id:34s} {c.evidence}" for c in report.checks
    ] + [f"totals: {report.totals}"])
    if args.report:
        from datetime import datetime, timezone

        from ._jsonout import dumps

        # Timestamp lives outside the deterministic body of the report.
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        _write_text(dumps(payload) + "\n", args.report, parser)
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
    p.set_defaults(func=cmd_classify, parser=p)

    p = sub.add_parser("search", parents=[common], help="decide whether a graph admits a labeling")
    p.add_argument("--graph", required=True, metavar="star:6|path:5|cycle:6|complete:4|file:PATH")
    p.add_argument("--ground-set", required=True, metavar="0,1,2|sweep:n=3,max=6")
    p.add_argument("--node-budget", type=int, default=10_000_000)
    p.add_argument("--time-budget-ms", type=int, default=60_000)
    p.add_argument("--find-all", action="store_true")
    p.add_argument("--no-gate", action="store_true",
                   help="skip the structural gate and explore exhaustively")
    p.add_argument("--out", metavar="PATH", help="write the first witness document")
    p.set_defaults(func=cmd_search, parser=p)

    p = sub.add_parser("verify", parents=[common], help="verify a labeled document")
    p.add_argument("document", metavar="PATH")
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("construct", parents=[common], help="build a graceful graph-realisation")
    p.add_argument("--ground-set", required=True, metavar="0,1,2")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(func=cmd_construct, parser=p)

    p = sub.add_parser("theorems", parents=[common], help="run the desk-scale theorem harness")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--max-element", type=int, default=8)
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func=cmd_theorems, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Every usage error of a command, whether argparse or its ``cmd_*``
    finds it, reads ``iasgl <command>: error: ...``: each ``cmd_*`` is
    handed its own subparser, which also reports unknown arguments.
    SystemExit (usage errors) and KeyboardInterrupt pass through; any
    other exception is a defect, reported with its traceback on stderr
    and EXIT_INTERNAL_ERROR, so it is never read as a verdict.
    """
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args, args.parser)
    except Exception:
        import traceback  # only on this path, to keep CLI start-up lean

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
