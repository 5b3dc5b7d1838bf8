"""Command-line interface.

Subcommands: enumerate, invariants, closure-graph, reduce, components,
selflarge, exceptional, verify (which runs ``oracle.certify``).  Output
format is text, json or dot (closure-graph only).  Exit codes: 0 success,
1 failed verification or violated claim, 2 usage error.

Configuration can also come from a JSON file named by $NILCOMM_CONFIG with
keys "bound", "seed", "format", read on every call; a flag given on the
command line overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from . import closure, components, excdata, invariants, oracle, selflarge
from .diagrams import (
    AbDiagram,
    DEFAULT_BOUND,
    PairParams,
    PairType,
    enumerate_diagrams,
    params_for,
    parse as parse_diagram,
    validate,
)
from .errors import ClaimViolated, NilcommError


def _load_config() -> dict:
    path = os.environ.get("NILCOMM_CONFIG")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _pair_type(name: str) -> PairType:
    try:
        return PairType[name.upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown pair type {name!r}; expected one of "
            + ", ".join(t.value for t in PairType)
        )


def _params_from_args(pair_type: PairType, numbers: list[int]) -> PairParams:
    expected = "n p q" if pair_type.has_signature else "n"
    if len(numbers) != len(expected.split()):
        got = f"{len(numbers)} number" + ("" if len(numbers) == 1 else "s")
        raise ValueError(f"{pair_type.value} needs {expected}, got {got}")
    if pair_type.has_signature:
        n, p, q = numbers
        return params_for(pair_type, n, p, q)
    return PairParams(numbers[0])


def _valid_params(pair_type: PairType, diagram: AbDiagram) -> Optional[PairParams]:
    """The pair the diagram belongs to, or None once the reasons it is not a
    valid orbit diagram of that pair are printed."""
    if pair_type.has_signature:
        p, q = diagram.signature() if diagram.rows else (0, 0)
        params = PairParams(diagram.n, (p, q))
    else:
        params = PairParams(diagram.n)
    violations = validate(diagram, pair_type, params)
    for v in violations:
        print(f"error: {v}", file=sys.stderr)
    return None if violations else params


def _cmd_enumerate(args) -> int:
    params = _params_from_args(args.type, args.numbers)
    diags = enumerate_diagrams(args.type, params, args.bound)
    if args.format == "json":
        print(json.dumps([d.text() for d in diags]))
    else:
        for d in diags:
            print(d.text() or "(zero)")
    return 0


def _cmd_invariants(args) -> int:
    diagram = parse_diagram(args.diagram)
    params = _valid_params(args.type, diagram)
    if params is None:
        return 2
    inv = invariants.orbit_invariants(diagram, args.type, params)
    if args.format == "json":
        print(json.dumps(inv.to_json()))
    else:
        for key, value in inv.to_json().items():
            print(f"{key}: {value}")
    return 0


def _cmd_closure_graph(args) -> int:
    params = _params_from_args(args.type, args.numbers)
    graph = closure.closure_hasse(args.type, params, args.bound)
    if args.format == "json":
        print(graph.to_json())
    else:
        print(graph.to_dot())
    return 0


def _cmd_reduce(args) -> int:
    diagram = parse_diagram(args.diagram)
    params = _valid_params(args.type, diagram)
    if params is None:
        return 2
    target = closure.find_reduction(diagram, args.type, params, args.bound)
    if args.format == "json":
        print(json.dumps({"orbit": diagram.text(), "reduction": target.text() if target else None}))
    else:
        print(target.text() if target else "none")
    return 0


def _cmd_components(args) -> int:
    params = _params_from_args(args.type, args.numbers)
    report = components.classify_components(args.type, params, args.bound)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return 0


def _cmd_selflarge(args) -> int:
    try:
        numbers = [int(args.target)] + args.rest
        diagram = None
    except ValueError:
        diagram = parse_diagram(args.target)
    if diagram is not None:
        if _valid_params(args.type, diagram) is None:
            return 2
        verdicts = [selflarge.is_self_large(diagram, args.type)]
    else:
        params = _params_from_args(args.type, numbers)
        verdicts = [
            selflarge.is_self_large(d, args.type)
            for d in enumerate_diagrams(args.type, params, args.bound)
        ]
    if args.format == "json":
        print(json.dumps([v.to_json() for v in verdicts]))
    else:
        for v in verdicts:
            print(f"{v.diagram.text() or '(zero)'}: {v.verdict} ({v.reason})")
    return 0


def _cmd_exceptional(args) -> int:
    report = excdata.exceptional_components(args.case.upper())
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
        print("self-large orbits: " + ", ".join(
            str(o) for o in excdata.exceptional_selflarge(args.case.upper())))
    return 0


def _cmd_verify(args) -> int:
    """Certify the combinatorial layer against the matrix oracle
    (``oracle.certify``), check the embedded exceptional tables, and run the
    verified-rank-bound grid."""
    checked, failures = oracle.certify(args.cert_bound, args.seed)
    print(f"oracle certification: {checked} realizations checked, "
          f"{len(failures)} failures (bound {args.cert_bound})")
    for f in failures:
        print("  " + f)

    problems = excdata.consistency_report()
    print(f"exceptional tables: {'consistent' if not problems else 'INCONSISTENT'}")
    for p in problems:
        print("  " + p)

    try:
        results = components.rank_bound_check()
        print(f"verified rank bounds: {len(results)} pairs, zero unresolved candidates")
        claim_ok = True
    except ClaimViolated as exc:
        print(f"verified rank bounds: VIOLATED: {exc}")
        claim_ok = False

    ok = not failures and not problems and claim_ok
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; $NILCOMM_CONFIG is read by main."""
    parser = argparse.ArgumentParser(
        prog="nilcomm",
        description="Irreducible components of nilpotent commuting varieties "
        "of symmetric Lie algebra pairs",
    )
    parser.add_argument("--format", choices=["text", "json", "dot"], default="text")
    parser.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                        help="enumeration size bound")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized rank oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the orbit diagrams of a pair")
    p.add_argument("type", type=_pair_type)
    p.add_argument("numbers", type=int, nargs="+", metavar="n [p q]")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("invariants", help="orbit invariants of a diagram")
    p.add_argument("type", type=_pair_type)
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("closure-graph", help="Hasse diagram of the closure order")
    p.add_argument("type", type=_pair_type)
    p.add_argument("numbers", type=int, nargs="+", metavar="n [p q]")
    p.set_defaults(func=_cmd_closure_graph)

    p = sub.add_parser("reduce", help="find a reduction of an orbit")
    p.add_argument("type", type=_pair_type)
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("components", help="classify the components of a pair")
    p.add_argument("type", type=_pair_type)
    p.add_argument("numbers", type=int, nargs="+", metavar="n [p q]")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("selflarge", help="self-large verdicts for a diagram or a pair")
    p.add_argument("type", type=_pair_type)
    p.add_argument("target", help="a diagram, or n (with p q for signature types)")
    p.add_argument("rest", type=int, nargs="*")
    p.set_defaults(func=_cmd_selflarge)

    p = sub.add_parser("exceptional", help="report for an exceptional case")
    p.add_argument("case", choices=[c for c in excdata.CASES] + [c.lower() for c in excdata.CASES],
                   metavar="CASE")
    p.set_defaults(func=_cmd_exceptional)

    p = sub.add_parser("verify", help="run the oracle certification and claim checks")
    p.add_argument("--cert-bound", type=int, default=6,
                   help="size bound for the oracle certification sweep")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    config = _load_config()
    # the config's values go first, as flags: the parser checks them, and a
    # flag on the command line overrides them
    flags = [f"--{key}={config[key]}" for key in ("format", "bound", "seed") if key in config]
    try:
        args = build_parser().parse_args(flags + (sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ClaimViolated as exc:
        print(f"claim violated: {exc}", file=sys.stderr)
        return 1
    except NilcommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
