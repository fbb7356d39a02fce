"""Command-line interface.

Exit codes: 0 on success, 1 on input or usage errors, 2 when an identity
certificate comes back unequal.  Output is a single JSON (or TSV) report
document on stdout; identical input and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import __version__
from .convergence import radius_btdw, radius_unweighted, radius_weighted
from .errors import GraphParseError, NBWalksError
from .fileio import (
    centrality_json,
    certificate_json,
    component_report_json,
    input_descriptor,
    parse_graph,
    radius_json,
    report_document,
    smith_json,
    to_json,
    to_tsv,
    walk_table_json,
)
from .graphs import scc_decompose, undirected_part, undirectization
from .ihara import (
    verify_flanders,
    verify_ihara_digraph,
    verify_lemma_suite,
    verify_tau_ihara,
    verify_weighted_ihara,
)
from .laplacians import directed_dgl, tau_dgl
from .polys import smith_form
from .walks import DEFAULT_BUDGET, nbt_katz_centrality, walk_table, walk_tables_float


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"expected a rational like 1/2, got {text!r}")


def _common_flags(format_, budget, quiet) -> argparse.ArgumentParser:
    """The flags accepted before and after the subcommand.  Parents share
    their action objects, so the top level and the subcommands each get
    their own: the subcommands' flags default to SUPPRESS and only
    overwrite a top-level value when given."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default=format_)
    common.add_argument("--budget", type=int, default=budget,
                        help="enumeration budget (overrides NBTW_BUDGET)")
    common.add_argument("--quiet", action="store_true", default=quiet,
                        help="suppress the report document on stdout")
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="nbwalks", description="Non-backtracking walk analysis",
                     parents=[_common_flags("json", None, False)])
    common = _common_flags(argparse.SUPPRESS, argparse.SUPPRESS, argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="structural summary and components")
    p.add_argument("graph")

    p = sub.add_parser("radius", parents=[common],
                       help="radius of convergence report")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("nbtw", "btdw", "weighted"), default="nbtw")
    p.add_argument("--tau", type=_fraction, default=None)

    p = sub.add_parser("walks", parents=[common], help="walk tables up to length k")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--omega", type=_fraction, default=None)
    p.add_argument("--method", choices=("oracle", "recurrence", "edgepower"),
                   default="recurrence")
    p.add_argument("--float", action="store_true", dest="float_mode",
                   help="print the selected exact table, each entry rounded once "
                        "to the nearest float")

    p = sub.add_parser("centrality", parents=[common],
                       help="walk-sum centrality row sums")
    p.add_argument("graph")
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--mode", choices=("nbtw", "btdw", "weighted"), default="nbtw")
    p.add_argument("--omega", type=_fraction, default=None)

    p = sub.add_parser("verify", parents=[common], help="exact identity certificates")
    p.add_argument("graph")
    p.add_argument(
        "--identity",
        choices=("ihara", "tau-ihara", "flanders", "weighted-ihara", "lemmas", "all"),
        default="all",
    )
    p.add_argument("--tau", type=_fraction, default=Fraction(1, 2))

    p = sub.add_parser("smith", parents=[common],
                       help="Smith form of the deformed Laplacian")
    p.add_argument("graph")
    p.add_argument("--tau", type=_fraction, default=None)
    return parser


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("NBTW_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"NBTW_BUDGET must be an integer, got {env!r}")
    return DEFAULT_BUDGET


# (--identity value, name reported when "all" skips it on a weighted graph
# or None when it accepts weights, verifier).  The lambdas look the
# verifiers up at call time, so rebinding a module-level name takes effect.
_VERIFIERS = (
    ("ihara", "ihara_digraph", lambda g, tau: [verify_ihara_digraph(g)]),
    ("tau-ihara", "tau_ihara", lambda g, tau: [verify_tau_ihara(g, tau)]),
    ("flanders", "flanders", lambda g, tau: [verify_flanders(g)]),
    ("weighted-ihara", None, lambda g, tau: [verify_weighted_ihara(g)]),
    ("lemmas", "lemma_suite", lambda g, tau: verify_lemma_suite(g, tau)),
)


def _run(args):
    with open(args.graph, "r", encoding="utf-8") as fh:
        text = fh.read()
    g = parse_graph(text)
    source = input_descriptor(args.graph, text, g)
    exit_code = 0

    if args.command == "analyze":
        es = g.edge_space
        rep = scc_decompose(g)
        payload = {
            "kind": "analysis",
            "n": g.n,
            "m": g.m,
            "weighted": not g.is_unweighted(),
            "arc_count": g.m,
            "reciprocated_arc_count": g.reciprocated_arc_count(),
            "unreciprocated_edges": es.unreciprocated_count,
            "reciprocal_pairs": es.reciprocal_pair_count,
            "labels": [str(x) for x in g.labels],
            "components": component_report_json(rep, g),
            "undirected_part_edges": [
                [str(g.labels[u]), str(g.labels[v])] for u, v, _ in undirected_part(g).edges
            ],
            "undirectization_edges": [
                [str(g.labels[u]), str(g.labels[v])] for u, v, _ in undirectization(g).edges
            ],
        }
    elif args.command == "radius":
        if args.tau is not None and args.mode != "btdw":
            raise _UsageError("--tau applies to --mode btdw only")
        if args.mode == "nbtw":
            report = radius_unweighted(g)
        elif args.mode == "weighted":
            report = radius_weighted(g)
        else:
            tau = args.tau if args.tau is not None else Fraction(1, 2)
            report = radius_btdw(g, tau)
        payload = {"kind": "radius", **radius_json(report)}
    elif args.command == "walks":
        if args.k < 0:
            raise _UsageError(f"--k must be nonnegative, got {args.k}")
        budget = _budget(args)
        if args.omega is not None and args.method == "edgepower":
            raise _UsageError("edgepower method applies to plain walks only")
        if args.float_mode:
            payload = {
                "kind": "walks",
                "float": True,
                "walk_kind": "btdw" if args.omega is not None else "nbtw",
                "kmax": args.k,
                "tables": walk_tables_float(g, args.k, args.omega, args.method, budget),
            }
        else:
            table = walk_table(g, args.k, args.omega, args.method, budget)
            payload = {"kind": "walks", "float": False, **walk_table_json(table)}
    elif args.command == "centrality":
        if args.t < 0:
            raise _UsageError(f"--t must be nonnegative, got {args.t}")
        if args.mode == "btdw" and args.omega is None:
            raise _UsageError("--mode btdw needs --omega")
        if args.mode != "btdw" and args.omega is not None:
            raise _UsageError("--omega applies to --mode btdw only")
        result = nbt_katz_centrality(g, args.t, mode=args.mode, omega=args.omega)
        payload = {"kind": "centrality", **centrality_json(result)}
    elif args.command == "verify":
        certs = []
        skipped = []
        for flag, skip_name, verify in _VERIFIERS:
            if args.identity not in (flag, "all"):
                continue
            if skip_name is None or g.is_unweighted() or args.identity == flag:
                certs.extend(verify(g, args.tau))
            else:
                skipped.append(skip_name)
        payload = {
            "kind": "certificates",
            "certificates": [certificate_json(c) for c in certs],
            "skipped_for_weights": skipped,
            "all_equal": all(c.equal for c in certs),
        }
        if not payload["all_equal"]:
            exit_code = 2
    elif args.command == "smith":
        if args.tau is None:
            sf = smith_form(directed_dgl(g))
        else:
            sf = smith_form(tau_dgl(g, args.tau))
        payload = {
            "kind": "smith",
            "tau": None if args.tau is None else str(args.tau),
            **smith_json(sf),
        }
    else:  # pragma: no cover - argparse enforces the choices
        raise _UsageError(f"unknown command {args.command!r}")

    doc = report_document(__version__, _command_line(args), payload, source)
    return exit_code, doc


def _command_line(args) -> str:
    parts = [args.command]
    skip = {"command", "format", "budget", "quiet", "graph", "float_mode"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        parts.append(f"--{key.replace('_', '-')}={value}")
    if getattr(args, "float_mode", False):
        parts.append("--float")
    return " ".join(parts)


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use and shared by every later call:
    parse_args fills a fresh namespace each time, so nothing carries over."""
    return build_parser()


def run_command(argv):
    """Parse argv, run the command, and return (exit_code, document)."""
    args = _parser().parse_args(argv)
    return _run(args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        code, doc = _run(args)
    except _UsageError as exc:
        print(f"nbwalks: {exc}", file=sys.stderr)
        return 1
    except GraphParseError as exc:
        print(f"nbwalks: parse error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"nbwalks: {args.graph}: not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"nbwalks: {exc}", file=sys.stderr)
        return 1
    except NBWalksError as exc:
        print(f"nbwalks: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        text = to_json(doc) if args.format == "json" else to_tsv(doc)
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
