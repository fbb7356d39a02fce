"""Edge-list parsing and canonical JSON serialization.

File format: one edge per line as "src<TAB>dst[<TAB>weight]".  A line with a
single token declares an isolated vertex.  Anything after '#' is a comment.
A "%undirected" directive line mirrors every listed arc.  Weights may be
integers, decimals (converted exactly) or "p/q" rationals; they must be
positive.  Rationals serialize as "p/q" strings everywhere, polynomials as
ascending coefficient arrays.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii as _quote
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd, inf

from .convergence import Bound, RadiusReport
from .errors import GraphParseError
from .exact import Matrix
from .graphs import _ONE, ComponentReport, Graph, build_graph
from .ihara import IdentityCertificate
from .polys import Polynomial, SmithForm
from .spectral import PerronResult
from .walks import CentralityResult, WalkTable


_MAX_WEIGHT_DIGITS = 4300  # Python's default limit on the digits of an int string


def parse_weight(token: str) -> Fraction:
    # checked before any integer is built: Fraction("1e99999999") would hang
    exponent = token.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if sum(c.isdigit() for c in token) > _MAX_WEIGHT_DIGITS or (
        exponent.isdigit() and int(exponent) > _MAX_WEIGHT_DIGITS
    ):
        raise GraphParseError(f"weight {token[:40]!r} needs an integer of more "
                              f"than {_MAX_WEIGHT_DIGITS} digits")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return Fraction(Decimal(token))
    except (InvalidOperation, ValueError, OverflowError):  # an infinity overflows
        raise GraphParseError(f"cannot parse weight {token!r}")


def parse_graph(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Vertices are indexed in first-appearance order over the whole file,
    including isolated declarations.  Each distinct weight token is parsed
    once; a bad one is reported at its first line.
    """
    mirror = False
    triples = []
    weights: dict[str, Fraction] = {}
    declared = []
    order = []
    seen_labels = set()

    def mention(label):
        if label not in seen_labels:
            seen_labels.add(label)
            order.append(label)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%"):
            directive = line[1:].strip().lower()
            if directive == "undirected":
                mirror = True
                continue
            raise GraphParseError(f"unknown directive {line!r}", line_no)
        tokens = line.split()
        if len(tokens) == 1:
            mention(tokens[0])
            declared.append(tokens[0])
            continue
        if len(tokens) == 2:
            src, dst = tokens
            weight = _ONE
        elif len(tokens) == 3:
            src, dst, wtok = tokens
            weight = weights.get(wtok)
            if weight is None:
                try:
                    weight = weights[wtok] = parse_weight(wtok)
                except GraphParseError as exc:
                    raise GraphParseError(str(exc), line_no) from None
        else:
            raise GraphParseError(
                f"expected 1 to 3 whitespace-separated fields, got {len(tokens)}",
                line_no,
            )
        mention(src)
        mention(dst)
        triples.append((src, dst, weight))

    if mirror:
        triples = triples + [(dst, src, w) for src, dst, w in triples]
    return build_graph(triples, vertices=order)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# ---- JSON building blocks ---------------------------------------------------


def rational_str(x: Fraction) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _ratio_strs(ints, den: int) -> list:
    """rational_str(Fraction(x, den)) for each int x, without the Fractions."""
    if den == 1:
        return [f"{x}/1" for x in ints]
    out = []
    for x in ints:
        g = gcd(x, den)
        out.append(f"{x // g}/{den // g}")
    return out


def poly_json(p: Polynomial) -> list:
    return _ratio_strs(p.ints, p.den)


def matrix_json(m: Matrix) -> list:
    """The rows of m as "p/q" strings.  Each distinct entry is formatted
    once, and equal entries share one string: a walk table repeats few
    values, most of them 0."""
    values = list({x for row in m.ints for x in row})
    get = dict(zip(values, _ratio_strs(values, m.den))).__getitem__
    return [list(map(get, row)) for row in m.ints]


def bound_json(b: Bound | None):
    if b is None:
        return None
    if b.kind == "infinite":
        return {"kind": "infinite"}
    if b.kind == "exact":
        return {
            "kind": "exact",
            "value": rational_str(b.value),
            "decimal": b.decimal(),
        }
    return {
        "kind": "interval",
        "lo": rational_str(b.lo),
        "hi": rational_str(b.hi),
        "decimal": b.decimal(),
    }


def perron_json(pr: PerronResult | None):
    if pr is None:
        return None
    return {
        "lower": rational_str(pr.lower),
        "upper": rational_str(pr.upper),
        "nilpotent": pr.nilpotent,
        "iterations": pr.iterations,
    }


def component_report_json(rep: ComponentReport, g: Graph) -> list:
    return [
        {
            "vertices": [str(g.labels[v]) for v in comp.vertices],
            "kind": comp.kind,
            "n": comp.n,
            "d": comp.arc_count,
            "d_u": comp.reciprocated_count,
            "cycle_class": comp.cycle_class,
        }
        for comp in rep.components
    ]


def walk_table_json(table: WalkTable) -> dict:
    return {
        "walk_kind": table.kind,
        "method": table.method,
        "kmax": table.kmax,
        "omega": None if table.omega is None else rational_str(table.omega),
        "tables": [matrix_json(m) for m in table.tables],
    }


def certificate_json(cert: IdentityCertificate) -> dict:
    return {
        "identity": cert.identity,
        "equal": cert.equal,
        "lhs": None if cert.lhs is None else poly_json(cert.lhs),
        "rhs": None if cert.rhs is None else poly_json(cert.rhs),
        "residual": poly_json(cert.residual),
        "graph": cert.graph_summary,
        "details": cert.details,
    }


def smith_json(sf: SmithForm) -> dict:
    return {
        "nrows": sf.nrows,
        "ncols": sf.ncols,
        "rank": sf.rank,
        "invariants": [poly_json(p) for p in sf.invariants],
    }


def radius_json(report: RadiusReport) -> dict:
    return {
        "mode": report.mode,
        "tau": None if report.tau is None else rational_str(report.tau),
        "case": report.case_label,
        "r": bound_json(report.r),
        "mu": bound_json(report.mu),
        "rho": perron_json(report.rho),
        "sigma_squared": None
        if report.sigma_squared is None
        else rational_str(report.sigma_squared),
        "bounds": None
        if report.bounds is None
        else [bound_json(report.bounds[0]), bound_json(report.bounds[1])],
        "provenance": report.provenance,
        "notes": list(report.notes),
    }


def centrality_json(res: CentralityResult) -> dict:
    return {
        "t": rational_str(res.t),
        "mode": res.mode,
        "omega": None if res.omega is None else rational_str(res.omega),
        "row_sums": [rational_str(x) for x in res.row_sums],
        "converged": res.converged,
        "note": res.note,
    }


def report_document(version: str, command: str, payload: dict, source=None) -> dict:
    doc = {
        "tool": {"name": "nbwalks", "version": version},
        "command": command,
        "input": source,
        "payload": payload,
    }
    return doc


def input_descriptor(path: str, text: str, g: Graph) -> dict:
    return {
        "path": path,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "n": g.n,
        "m": g.m,
    }


def to_json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2, ensure_ascii=True)``.

    With an indent, `json.dumps` runs its pure-Python encoder on every
    value.  This renderer spells each scalar and key as that encoder does,
    but quotes a flat list of strings, which is what the walk tables and
    polynomials are, in one join over the C string quoter.  A list is
    taken as flat when that join succeeds: the quoter raises `TypeError`
    on any item that is not a `str`, and the list is then rendered item by
    item.
    """
    out: list[str] = []
    _render(doc, "\n", out)
    return "".join(out)


def _scalar(value) -> str:
    """A scalar as `json.dumps` spells it."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    """A dictionary key as `json.dumps` spells it: quoted, and refused
    unless it is a string, a number, a bool or None."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _render(value, newline: str, out: list) -> None:
    """Append the indented JSON of value; newline is the line break and
    indent that come before the closing bracket of this value."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:
            items = ("," + inner).join(map(_quote, value))
        except TypeError:  # an item that is not a str: render item by item
            pass
        else:
            out.append("[" + inner + items + newline + "]")
            return
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _render(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, x in value.items():
            out.append(sep + _key(key) + ": ")
            _render(x, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(_scalar(value))


def to_tsv(doc: dict) -> str:
    """Flat tab-separated rendering for human inspection."""
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            if value and all(
                isinstance(row, list) and all(not isinstance(x, (list, dict)) for x in row)
                for row in value
            ):
                lines.append(prefix)
                for row in value:
                    lines.append("\t" + "\t".join("" if x is None else str(x) for x in row))
            elif all(not isinstance(x, (list, dict)) for x in value):
                lines.append(prefix + "\t" + "\t".join(str(x) for x in value))
            else:
                for i, item in enumerate(value):
                    emit(f"{prefix}[{i}]", item)
        else:
            lines.append(f"{prefix}\t{value}")

    emit("", doc)
    return "\n".join(lines) + "\n"
