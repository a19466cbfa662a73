"""Command-line front end.

Usage::

    equilib <subcommand> [--json] [--mode exact|float] [--tol X]
            [--epsilon X] [file|-]

Subcommands: ``stationary``, ``weights``, ``classes``, ``polytope``,
``ratio I J``, ``compare``, ``verify PI_FILE``.  Input is a matrix file
(one row per line, entries as integers, decimals or rationals ``a/b``), a
graph edge list headed by ``nodes N``, or a JSON document with fields
``kind``/``n``/``rows``.  All state indices in input and output are
1-based.  A float entry is an edge of the chain exactly when it is
nonzero.  Exit status: 0 for a unique equilibrium, 2 for a degenerate
chain, 1 for errors.
"""

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .matrix_core import EXACT, FLOAT, StochasticMatrix
from .reducibility import communicating_classes
from .equilibrium import (
    _weights,
    equilibrium_polytope,
    relative_probability,
    stationary,
    verify_equilibrium,
)
from .graph_walk import Graph, ZeroOutDegreeError, graph_stationary, walk_matrix
from .oracle import (
    SingularSystemError,
    linear_solve_stationary,
    perturb,
    power_method,
)

MODE_ENV_VAR = "EQUILIB_MODE"

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RATIONAL_RE = re.compile(r"[+-]?\d+/\d+\Z")
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")


class ParseError(ValueError):
    """Malformed or invalid input text."""


@dataclass
class InputDocument:
    kind: str                      # "matrix" or "graph"
    mode: str
    matrix: StochasticMatrix = None
    graph: Graph = None

    def stochastic(self):
        if self.kind == "graph":
            wm = walk_matrix(self.graph)
            return wm.to_float() if self.mode == FLOAT else wm
        return self.matrix


def _fraction_from_text(token):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return Fraction(Decimal(token))
    except (InvalidOperation, ValueError, ZeroDivisionError) as exc:
        raise ValueError(token) from exc


def _classify(token):
    if _INT_RE.match(token):
        return "int"
    if _RATIONAL_RE.match(token):
        return "rational"
    if _DECIMAL_RE.match(token):
        return "decimal"
    return None


def _content_lines(text):
    """(lineno, stripped-content) pairs, comments and blanks removed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _float_entry(value, token, where):
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: {token} overflows a float") from None


def _matrix_entry(token, mode, where):
    value = _fraction_from_text(token)
    return value if mode == EXACT else _float_entry(value, token, where)


def _token_rows(text, what, valid, malformed, width_note=""):
    """``(lineno, tokens)`` rows of a square table, each token checked."""
    rows = []
    for lineno, line in _content_lines(text):
        row = line.replace(",", " ").split()
        for col, tok in enumerate(row, start=1):
            if not valid(tok):
                raise ParseError(
                    f"line {lineno}, entry {col}: {malformed} {tok!r}")
        rows.append((lineno, row))
    if not rows:
        raise ParseError(f"no {what} rows found in input")
    n = len(rows)
    for lineno, row in rows:
        if len(row) != n:
            raise ParseError(f"line {lineno}: expected {n} entries"
                             f"{width_note}, got {len(row)}")
    return rows


def _parse_matrix_text(text, mode):
    rows_tokens = _token_rows(text, "matrix", _classify, "malformed literal",
                              " for a square matrix")
    if mode is None:
        decimal = any(_classify(tok) == "decimal"
                      for _, row in rows_tokens for tok in row)
        mode = FLOAT if decimal else EXACT
    rows = [[_matrix_entry(tok, mode, f"line {lineno}, entry {col}")
             for col, tok in enumerate(row, start=1)]
            for lineno, row in rows_tokens]
    try:
        sm = StochasticMatrix(rows, mode=mode)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return InputDocument(kind="matrix", mode=mode, matrix=sm)


def _parse_graph_text(text, mode):
    lines = _content_lines(text)
    if not lines:
        raise ParseError("no graph data found in input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0].lower() != "nodes" or not parts[1].isdigit():
        raise ParseError(
            f"line {lineno}: expected a header 'nodes N', got {header!r}")
    n = int(parts[1])
    if n < 1:
        raise ParseError(f"line {lineno}: node count must be positive")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3) or not all(
            _INT_RE.match(p) for p in parts
        ):
            raise ParseError(
                f"line {lineno}: expected an edge 'i j [multiplicity]', "
                f"got {line!r}")
        i, j = int(parts[0]), int(parts[1])
        m = int(parts[2]) if len(parts) == 3 else 1
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(
                f"line {lineno}: node index out of range 1..{n}")
        if m < 0:
            raise ParseError(f"line {lineno}: negative multiplicity")
        edges.append((i - 1, j - 1, m))
    graph = Graph.from_edges(n, edges)
    return InputDocument(kind="graph", mode=mode or EXACT, graph=graph)


def _parse_adjacency_text(text):
    rows = _token_rows(text, "adjacency", _INT_RE.match,
                       "adjacency entries must be integers, got")
    try:
        graph = Graph([[int(tok) for tok in row] for _, row in rows])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return graph


def _parse_json_document(text, mode):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON document: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("JSON document must be an object with a 'kind' field")
    kind = doc["kind"]
    rows = doc.get("rows")
    n = doc.get("n")
    if not isinstance(rows, list) or (n is not None and len(rows) != n):
        raise ParseError("JSON document field 'rows' does not match 'n'")
    for r, row in enumerate(rows, start=1):
        if not isinstance(row, list):
            raise ParseError(f"row {r} is not a list")
    if kind == "graph":
        try:
            graph = Graph(rows)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return InputDocument(kind="graph", mode=mode or EXACT, graph=graph)
    if kind != "matrix":
        raise ParseError(f"unknown document kind {doc['kind']!r}")
    has_decimal = False
    values = []
    for r, row in enumerate(rows, start=1):
        out = []
        for c, x in enumerate(row, start=1):
            if isinstance(x, str):
                kind_x = _classify(x)
                if kind_x is None:
                    raise ParseError(f"malformed matrix entry {x!r}")
                has_decimal |= kind_x == "decimal"
                out.append(_fraction_from_text(x))
            elif isinstance(x, bool):
                raise ParseError(f"malformed matrix entry {x!r}")
            elif isinstance(x, int):
                out.append(Fraction(x))
            elif isinstance(x, float):
                if not np.isfinite(x):
                    raise ParseError(
                        f"entry at row {r}, column {c} is not finite")
                has_decimal = True
                out.append(Fraction(x))
            else:
                raise ParseError(f"malformed matrix entry {x!r}")
        values.append(out)
    if mode is None:
        mode = FLOAT if has_decimal else EXACT
    if mode == FLOAT:
        values = [[_float_entry(x, token, f"row {r}, column {c}")
                   for c, (x, token) in enumerate(zip(vals, row), start=1)]
                  for r, (vals, row) in enumerate(zip(values, rows), start=1)]
    try:
        sm = StochasticMatrix(values, mode=mode)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return InputDocument(kind="matrix", mode=mode, matrix=sm)


def parse_input(text, fmt="auto", mode=None):
    """Parse input text into an :class:`InputDocument`.

    ``fmt`` is one of ``auto``, ``matrix``, ``graph`` (edge list or, when
    no ``nodes`` header is present, full adjacency rows) or ``json``.  When
    ``mode`` is ``None`` it is inferred: any decimal literal makes the
    document float, otherwise it is exact.
    """
    if fmt == "auto":
        stripped = text.lstrip()
        if stripped.startswith("{"):
            fmt = "json"
        else:
            lines = _content_lines(text)
            first = lines[0][1].split() if lines else []
            fmt = "graph" if first and first[0].lower() == "nodes" else "matrix"
    if fmt == "json":
        return _parse_json_document(text, mode)
    if fmt == "graph":
        lines = _content_lines(text)
        if lines and lines[0][1].split()[0].lower() == "nodes":
            return _parse_graph_text(text, mode)
        return InputDocument(kind="graph", mode=mode or EXACT,
                             graph=_parse_adjacency_text(text))
    if fmt == "matrix":
        return _parse_matrix_text(text, mode)
    raise ParseError(f"unknown input format {fmt!r}")


def _read_source(path):
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt_scalar(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


def _fmt_vector(v):
    return "[" + ", ".join(_fmt_scalar(x) for x in v) + "]"


def _json_scalar(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)


def _json_vector(v):
    return [_json_scalar(x) for x in v]


def _report_text(report, with_vertices):
    lines = ["communicating classes:"]
    for k, (cls, closed) in enumerate(
        zip(report.classes, report.closed_flags), start=1
    ):
        states = " ".join(str(i + 1) for i in cls)
        lines.append(
            f"  class {k} ({'closed' if closed else 'open'}): states {states}")
    transitory = " ".join(str(i + 1) for i in report.transitory_states)
    lines.append(f"transitory states: {transitory if transitory else '(none)'}")
    if with_vertices and report.vertex_equilibria is not None:
        lines.append("vertex equilibria:")
        for v in report.vertex_equilibria:
            lines.append(f"  {_fmt_vector(v)}")
    return lines


def _report_json(report):
    out = {
        "classes": [[i + 1 for i in cls] for cls in report.classes],
        "closed_flags": list(report.closed_flags),
        "transitory_states": [i + 1 for i in report.transitory_states],
    }
    if report.vertex_equilibria is not None:
        out["vertex_equilibria"] = [
            _json_vector(v) for v in report.vertex_equilibria]
    return out


def _emit(args, lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_stationary(doc, args):
    if doc.kind == "graph" and args.epsilon is None:
        res = graph_stationary(doc.graph).result
    else:
        res = stationary(_working_matrix(doc, args))
    payload = {"kind": "stationary", "mode": doc.mode,
               "weights": _json_vector(res.weights)}
    if res.unique:
        payload["variant"] = "unique"
        payload["pi"] = _json_vector(res.pi)
        _emit(args, [f"pi = {_fmt_vector(res.pi)}"], payload)
        return 0
    payload["variant"] = "degenerate"
    payload["report"] = _report_json(res.decomposition)
    lines = ["degenerate chain: no unique equilibrium"]
    lines += _report_text(res.decomposition, with_vertices=True)
    _emit(args, lines, payload)
    return 2


def _cmd_weights(doc, args):
    if doc.kind == "graph" and args.epsilon is None:
        ge = graph_stationary(doc.graph)
        payload = {"kind": "weights", "mode": doc.mode,
                   "numerators": list(ge.numerators),
                   "denominator": ge.denominator}
        lines = [f"numerators = {_fmt_vector(ge.numerators)}",
                 f"denominator = {ge.denominator}"]
        if ge.unique:
            payload["pi"] = _json_vector(ge.result.pi)
            lines.append(f"pi = {_fmt_vector(ge.result.pi)}")
            _emit(args, lines, payload)
            return 0
        lines.append("degenerate chain: all weights vanish")
        _emit(args, lines, payload)
        return 2
    w, pi, _ = _weights(*_working_matrix(doc, args)._chain)
    total = w.sum()
    payload = {"kind": "weights", "mode": doc.mode,
               "weights": _json_vector(w), "total": _json_scalar(total)}
    lines = [f"w = {_fmt_vector(w)}", f"total = {_fmt_scalar(total)}"]
    _emit(args, lines, payload)
    # float weights may underflow to zero: structure decides the exit code
    return 0 if pi is not None else 2


def _cmd_classes(doc, args):
    report = communicating_classes(_working_matrix(doc, args))
    payload = {"kind": "classes", "report": _report_json(report)}
    _emit(args, _report_text(report, with_vertices=False), payload)
    return 0 if report.n_closed == 1 else 2


def _cmd_polytope(doc, args):
    report = equilibrium_polytope(_working_matrix(doc, args))
    payload = {"kind": "polytope", "report": _report_json(report)}
    _emit(args, _report_text(report, with_vertices=True), payload)
    return 0 if len(report.vertex_equilibria) == 1 else 2


def _cmd_ratio(doc, args):
    sm = _working_matrix(doc, args)
    if not (1 <= args.i <= sm.n and 1 <= args.j <= sm.n):
        raise ParseError(f"state indices must be in 1..{sm.n}")
    value = relative_probability(sm, args.i - 1, args.j - 1)
    payload = {"kind": "ratio", "i": args.i, "j": args.j,
               "value": _json_scalar(value)}
    _emit(args, [f"pi[{args.i}] / pi[{args.j}] = {_fmt_scalar(value)}"],
          payload)
    return 0


def _cmd_verify(doc, args):
    text = _read_source(args.pi_file)
    pi = _parse_vector(text)
    residual = verify_equilibrium(np.array(pi, dtype=object),
                                  _working_matrix(doc, args))
    payload = {"kind": "verify", "residual": _json_scalar(residual)}
    _emit(args, [f"residual = {_fmt_scalar(residual)}"], payload)
    return 0


def _parse_vector(text):
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON vector: {exc}") from exc
        if isinstance(doc, dict):
            doc = doc.get("pi")
        if not isinstance(doc, list):
            raise ParseError("JSON input does not contain a 'pi' vector")
        out = []
        for k, x in enumerate(doc, start=1):
            if isinstance(x, str):
                out.append(_fraction_from_text(x))
            elif isinstance(x, float) and not np.isfinite(x):
                raise ParseError(f"vector entry {k} is not finite")
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                out.append(x)
            else:
                raise ParseError(f"malformed vector entry {x!r}")
        return out
    tokens = []
    for _, line in _content_lines(text):
        tokens.extend(line.replace(",", " ").split())
    if not tokens:
        raise ParseError("no vector entries found")
    out = []
    for tok in tokens:
        kind = _classify(tok)
        if kind is None:
            raise ParseError(f"malformed vector entry {tok!r}")
        value = _fraction_from_text(tok)
        out.append(float(value) if kind == "decimal" else value)
    return out


def _cmd_compare(doc, args):
    sm = _working_matrix(doc, args)
    rows = []
    payload_methods = {}
    pis = {}

    def solved(name, seconds, pi, against, **extra):
        resid = verify_equilibrium(pi, against)
        rows.append((name, _fmt_vector(pi), _fmt_scalar(resid),
                     f"{seconds:.4f}"))
        payload_methods[name] = {
            "pi": _json_vector(pi), "residual": _json_scalar(resid),
            "seconds": seconds, **extra}
        pis[name] = np.array([float(x) for x in pi])

    def failed(name, text, status, **fields):
        rows.append((name, text, "-", f"{fields['seconds']:.4f}"))
        payload_methods[name] = {"status": status, **fields}

    t0 = time.perf_counter()
    res = stationary(sm)
    seconds = time.perf_counter() - t0
    if res.unique:
        solved("minor_weights", seconds, res.pi, sm)
    else:
        failed("minor_weights", "degenerate", "degenerate", seconds=seconds)

    t0 = time.perf_counter()
    try:
        pi_solve = linear_solve_stationary(sm)
    except SingularSystemError:
        failed("linear_solve", "singular system", "singular",
               seconds=time.perf_counter() - t0)
    else:
        solved("linear_solve", time.perf_counter() - t0, pi_solve, sm)

    t0 = time.perf_counter()
    pm = power_method(sm, tol=args.tol)
    seconds = time.perf_counter() - t0
    if pm.converged:
        solved("power_method", seconds, pm.pi_estimate, sm.to_float(),
               squarings=pm.iterations)
    else:
        failed("power_method",
               f"not converged (spread {pm.final_spread:.3g})",
               "not converged", final_spread=pm.final_spread,
               seconds=seconds, squarings=pm.iterations)

    lines = [f"{'method':<14} {'pi':<40} {'residual':<12} seconds"]
    for name, vec, resid, secs in rows:
        lines.append(f"{name:<14} {vec:<40} {resid:<12} {secs}")
    payload = {"kind": "compare", "mode": doc.mode,
               "methods": payload_methods}
    if len(pis) >= 2:
        names = sorted(pis)
        diff = max(
            float(np.max(np.abs(pis[a] - pis[b])))
            for k, a in enumerate(names) for b in names[k + 1:])
        lines.append(f"max pairwise L-inf difference: {diff:.3g}")
        payload["max_pairwise_linf"] = diff
    _emit(args, lines, payload)
    return 0 if res.unique else 2


def _working_matrix(doc, args):
    """The stochastic matrix a command operates on, perturbed if requested."""
    sm = doc.stochastic()
    if args.epsilon is not None:
        eps = (_fraction_from_text(args.epsilon) if sm.mode == EXACT
               else float(_fraction_from_text(args.epsilon)))
        sm = perturb(sm, eps)
    return sm


_COMMANDS = {
    "stationary": _cmd_stationary,
    "weights": _cmd_weights,
    "classes": _cmd_classes,
    "polytope": _cmd_polytope,
    "ratio": _cmd_ratio,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1: status 2 is reserved for degenerate chains
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(
        prog="equilib",
        description="Stationary distributions of finite Markov chains "
                    "from principal minors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("source", nargs="?", default="-", metavar="file|-",
                       help="input file, or - for stdin (default)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
        p.add_argument("--mode", choices=[EXACT, FLOAT], default=None,
                       help="force the scalar mode (default: inferred from "
                            f"the input, or ${MODE_ENV_VAR})")
        p.add_argument("--format", choices=["auto", "matrix", "graph", "json"],
                       default="auto", help="input format (default: auto)")
        p.add_argument("--tol", type=float, default=1e-12,
                       help="power-method spread tolerance")
        p.add_argument("--epsilon", default=None, metavar="X",
                       help="perturb the chain toward uniform by X before "
                            "computing")

    for name, help_text in [
        ("stationary", "stationary distribution, or the degeneracy report"),
        ("weights", "unnormalized minor weights (integers for graphs)"),
        ("classes", "communicating classes and closed/transitory split"),
        ("polytope", "vertex equilibria spanning all stationary vectors"),
        ("ratio", "stationary probability ratio of two states"),
        ("compare", "minor method vs. linear solve vs. power method"),
        ("verify", "residual of a candidate stationary vector"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "ratio":
            p.add_argument("i", type=int, help="state index (1-based)")
            p.add_argument("j", type=int, help="state index (1-based)")
        if name == "verify":
            p.add_argument("pi_file", metavar="pi-file",
                           help="vector file: text entries or JSON with 'pi'")
        add_common(p)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    mode = args.mode
    if mode is None:
        env = os.environ.get(MODE_ENV_VAR, "").strip().lower()
        if env in (EXACT, FLOAT):
            mode = env
    try:
        doc = parse_input(_read_source(args.source), fmt=args.format,
                          mode=mode)
        return _COMMANDS[args.command](doc, args)
    except ZeroOutDegreeError as exc:
        print(f"error: node {exc.node + 1} has no outgoing edges; "
              f"the random walk is undefined", file=sys.stderr)
        return 1
    except (ParseError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
