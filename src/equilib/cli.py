"""Command-line front end.

Usage::

    equilib <subcommand> [--json] [--mode exact|float] [--tol X]
            [--epsilon X] [file|-]

Subcommands: ``stationary``, ``weights``, ``classes``, ``polytope``,
``ratio I J``, ``compare``, ``verify PI_FILE``.  The command table
``_COMMANDS`` is the one list of them: it holds each one's handler and
help text, the parser is built from it, and ``main`` dispatches through
it.  Input is a matrix file (one row per line, entries as integers,
decimals or rationals ``a/b``), a graph edge list headed by ``nodes N``,
or a JSON document with fields ``kind``/``n``/``rows``.  All state
indices in input and output are 1-based.  A float entry is an edge of the
chain exactly when it is nonzero.  Exit status: 0 for a unique
equilibrium, 2 for a degenerate chain, 1 for errors.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

from .matrix_core import EXACT, FLOAT, StochasticMatrix, read_values
from .reducibility import communicating_classes
from .equilibrium import (
    equilibrium_polytope,
    minor_weights,
    relative_probability,
    stationary,
    verify_equilibrium,
)
from .graph_walk import (
    _COUNT_RE,
    Graph,
    ZeroOutDegreeError,
    graph_stationary,
    walk_matrix,
)
from .oracle import (
    SingularSystemError,
    linear_solve_stationary,
    perturb,
    power_method,
)

MODE_ENV_VAR = "EQUILIB_MODE"

# the one literal grammar: an integer, a rational a/b with b != 0, or a
# decimal (group 1) with an optional exponent; no two digit runs may meet,
# so a long malformed token fails in linear time.  Digits are ASCII, as in
# the integer grammar of edge counts.
_LITERAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:/0*[1-9][0-9]*)?"
                         r"|((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
                         r"(?:[eE][+-]?[0-9]+)?))\Z")


class ParseError(ValueError):
    """Malformed or invalid input text."""


def _literal(x):
    """Whether an input entry is a decimal; ``None`` when it is malformed.

    An entry is a string in the literal grammar or a JSON number (not a
    boolean).  A decimal string or a JSON float makes a document float.
    """
    if isinstance(x, str):
        m = _LITERAL_RE.match(x)
        return None if m is None else m[1] is not None
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return isinstance(x, float)
    return None


def _value(x, mode, where, *at):
    """An entry accepted by :func:`_literal` as a scalar of ``mode``;
    ``where(*at)`` starts an error message about it.

    A JSON number stays as it is in exact mode.  ``float()`` reads a
    decimal string, rounding as the exact value would, without building
    it.  The library's reader builds an exact string, and refuses one whose
    length plus exponent passes the digit limit of int literals, so
    ``1e100000000`` fails at once.
    """
    if isinstance(x, str) and (mode == EXACT or "/" in x):
        ((x,),) = read_values([[x]], EXACT, lambda *_: where(*at))[1]
    if mode == EXACT or isinstance(x, float):
        return x
    try:
        if not math.isinf(value := float(x)):
            return value
    except OverflowError:
        pass
    raise ParseError(f"{where(*at)} overflows a float")


def _scalar(x, mode, what):
    """A single literal as a scalar of ``mode``, named ``what`` in messages.

    With ``mode`` ``None``, a decimal is read as a float and the rest exactly.
    """
    decimal = _literal(x)
    if decimal is None:
        raise ParseError(f"malformed {what} {x!r}")
    return _value(x, mode or (FLOAT if decimal else EXACT),
                  lambda: f"malformed {what} {x!r}:")


def _state_index(text):
    """A ``ratio`` state index argument, in the integer grammar of counts."""
    if not _COUNT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return _count(text, "state index", argparse.ArgumentTypeError)


def _tolerance(text):
    """The ``--tol`` argument: a literal read as a finite float, at least 0."""
    try:
        tol = _scalar(text, FLOAT, "--tol value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if tol < 0:
        raise argparse.ArgumentTypeError(
            f"malformed --tol value {text!r}: negative")
    return tol


def _count(text, what, error=ParseError):
    """A field that matched the integer grammar of counts, as an int; one
    past the int digit limit raises ``error`` naming ``what``."""
    try:
        return int(text)
    except ValueError:
        raise error(f"{what} exceeds the "
                    f"{sys.get_int_max_str_digits()}-digit limit") from None


def _any_decimal(rows, where):
    """Whether an entry is a decimal; ``where(r, c)`` names a malformed one."""
    flags = [[_literal(x) for x in row] for row in rows]
    for r, row in enumerate(flags, start=1):
        if None in row:
            c = row.index(None) + 1
            raise ParseError(
                f"{where(r, c)}: malformed literal {rows[r - 1][c - 1]!r}")
    return any(any(row) for row in flags)


def _stochastic(rows, decimal, mode, where):
    """The matrix of ``rows`` of entries, float if ``mode`` is ``None`` and
    ``decimal`` (an entry is a decimal).  An exact matrix is read whole by
    the library's reader."""
    mode = mode or (FLOAT if decimal else EXACT)

    def at(r, c):
        return f"{where(r, c)}: {rows[r - 1][c - 1]}"

    return StochasticMatrix(
        read_values(rows, mode, at)[1] if mode == EXACT else
        [[_value(x, mode, at, r, c) for c, x in enumerate(row, start=1)]
         for r, row in enumerate(rows, start=1)], mode=mode)


def _content_lines(text):
    """(lineno, stripped-content) pairs, comments and blanks removed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_graph_text(lines):
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0].lower() != "nodes" \
            or not _COUNT_RE.fullmatch(parts[1]):
        raise ParseError(
            f"line {lineno}: expected a header 'nodes N', got {header!r}")
    n = _count(parts[1], f"line {lineno}: node count")
    if n < 1:
        raise ParseError(f"line {lineno}: node count must be positive")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3) or not all(
            _COUNT_RE.fullmatch(p) for p in parts
        ):
            raise ParseError(
                f"line {lineno}: expected an edge 'i j [multiplicity]', "
                f"got {line!r}")
        fields = [_count(p, f"line {lineno}: edge field") for p in parts]
        i, j, m = fields if len(fields) == 3 else (*fields, 1)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(
                f"line {lineno}: node index out of range 1..{n}")
        if m < 0:
            raise ParseError(f"line {lineno}: negative multiplicity")
        edges.append((i - 1, j - 1, m))
    return Graph.from_edges(n, edges)


def _json(text, what):
    """The JSON value of ``text``, named ``what`` in messages.

    A malformed document, or an int past the digit limit, which json
    reports as a plain ``ValueError``, is a :class:`ParseError`.
    """
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON {what}: {exc}") from exc


def _parse_json_document(text, mode):
    doc = _json(text, "document")
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
        return Graph(rows)
    if kind != "matrix":
        raise ParseError(f"unknown document kind {doc['kind']!r}")

    def where(r, c):
        return f"row {r}, column {c}"

    return _stochastic(rows, _any_decimal(rows, where), mode, where)


def _parse(text, fmt, mode):
    """A :class:`Graph` or a :class:`StochasticMatrix` from input text."""
    if fmt == "json" or fmt == "auto" and text.lstrip().startswith("{"):
        return _parse_json_document(text, mode)
    if fmt not in ("auto", "matrix", "graph"):
        raise ParseError(f"unknown input format {fmt!r}")
    lines = _content_lines(text)
    if fmt != "matrix" and lines and \
            lines[0][1].split()[0].lower() == "nodes":
        return _parse_graph_text(lines)
    rows = [line.replace(",", " ").split() for _, line in lines]
    if not rows:
        raise ParseError("no rows found in input")

    def where(r, c):
        return f"line {lines[r - 1][0]}, entry {c}"

    decimal = _any_decimal(rows, where)
    for (lineno, _), row in zip(lines, rows):
        if len(row) != len(rows):
            raise ParseError(f"line {lineno}: expected {len(rows)} entries "
                             f"for a square matrix, got {len(row)}")
    if fmt == "graph":
        return Graph(rows)  # which takes only the integer literals
    return _stochastic(rows, decimal, mode, where)


def parse_input(text, fmt="auto", mode=None):
    """Parse input text into a :class:`Graph` or a :class:`StochasticMatrix`.

    ``fmt`` is one of ``auto``, ``matrix``, ``graph`` (edge list or, when
    no ``nodes`` header is present, full adjacency rows) or ``json``.  When
    ``mode`` is ``None`` it is inferred: any decimal literal makes the
    document float, otherwise it is exact.  A graph comes back as a
    :class:`Graph`, or as its float walk matrix when ``mode`` is float.
    """
    try:
        parsed = _parse(text, fmt, mode)
    except (ParseError, ZeroOutDegreeError):  # main reports a sink itself
        raise
    except ValueError as exc:  # the library's own checks of the rows
        raise ParseError(str(exc)) from exc
    if isinstance(parsed, Graph) and mode == FLOAT:
        return walk_matrix(parsed).to_float()
    return parsed


def _read_source(path):
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# output: each command returns its JSON payload and exit code, and main
# prints the payload, as JSON or as the text that _text renders from it
# field by field, so the two cannot disagree.  In text an exact scalar (a
# string) and an int print as they are, and a float with ``.6g``.
# ---------------------------------------------------------------------------

def _json_scalar(x):
    return str(x) if isinstance(x, Fraction) else float(x)


def _json_vector(v):
    return [_json_scalar(x) for x in v]


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


def _fmt(x):
    """A payload scalar, or a list of them, as text."""
    if isinstance(x, list):
        return "[" + ", ".join(map(_fmt, x)) + "]"
    return format(x, ".6g") if isinstance(x, float) else str(x)


# compare's text for a method whose entry holds a status in place of pi
_STATUS_TEXT = {"degenerate": "degenerate", "singular": "singular system",
                "not converged": "not converged (spread {final_spread:.3g})"}


def _text(payload):
    """The lines of text that render a command's ``payload``."""
    kind = payload["kind"]
    if kind == "compare":
        yield f"{'method':<14} {'pi':<40} {'residual':<12} seconds"
        for name, m in payload["methods"].items():
            vec, resid = ((_fmt(m["pi"]), _fmt(m["residual"])) if "pi" in m
                          else (_STATUS_TEXT[m["status"]].format(**m), "-"))
            yield f"{name:<14} {vec:<40} {resid:<12} {m['seconds']:.4f}"
        if "max_pairwise_linf" in payload:
            yield ("max pairwise L-inf difference: "
                   f"{payload['max_pairwise_linf']:.3g}")
        return
    for key, value in payload.items():
        if key == "variant" and value == "degenerate":
            yield "degenerate chain: no unique equilibrium"
        elif key == "report":
            yield "communicating classes:"
            for k, (cls, closed) in enumerate(
                    zip(value["classes"], value["closed_flags"]), start=1):
                yield (f"  class {k} ({'closed' if closed else 'open'}): "
                       f"states {' '.join(map(str, cls))}")
            transitory = " ".join(map(str, value["transitory_states"]))
            yield f"transitory states: {transitory or '(none)'}"
            if "vertex_equilibria" in value:
                yield "vertex equilibria:"
                for v in value["vertex_equilibria"]:
                    yield f"  {_fmt(v)}"
        elif key == "weights" and kind == "weights":
            yield f"w = {_fmt(value)}"
        elif key == "value":
            yield f"pi[{payload['i']}] / pi[{payload['j']}] = {_fmt(value)}"
        elif key in ("numerators", "denominator", "total", "pi", "residual"):
            yield f"{key} = {_fmt(value)}"
    if "numerators" in payload and "pi" not in payload:
        yield "degenerate chain: all weights vanish"


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit code)
# ---------------------------------------------------------------------------

def _cmd_stationary(doc, args):
    if isinstance(doc, Graph):
        res, mode = graph_stationary(doc).result, EXACT
    else:
        res, mode = stationary(doc), doc.mode
    payload = {"kind": "stationary", "mode": mode,
               "weights": _json_vector(res.weights)}
    if res.unique:
        payload["variant"] = "unique"
        payload["pi"] = _json_vector(res.pi)
        return payload, 0
    payload["variant"] = "degenerate"
    payload["report"] = _report_json(res.decomposition)
    return payload, 2


def _cmd_weights(doc, args):
    if isinstance(doc, Graph):
        ge = graph_stationary(doc)
        payload = {"kind": "weights", "mode": EXACT,
                   "numerators": list(ge.numerators),
                   "denominator": ge.denominator}
        if not ge.unique:
            return payload, 2
        payload["pi"] = _json_vector(ge.result.pi)
        return payload, 0
    w = minor_weights(doc)
    payload = {"kind": "weights", "mode": doc.mode,
               "weights": _json_vector(w), "total": _json_scalar(w.sum())}
    # float weights may underflow to zero: structure decides the exit code
    return payload, 0 if communicating_classes(doc).n_closed == 1 else 2


def _cmd_report(analyse, doc, args):
    """``classes`` or ``polytope``: the report of ``analyse(doc)``."""
    report = analyse(doc)
    return ({"kind": args.command, "report": _report_json(report)},
            0 if report.n_closed == 1 else 2)


def _cmd_ratio(doc, args):
    if not (1 <= args.i <= doc.n and 1 <= args.j <= doc.n):
        raise ParseError(f"state indices must be in 1..{doc.n}")
    value = relative_probability(doc, args.i - 1, args.j - 1)
    return {"kind": "ratio", "i": args.i, "j": args.j,
            "value": _json_scalar(value)}, 0


def _cmd_verify(doc, args):
    pi = _parse_vector(_read_source(args.pi_file))
    residual = verify_equilibrium(pi, doc)
    return {"kind": "verify", "residual": _json_scalar(residual)}, 0


def _parse_vector(text):
    """Text entries (a decimal one is a float) or a JSON ``pi`` list."""
    from_text = not text.lstrip().startswith(("{", "["))
    if from_text:
        entries = [tok for _, line in _content_lines(text)
                   for tok in line.replace(",", " ").split()]
        if not entries:
            raise ParseError("no vector entries found")
    else:
        entries = _json(text, "vector")
        if isinstance(entries, dict):
            entries = entries.get("pi")
        if not isinstance(entries, list):
            raise ParseError("JSON input does not contain a 'pi' vector")
    mode = None if from_text else EXACT
    return [_scalar(x, mode, "vector entry") for x in entries]


# compare's methods: each returns ``(found, tail)``, ``found`` being its
# vector or the status fields that replace it, and ``tail`` the fields
# that follow ``seconds`` in its entry
def _by_minors(doc, args):
    res = stationary(doc)
    return (res.pi if res.unique else {"status": "degenerate"}), {}


def _by_linear_solve(doc, args):
    try:
        return linear_solve_stationary(doc), {}
    except SingularSystemError:
        return {"status": "singular"}, {}


def _by_power_method(doc, args):
    pm = power_method(doc, tol=args.tol)
    found = pm.pi_estimate if pm.converged else {
        "status": "not converged", "final_spread": pm.final_spread}
    return found, {"squarings": pm.iterations}


def _cmd_compare(doc, args):
    methods, pis = {}, {}
    for name, method in (("minor_weights", _by_minors),
                         ("linear_solve", _by_linear_solve),
                         ("power_method", _by_power_method)):
        t0 = time.perf_counter()
        found, tail = method(doc, args)
        seconds = time.perf_counter() - t0
        if isinstance(found, dict):
            methods[name] = {**found, "seconds": seconds, **tail}
            continue
        methods[name] = {
            "pi": _json_vector(found),
            "residual": _json_scalar(verify_equilibrium(found, doc)),
            "seconds": seconds, **tail}
        pis[name] = np.array([float(x) for x in found])

    payload = {"kind": "compare", "mode": doc.mode, "methods": methods}
    if len(pis) >= 2:
        names = sorted(pis)
        payload["max_pairwise_linf"] = max(
            float(np.max(np.abs(pis[a] - pis[b])))
            for k, a in enumerate(names) for b in names[k + 1:])
    return payload, 2 if "status" in methods["minor_weights"] else 0


# the one list of subcommands, in the order --help shows them: each name's
# handler, which returns (payload, exit code), and its help text
_COMMANDS = {
    "stationary": (_cmd_stationary,
                   "stationary distribution, or the degeneracy report"),
    "weights": (_cmd_weights,
                "unnormalized minor weights (integers for graphs)"),
    "classes": (functools.partial(_cmd_report, communicating_classes),
                "communicating classes and closed/transitory split"),
    "polytope": (functools.partial(_cmd_report, equilibrium_polytope),
                 "vertex equilibria spanning all stationary vectors"),
    "ratio": (_cmd_ratio, "stationary probability ratio of two states"),
    "compare": (_cmd_compare,
                "minor method vs. linear solve vs. power method"),
    "verify": (_cmd_verify, "residual of a candidate stationary vector"),
}


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1: status 2 is reserved for degenerate chains
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="equilib",
        description="Stationary distributions of finite Markov chains "
                    "from principal minors.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "ratio":
            for index in ("i", "j"):
                p.add_argument(index, type=_state_index,
                               help="state index (1-based)")
        if name == "verify":
            p.add_argument("pi_file", metavar="pi-file",
                           help="vector file: text entries or JSON with 'pi'")
        p.add_argument("source", nargs="?", default="-", metavar="file|-",
                       help="input file, or - for stdin (default)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
        p.add_argument("--mode", choices=[EXACT, FLOAT], default=None,
                       help="force the scalar mode (default: inferred from "
                            f"the input, or ${MODE_ENV_VAR})")
        p.add_argument("--format", choices=["auto", "matrix", "graph", "json"],
                       default="auto", help="input format (default: auto)")
        p.add_argument("--tol", type=_tolerance, default=1e-12,
                       help="power-method spread tolerance")
        p.add_argument("--epsilon", default=None, metavar="X",
                       help="perturb the chain toward uniform by X before "
                            "computing")
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
        # only stationary and weights solve a graph in integers, unperturbed
        if isinstance(doc, Graph) and (
                args.epsilon is not None
                or args.command not in ("stationary", "weights")):
            doc = walk_matrix(doc)
        if args.epsilon is not None:
            doc = perturb(doc, _scalar(args.epsilon, doc.mode,
                                       "--epsilon value"))
        payload, code = _COMMANDS[args.command][0](doc, args)
        # rendered here, inside the try: an int past the digit limit
        # fails as an error of the run
        print(json.dumps(payload, indent=2) if args.json
              else "\n".join(_text(payload)))
        return code
    except ZeroOutDegreeError as exc:
        print(f"error: node {exc.node + 1} has no outgoing edges; "
              f"the random walk is undefined", file=sys.stderr)
        return 1
    except (ParseError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
