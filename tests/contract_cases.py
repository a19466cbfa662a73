"""The contract corpus: a fixed, seeded set of library and CLI calls whose
outputs are pinned in ``contract_golden.json`` and checked by
``test_contract.py``.

Exact values are stored as ``str(Fraction)`` (ints as ints), errors as
their type and message.  A float is stored only as ``"f0"``, ``"f+"`` or
``"f-"``, so exact zeros stay zero and signs stay put; its value is checked
in process against an exact reference of the validated float matrix's
entries (``support.stationary_reference`` for ``pi``): ``pi`` entrywise
within 1e-12 relative and weights within 1e-10, on entries above 1e-290.
CLI runs go through ``main(argv)`` and record stdout, stderr and the exit
code; a run in float mode, and every ``compare`` run with its timings,
has its decimal numbers masked as ``#``.

After a deliberate contract change, regenerate the golden file with::

    PYTHONPATH=src python tests/contract_cases.py --write
"""

import dataclasses
import io
import json
import os
import re
import sys
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

from equilib import (
    Graph,
    StochasticMatrix,
    adjugate,
    closed_form_2,
    closed_form_3,
    closed_form_4,
    closed_form_5,
    communicating_classes,
    determinant,
    equilibrium_polytope,
    graph_stationary,
    matrix_from_bands,
    minor,
    minor_weights,
    relative_probability,
    stationary,
)
from equilib.cli import MODE_ENV_VAR, main
from support import (
    det_cofactor,
    direct_sum,
    exact_rows_of,
    make_rng,
    permute_rows,
    random_band_params,
    random_connected_undirected,
    random_permutation,
    random_stochastic_rows,
    random_strongly_connected_digraph,
    random_structured_rows,
    stationary_reference,
    with_transitory,
)

GOLDEN = Path(__file__).with_name("contract_golden.json")

F = Fraction

# ``run`` makes the call; ``check``, for a float case, asserts the float
# values of its output against an exact reference
Case = namedtuple("Case", "name run check", defaults=(None,))

# a decimal number as Python, numpy and the CLI print it
_DECIMAL_RE = re.compile(r"-?(?:[0-9]+\.[0-9]*(?:e[-+]?[0-9]+)?"
                         r"|[0-9]+e[-+]?[0-9]+)")


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode(x):
    """A JSON-able form of a library output, with floats as their sign."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return "fnan" if x != x else "f0" if x == 0 else \
            "f+" if x > 0 else "f-"
    if isinstance(x, np.ndarray):
        return encode(x.tolist())
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return {"type": type(x).__name__, **{
            f.name: encode(getattr(x, f.name))
            for f in dataclasses.fields(x)}}
    if x is None or isinstance(x, str):
        return x
    raise TypeError(f"cannot encode {type(x).__name__}")


def outcome(case):
    """``(output, encoded)`` of a case; an error is ``(None, its record)``."""
    try:
        out = case.run()
    except Exception as exc:  # a raised error is part of the contract
        return None, {"error": type(exc).__name__, "message": str(exc)}
    return out, encode(out)


# ---------------------------------------------------------------------------
# exact references for float outputs
# ---------------------------------------------------------------------------

def _fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    a = [list(map(F, row)) for row in rows]
    det = F(1)
    for k in range(len(a)):
        piv = next((r for r in range(k, len(a)) if a[r][k] != 0), None)
        if piv is None:
            return F(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def _exact_weights(rows):
    """The principal minors of ``I - P`` for exact rows ``P``."""
    n = len(rows)
    lap = [[(sum(row) - row[i] if i == j else -row[j]) for j in range(n)]
           for i, row in enumerate(rows)]
    return [_fraction_det([[lap[a][b] for b in range(n) if b != i]
                           for a in range(n) if a != i]) for i in range(n)]


def _close(value, ref, rtol, what):
    """``value`` within ``rtol`` of ``ref``; exact zeros stay zero, and an
    entry at most 1e-290 is not held to ``rtol``."""
    value = float(value)
    if ref == 0:
        assert value == 0.0, f"{what}: {value!r}, expected an exact zero"
    elif abs(ref) > F(1e-290):
        err = float(abs(F(value) - ref) / abs(ref))
        assert err <= rtol, \
            f"{what}: {value!r} off {float(ref)!r} by {err:.3g}"


def _vector_close(values, refs, rtol, what):
    assert len(values) == len(refs), f"{what}: length {len(values)}"
    for k, (v, r) in enumerate(zip(values, refs)):
        _close(v, r, rtol, f"{what}[{k}]")


def _class_reference(rows, cls):
    """The stationary vector of closed class ``cls`` of exact ``rows``."""
    sub = stationary_reference([[rows[i][j] for j in cls] for i in cls])
    out = [F(0)] * len(rows)
    for i, x in zip(cls, sub):
        out[i] = x
    return out


def _check_result(rows, out):
    """A float :class:`EquilibriumResult` against exact ``rows``."""
    _vector_close(out.weights, _exact_weights(rows), 1e-10, "weights")
    if out.unique:
        _vector_close(out.pi, stationary_reference(rows), 1e-12, "pi")
    else:
        _check_vertices(rows, out.decomposition)


def _check_vertices(rows, report):
    for cls, v in zip(report.closed_classes, report.vertex_equilibria):
        _vector_close(v, _class_reference(rows, cls), 1e-12, "vertex")


def _check_float_chain(p, what):
    """A check of a float library output ``what`` on the float chain ``p``,
    against the exact entries of its validated matrix."""
    def check(out):
        rows = exact_rows_of(StochasticMatrix(p, mode="float").p)
        if what == "stationary":
            _check_result(rows, out)
        elif what == "minor_weights":
            _vector_close(out, _exact_weights(rows), 1e-10, "weights")
        elif what == "equilibrium_polytope":
            _check_vertices(rows, out)
        else:  # relative_probability (i, j)
            i, j = what
            ref = stationary_reference(rows)
            _close(out, ref[i] / ref[j], 1e-12, "ratio")
    return check


def _check_float_closed_form(bands):
    def check(out):
        _check_result(exact_rows_of(matrix_from_bands(bands).p), out)
    return check


def _check_float_determinant(fn, a, *index):
    exact = [[F(float(x)) for x in row] for row in a]

    def det_without(i, j):
        return det_cofactor([r[:j] + r[j + 1:]
                             for k, r in enumerate(exact) if k != i])

    def check(out):
        if fn is determinant:
            _close(out, det_cofactor(exact), 1e-12, "determinant")
        elif fn is minor:
            _close(out, det_without(*index), 1e-12, "minor")
        else:
            n = len(exact)
            ref = [[(-1) ** (i + j) * det_without(j, i) for j in range(n)]
                   for i in range(n)]
            scale = max(abs(x) for row in ref for x in row)
            for i in range(n):
                for j in range(n):
                    err = float(abs(F(float(out[i][j])) - ref[i][j]) / scale)
                    assert err <= 1e-12, f"adjugate[{i}][{j}] off by {err:.3g}"
    return check


# ---------------------------------------------------------------------------
# library cases
# ---------------------------------------------------------------------------

def _exact_chains():
    rng = make_rng(1201)
    chains = {f"random-{k}": random_structured_rows(rng, max_n=7)
              for k in range(8)}
    chains["positive-6"] = random_stochastic_rows(rng, 6,
                                                  strictly_positive=True)
    chains["sparse-7"] = random_stochastic_rows(rng, 7)
    transitory = with_transitory(rng, 2, [random_stochastic_rows(
        rng, 3, strictly_positive=True)])
    chains["transitory"] = transitory
    chains["relabelled"] = permute_rows(transitory,
                                        random_permutation(rng, 5))
    blocks = [random_stochastic_rows(rng, s, strictly_positive=True)
              for s in (2, 3)]
    chains["block"] = direct_sum(blocks)
    chains["block-transitory"] = with_transitory(rng, 1, blocks)
    chains["identity-3"] = [[F(int(i == j)) for j in range(3)]
                            for i in range(3)]
    chains["one-state"] = [[F(1)]]
    chains["cycle-4"] = [[F(int(j == (i + 1) % 4)) for j in range(4)]
                         for i in range(4)]
    chains["absorbing-pair"] = [[F(1), F(0), F(0)],
                                [F(1, 3), F(1, 3), F(1, 3)],
                                [F(0), F(0), F(1)]]
    return chains


_BAD_CHAINS = {
    "row-sum": [[F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)]],
    "negative": [[F(3, 2), F(-1, 2)], [F(1, 2), F(1, 2)]],
    "ragged": [[F(1)], [F(1, 2), F(1, 2)]],
    "empty": [],
    "not-finite": [[float("nan"), 1.0], [0.5, 0.5]],
    "float-row-sum": [[0.5, 0.6], [0.5, 0.5]],
}


def _chain_cases(tag, p, check=None):
    n = len(p)
    for fn in (stationary, minor_weights, equilibrium_polytope):
        yield Case(f"lib/{fn.__name__}/{tag}", lambda fn=fn: fn(p),
                   check and check(p, fn.__name__))
    yield Case(f"lib/communicating_classes/{tag}",
               lambda: communicating_classes(p))
    for i, j in sorted({(0, n - 1), (n - 1, 0)}):
        yield Case(f"lib/relative_probability/{tag}-{i}-{j}",
                   lambda i=i, j=j: relative_probability(p, i, j),
                   check and check(p, (i, j)))


def _library_cases():
    for tag, rows in _exact_chains().items():
        yield from _chain_cases(f"exact/{tag}", rows)
        yield from _chain_cases(f"float/{tag}", np.array(rows, dtype=float),
                                _check_float_chain)
    for tag, rows in _BAD_CHAINS.items():
        yield from _chain_cases(f"error/{tag}", rows)
    yield Case("lib/relative_probability/error/bool-index",
               lambda: relative_probability([[1, 0], [0, 1]], True, 0))
    yield Case("lib/relative_probability/error/out-of-range",
               lambda: relative_probability([[F(1, 2)] * 2] * 2, 0, 2))
    yield from _graph_cases()
    yield from _closed_form_cases()
    yield from _determinant_cases()


def _graph_cases():
    rng = make_rng(1202)
    graphs = {
        "undirected-5": random_connected_undirected(rng, 5),
        "digraph-6": random_strongly_connected_digraph(rng, 6),
        "two-sinks": [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0],
                      [0, 1, 0, 0]],
        "transitory": [[0, 2, 1], [0, 0, 3], [0, 1, 0]],
        "self-loop": [[1]],
        "sink": [[0, 1], [0, 0]],
        "negative": [[0, -1], [1, 0]],
        "not-integer": [[0, 1.5], [1, 0]],
        "ragged": [[0, 1], [1]],
        "empty": [],
    }
    for tag, adj in graphs.items():
        yield Case(f"lib/graph_stationary/{tag}",
                   lambda adj=adj: graph_stationary(Graph(adj)))
    yield Case("lib/graph_stationary/from-edges",
               lambda: graph_stationary(Graph.from_edges(
                   3, [(0, 1), (1, 2, 2), (2, 0), (2, 1)])))
    yield Case("lib/graph_stationary/from-edges-out-of-range",
               lambda: Graph.from_edges(2, [(0, 2)]))
    yield Case("lib/graph_stationary/from-edges-sink",
               lambda: Graph.from_edges(3, [(0, 1), (1, 0)]))


_CLOSED_FORMS = {2: closed_form_2, 3: closed_form_3, 4: closed_form_4,
                 5: closed_form_5}


def _closed_form_cases():
    rng = make_rng(1203)
    for n, fn in _CLOSED_FORMS.items():
        for k in range(4):
            bands = random_band_params(rng, n)
            flat = [x for band in bands for x in band]
            yield Case(f"lib/closed_form_{n}/exact-{k}",
                       lambda fn=fn, flat=flat: fn(*flat))
        # every state absorbing: several closed classes
        yield Case(f"lib/closed_form_{n}/exact-identity",
                   lambda fn=fn, n=n: fn(*[F(0)] * (n * (n - 1))))
        # state 0 absorbing, the rest leaking into it: one transitory tail
        tail = [[0.0] * (n - 1)] + [[0.5 / (n - 1)] * (n - 1)] * (n - 1)
        positive = [[rng.uniform(0.1, 0.9) / (n - 1) for _ in range(n - 1)]
                    for _ in range(n)]
        # small denominators give zeros: reducible and degenerate chains
        sparse = [[[float(x) for x in band]
                   for band in random_band_params(rng, n, max_den=3)]
                  for _ in range(4)]
        for tag, bands in (("float-positive", positive),
                           ("float-transitory", tail),
                           *((f"float-sparse-{k}", b)
                             for k, b in enumerate(sparse))):
            flat = [x for band in bands for x in band]
            yield Case(f"lib/closed_form_{n}/{tag}",
                       lambda fn=fn, flat=flat: fn(*flat),
                       _check_float_closed_form(bands))
        size = n * (n - 1)
        for tag, params in (
                ("parameter-above-one", [F(3, 2)] + [F(0)] * (size - 1)),
                ("negative-parameter", [F(0)] * (size - 1) + [F(-1, 4)]),
                ("row-sum", [F(3, 4)] * (n - 1) + [F(0)] * (size - n + 1)),
                ("float-slack", [0.5, 0.5 + 1e-10] + [0.0] * (size - 2)),
                ("arity", [F(0)] * (size - 1))):
            yield Case(f"lib/closed_form_{n}/error-{tag}",
                       lambda fn=fn, params=params: fn(*params))
    # state 5 is transitory; an LU of its dyadic minor rounds to 6.6e-17
    bands = [[0.0, 0.5, 0.5, 0.0], [0.0, 0.25, 0.0, 0.5],
             [0.5, 0.0, 0.25, 0.25], [0.0, 0.0, 0.5, 0.5],
             [0.0, 0.0, 1.0, 0.0]]
    yield Case("lib/closed_form_5/float-rounded-zero",
               lambda: closed_form_5(*[x for band in bands for x in band]),
               _check_float_closed_form(bands))


def _determinant_cases():
    rng = make_rng(1204)
    nprng = np.random.default_rng(1204)
    for n in range(1, 6):
        exact = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(n)]
        # diagonally dominant, so every minor is well conditioned
        flt = nprng.normal(size=(n, n)) + 4 * n * np.eye(n)
        for tag, a, check in (("exact", exact, None), ("float", flt, True)):
            k = n - 1
            for fn, index in ((determinant, ()), (minor, (0, k)),
                              (adjugate, ())):
                yield Case(
                    f"lib/{fn.__name__}/{tag}-{n}",
                    lambda fn=fn, a=a, index=index: fn(a, *index),
                    check and _check_float_determinant(fn, a, *index))
    singular = [[1, 2, 3], [2, 4, 6], [F(1, 3), 0, 1]]
    copied = np.array([[0.3, 0.7], [0.3, 0.7]])
    for tag, a in (("exact-singular", singular), ("float-copied-row", copied),
                   ("integers", [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
                   ("swap", [[0, 1], [1, 0]]),
                   ("float-empty", np.zeros((0, 0)))):
        for fn in (determinant, adjugate):
            yield Case(f"lib/{fn.__name__}/{tag}", lambda fn=fn, a=a: fn(a))
    for tag, a in (("empty-list", []), ("not-square", [[1, 2, 3], [4, 5, 6]]),
                   ("ragged", [[1, 2], [3]]), ("vector", [1, 2]),
                   ("not-finite", [[1.0, float("inf")], [0.0, 1.0]])):
        yield Case(f"lib/determinant/{tag}", lambda a=a: determinant(a))
    yield Case("lib/minor/error-out-of-range",
               lambda: minor([[1, 2], [3, 4]], 2, 0))


# ---------------------------------------------------------------------------
# CLI cases
# ---------------------------------------------------------------------------

# input files: (text, the text of a vector for ``verify``, a float input)
_INPUTS = {
    "two-state.txt": ("2/3 1/3\n2/3 1/3\n", "2/3 1/3\n", False),
    "transitory.txt": ("1/2 1/4 1/4\n0 1/3 2/3\n0 1/2 1/2\n",
                       "0 3/7 4/7\n", False),
    "absorbing.txt": ("1 0 0\n1/3 1/3 1/3\n0 0 1\n", "1 0 0\n", False),
    "float.txt": ("0.9 0.1 0\n0.2 0.5 0.3\n0 0.4 0.6\n",
                  "0.5 0.3 0.2\n", True),
    "graph.txt": ("# a digraph\nnodes 4\n1 2 2\n2 3\n3 1\n3 4\n4 3\n",
                  '{"pi": ["1/4", "1/4", "1/4", "1/4"]}', False),
    "sink.txt": ("nodes 3\n1 2\n2 3\n", "1 0 0\n", False),
    "matrix.json": (json.dumps({"kind": "matrix", "n": 3, "rows": [
        ["1/2", "1/2", "0"], ["0", "1/2", "1/2"], [1, 0, 0]]}),
        "[0.25, 0.5, 0.25]", False),
    "graph.json": (json.dumps({"kind": "graph", "n": 3, "rows": [
        [0, 1, 1], [1, 0, 0], [1, 1, 0]]}), "2/5 1/5 2/5\n", False),
}

_FLAG_SETS = [[], ["--json"], ["--mode", "float"],
              ["--mode", "float", "--json"], ["--mode", "exact"],
              ["--epsilon", "1/10"], ["--epsilon", "0.1", "--json"],
              ["--format", "graph"]]

_COMMANDS = ["stationary", "weights", "classes", "polytope", "ratio",
             "compare", "verify"]


def _run_cli(argv, files, masked):
    """``main(argv)`` in process, on ``files`` written to a scratch
    directory that ``argv`` names as ``{dir}``.  ``$EQUILIB_MODE`` is unset
    and usage text is wrapped at 80 columns, whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            tempfile.TemporaryDirectory() as tmp:
        os.environ.pop(MODE_ENV_VAR, None)
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.replace("{dir}", tmp) for a in argv])
    texts = [t.replace(tmp, "{dir}") for t in (out.getvalue(), err.getvalue())]
    if masked:
        texts = [_DECIMAL_RE.sub("#", t) for t in texts]
    return {"code": code, "out": texts[0], "err": texts[1]}


def _cli_case(name, argv, files, masked):
    return Case(f"cli/{name}", lambda: _run_cli(argv, files, masked))


def _cli_cases():
    for command in _COMMANDS:
        for source, (text, pi, decimal) in _INPUTS.items():
            for flags in _FLAG_SETS:
                argv = [command]
                files = {source: text}
                if command == "ratio":
                    argv += ["1", "2"]
                if command == "verify":
                    argv.append("{dir}/pi.txt")
                    files["pi.txt"] = pi
                argv += flags + ["{dir}/" + source]
                # a float chain, or a float printed next to exact ones
                masked = command == "compare" or "float" in flags \
                    or decimal and "exact" not in flags \
                    or command == "verify" and "." in pi
                yield _cli_case(f"{command}/{source}/{' '.join(flags)}",
                                argv, files, masked)
    two = {"m.txt": _INPUTS["two-state.txt"][0]}
    absorbing = {"m.txt": _INPUTS["absorbing.txt"][0]}
    for tag, argv, files in (
            ("no-arguments", [], {}),
            ("unknown-command", ["solve", "{dir}/m.txt"], two),
            ("unknown-flag", ["stationary", "--fast", "{dir}/m.txt"], two),
            ("bad-mode", ["stationary", "--mode", "half", "{dir}/m.txt"], two),
            ("empty-input", ["stationary", "{dir}/m.txt"], {"m.txt": ""}),
            ("malformed-literal", ["weights", "{dir}/m.txt"],
             {"m.txt": "1/2 1/2\nx 1\n"}),
            ("not-square", ["stationary", "{dir}/m.txt"],
             {"m.txt": "1/2 1/2\n1\n"}),
            ("row-sum", ["stationary", "{dir}/m.txt"],
             {"m.txt": "1/2 1/3\n1/2 1/2\n"}),
            ("json-kind", ["stationary", "{dir}/m.json"],
             {"m.json": '{"kind": "tensor", "rows": [[1]]}'}),
            ("json-empty-graph", ["stationary", "{dir}/m.json"],
             {"m.json": '{"kind": "graph", "rows": []}'}),
            ("json-empty-matrix", ["stationary", "{dir}/m.json"],
             {"m.json": '{"kind": "matrix", "rows": []}'}),
            ("format-json-on-text", ["stationary", "--format", "json",
                                     "{dir}/m.txt"], two),
            ("graph-header", ["stationary", "{dir}/g.txt"],
             {"g.txt": "nodes two\n1 2\n"}),
            ("graph-out-of-range", ["stationary", "{dir}/g.txt"],
             {"g.txt": "nodes 2\n1 3\n"}),
            ("epsilon-zero", ["stationary", "--epsilon", "0", "{dir}/m.txt"],
             two),
            ("epsilon-malformed", ["stationary", "--epsilon", "abc",
                                   "{dir}/m.txt"], two),
            ("epsilon-float-mode", ["stationary", "--mode", "float",
                                    "--epsilon", "1/4", "{dir}/m.txt"],
             absorbing),
            ("tol-negative", ["compare", "--tol", "-1", "{dir}/m.txt"], two),
            ("tol-fraction", ["compare", "--tol", "1/1000", "{dir}/m.txt"],
             two),
            ("ratio-out-of-range", ["ratio", "1", "4", "{dir}/m.txt"], two),
            ("ratio-zero-weight", ["ratio", "2", "1", "{dir}/m.txt"],
             absorbing),
            ("ratio-not-an-index", ["ratio", "x", "1", "{dir}/m.txt"], two),
            ("ratio-huge-i", ["ratio", "1" * 5000, "1", "{dir}/m.txt"], two),
            ("ratio-huge-j", ["ratio", "1", "2" * 5000, "{dir}/m.txt"], two),
            ("verify-length", ["verify", "{dir}/pi.txt", "{dir}/m.txt"],
             {**two, "pi.txt": "1 0 0\n"}),
            ("verify-no-pi", ["verify", "{dir}/pi.json", "{dir}/m.txt"],
             {**two, "pi.json": '{"weights": [1, 2]}'}),
    ):
        masked = "compare" in argv or "float" in argv
        yield _cli_case(f"misc/{tag}", argv, files, masked)


def cases():
    """Every case of the corpus, in a fixed order."""
    out = [*_library_cases(), *_cli_cases()]
    names = [c.name for c in out]
    assert len(set(names)) == len(names), "case names must be unique"
    return out


def write_golden(path=GOLDEN):
    """Record every case's encoded outcome, one case per line."""
    lines = [f"{json.dumps(c.name)}: "
             f"{json.dumps(outcome(c)[1], sort_keys=True)}" for c in cases()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return len(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    print(f"wrote {write_golden()} cases to {GOLDEN}")
