"""The benchmark's three workloads: seeded inputs, the operations run on
them, and the independent check every operation's output must pass.

Each workload is a list of operations in a fixed order.  One pass runs them
all once, interleaving the small tier (tiny inputs, where validation,
parsing and ``Fraction`` handling dominate) with the large tier (inputs
where the weight kernel dominates), so a slow phase of the host hits both
tiers alike.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks

# every exact dense chain uses this common denominator, so the integer sizes
# in the kernel, and with them the cost, do not depend on the seed
EXACT_DENOM = 1000
# float chains are dyadic with exact unit row sums: the float matrix is a
# stochastic matrix exactly, and its exact answer stays cheap to compute
FLOAT_DENOM = 2 ** 16
# the two float inputs that fail today; fixed, so they fail on every seed
LAZY_CYCLE = (110, 1e-3)           # states, step probability
EPS_CHAIN = (16, 1e-12)            # states, coupling probability
EPS_CHAIN_SEED = 0


@dataclass
class Op:
    """One operation: ``call(lib)`` runs it, ``check(output)`` raises
    :class:`checks.CheckError` on a wrong output.  ``known_fault`` names
    the program fault an operation that fails today runs into."""

    name: str
    tier: str
    call: Callable
    check: Callable
    known_fault: str = None


def _once(fn):
    """``fn()``, computed on first use and kept.  Exact answers are built
    this way, so they cost neither set-up time nor pass time."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]
    return get


def _parts(rng, n, total):
    """``n`` positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def rational_chain(rng, n, denom=EXACT_DENOM):
    """A dense random chain over ``k / denom``; every entry is positive, so
    the chain is irreducible by construction."""
    return [[Fraction(k, denom) for k in _parts(rng, n, denom)]
            for _ in range(n)]


def dyadic_chain(rng, n):
    """A dense float chain with entries ``k / 2^16``, rows summing to 1."""
    return np.array([[k / FLOAT_DENOM for k in _parts(rng, n, FLOAT_DENOM)]
                     for _ in range(n)])


def lazy_cycle(n, step):
    """Stay with ``1 - step``, move to the next state on a cycle with
    ``step``; the answer is uniform."""
    p = np.zeros((n, n))
    for i in range(n):
        p[i, i] = 1.0 - step
        p[i, (i + 1) % n] = step
    return p


def eps_chain(n, eps, seed=EPS_CHAIN_SEED):
    """Two dense dyadic blocks joined by one ``eps`` edge each way."""
    rng = random.Random(seed)
    h = n // 2
    p = np.zeros((n, n))
    for lo in (0, h):
        p[lo:lo + h, lo:lo + h] = dyadic_chain(rng, h)
    for i, j in ((0, h), (h, 0)):
        p[i, i] -= eps
        p[i, j] = eps
    return p


def block_chain(rng, closed_sizes, n_transitory, denom=EXACT_DENOM):
    """A reducible chain: dense closed classes plus one dense open class
    that leaks into every closed class, with states randomly relabelled.

    Returns ``(rows, classes, closed_flags)`` in the order the library
    reports them (classes sorted, ordered by their smallest state).
    """
    groups = []
    start = 0
    for size in closed_sizes:
        groups.append((list(range(start, start + size)), True))
        start += size
    transitory = list(range(start, start + n_transitory))
    groups.append((transitory, False))
    n = start + n_transitory
    rows = [[Fraction(0)] * n for _ in range(n)]
    for members, closed in groups:
        targets = members if closed else members + [
            cls[0] for cls, ok in groups if ok]
        for i in members:
            for j, k in zip(targets, _parts(rng, len(targets), denom)):
                rows[i][j] = Fraction(k, denom)
    label = list(range(n))
    rng.shuffle(label)
    relabelled = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabelled[label[i]][label[j]] = rows[i][j]
    reported = sorted(((sorted(label[i] for i in members), closed)
                       for members, closed in groups),
                      key=lambda item: item[0][0])
    return (relabelled, [c for c, _ in reported],
            [ok for _, ok in reported])


def directed_multigraph(rng, n, extra):
    """A strongly connected multigraph: a random Hamiltonian cycle plus
    ``extra`` random edges, multiplicities 1..3."""
    a = [[0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for k in range(n):
        a[order[k]][order[(k + 1) % n]] += 1
    for _ in range(extra):
        a[rng.randrange(n)][rng.randrange(n)] += rng.randint(1, 3)
    return a


def undirected_multigraph(rng, n, extra):
    """A connected symmetric multigraph: a random spanning tree plus
    ``extra`` random edges, multiplicities 1..3."""
    a = [[0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[k], order[rng.randrange(k)]) for k in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    for i, j in edges:
        m = rng.randint(1, 3)
        a[i][j] += m
        if i != j:
            a[j][i] += m
    return a


def band_params(rng, n, denom=60):
    """Off-diagonal parameters of :func:`band_matrix`, row by row."""
    return [[Fraction(k, denom) for k in _parts(rng, n, denom)[:n - 1]]
            for _ in range(n)]


def band_matrix(bands):
    """``P`` with ``bands[i][k - 1]`` at ``(i, (i + k) % n)`` and the
    diagonal filling each row to 1."""
    n = len(bands)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, band in enumerate(bands):
        for k, x in enumerate(band, start=1):
            rows[i][(i + k) % n] = x
        rows[i][i] = 1 - sum(band)
    return rows


def interleave(small, large):
    """``small`` split into ``len(large)`` runs, each before a large op."""
    k = len(large)
    chunks = [small[len(small) * i // k:len(small) * (i + 1) // k]
              for i in range(k)]
    return [op for chunk, big in zip(chunks, large) for op in chunk + [big]]


# ---------------------------------------------------------------------------
# exact-chains: library calls in exact mode
# ---------------------------------------------------------------------------

def _check_unique_exact(p, with_weights):
    def check(res):
        if not res.unique:
            raise checks.CheckError("reported degenerate, chain is "
                                    "irreducible")
        checks.check_stationary_exact(p, res.pi)
        if with_weights:
            checks.check_weights_exact(p, res.weights)
    return check


def _check_graph(adj, undirected):
    def check(ge):
        if not ge.unique:
            raise checks.CheckError("graph walk reported degenerate")
        pi = list(ge.result.pi)
        checks.check_graph_pieces(adj, list(ge.numerators), ge.denominator,
                                  pi)
        if undirected:
            checks.check_undirected(adj, pi)
    return check


def _check_block(p, classes, closed):
    def check(res):
        if res.unique:
            raise checks.CheckError("block chain reported unique")
        rep = res.decomposition
        checks.check_decomposition(p, classes, closed, rep.classes,
                                   rep.closed_flags,
                                   [list(v) for v in rep.vertex_equilibria])
    return check


def _closed_form_op(name, n, bands):
    flat = [x for band in bands for x in band]
    return Op(name, "small",
              lambda lib: getattr(lib.equilibrium, f"closed_form_{n}")(*flat),
              _check_unique_exact(band_matrix(bands), with_weights=True))


def _stationary_op(name, tier, p, check, known_fault=None):
    return Op(name, tier, lambda lib: lib.equilibrium.stationary(p), check,
              known_fault)


def _graph_op(name, tier, adj, undirected):
    return Op(name, tier,
              lambda lib: lib.graph_walk.graph_stationary(
                  lib.graph_walk.Graph(adj)),
              _check_graph(adj, undirected))


def exact_chains(rng, workdir):
    small = [_closed_form_op(f"closed_form_{n}{tag}", n, band_params(rng, n))
             for n in (2, 3, 4, 5) for tag in "abc"]
    # dense small inputs: a sparsity pattern drawn from the seed would make
    # their cost depend on the seed
    for n in range(3, 9):
        p = rational_chain(rng, n, denom=24)
        small.append(_stationary_op(f"chain_{n}", "small", p,
                                    _check_unique_exact(p, True)))
    for n in (5, 6, 7):
        small.append(_graph_op(f"digraph_{n}", "small",
                               directed_multigraph(rng, n, n * n), False))
        small.append(_graph_op(f"graph_{n}", "small",
                               undirected_multigraph(rng, n, n * n // 2),
                               True))
    dense = rational_chain(rng, 40)
    block, classes, closed = block_chain(rng, (8, 10, 12), 6)
    large = [
        _stationary_op("dense_40", "large", dense,
                       _check_unique_exact(dense, False)),
        _stationary_op("block_36", "large", block,
                       _check_block(block, classes, closed)),
        _graph_op("digraph_30", "large", directed_multigraph(rng, 30, 300),
                  False),
        _graph_op("graph_30", "large", undirected_multigraph(rng, 30, 150),
                  True),
    ]
    return interleave(small, large)


# ---------------------------------------------------------------------------
# float-chains: float stationary
# ---------------------------------------------------------------------------

def _check_float(ref):
    def check(res):
        if not res.unique:
            raise checks.CheckError("reported degenerate, chain is "
                                    "irreducible")
        checks.check_float_close(res.pi, ref())
    return check


def _exact_answer(p):
    return _once(lambda: checks.exact_stationary(checks.exact_rows(p)))


def float_chains(rng, workdir):
    small = []
    for n in (4, 8, 16, 28, 40):
        p = dyadic_chain(rng, n)
        small.append(_stationary_op(f"dense_{n}", "small", p,
                                    _check_float(_exact_answer(p))))
    dense_a, dense_b = dyadic_chain(rng, 100), dyadic_chain(rng, 100)
    n_eps, eps = EPS_CHAIN
    p_eps = eps_chain(n_eps, eps)
    n_lazy, step = LAZY_CYCLE
    large = [
        _stationary_op("dense_100a", "large", dense_a,
                       _check_float(_exact_answer(dense_a))),
        _stationary_op(
            f"eps_chain_{n_eps}", "large", p_eps,
            _check_float(_exact_answer(p_eps)),
            known_fault=f"float minors lose accuracy at eps={eps:g}"),
        _stationary_op("dense_100b", "large", dense_b,
                       _check_float(_exact_answer(dense_b))),
        _stationary_op(
            f"lazy_cycle_{n_lazy}", "large", lazy_cycle(n_lazy, step),
            _check_float(lambda: [Fraction(1, n_lazy)] * n_lazy),
            known_fault=f"float minors underflow (step {step:g})"),
    ]
    return interleave(small, large)


# ---------------------------------------------------------------------------
# cli-calls: ``python -m equilib.cli`` processes, one at a time
# ---------------------------------------------------------------------------

def _matrix_text(rows):
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def _edge_text(adj):
    lines = [f"nodes {len(adj)}"]
    for i, row in enumerate(adj):
        lines += [f"{i + 1} {j + 1} {m}" for j, m in enumerate(row) if m]
    return "\n".join(lines) + "\n"


def _cli_op(name, tier, argv, code, check=None):
    def full_check(out):
        checks.check_exit(out, code)
        if check is not None:
            check(out[1])
    return Op(name, tier, lambda lib: lib.run_cli(argv), full_check)


def cli_calls(rng, workdir):
    tiny = rational_chain(rng, 3, denom=12)
    tiny_pi = checks.exact_stationary(tiny)
    tiny_float = [[k / 10000 for k in _parts(rng, 3, 10000)]
                  for _ in range(3)]
    tiny_float_pi = _exact_answer(tiny_float)
    tiny_graph = undirected_multigraph(rng, 4, 2)
    block, classes, closed = block_chain(rng, (2, 1), 2, denom=6)
    large = rational_chain(rng, 30)
    digraph = directed_multigraph(rng, 40, 500)
    graph = undirected_multigraph(rng, 40, 250)
    bad = [row[:] for row in tiny]
    bad[1][0] += Fraction(1, 10)

    files = {
        "tiny_exact.txt": _matrix_text(tiny),
        "tiny_float.txt": "".join(
            " ".join(f"{x:.4f}" for x in row) + "\n" for row in tiny_float),
        "tiny_graph.txt": _edge_text(tiny_graph),
        "tiny_block.json": json.dumps(
            {"kind": "matrix", "n": len(block),
             "rows": [[str(x) for x in row] for row in block]}),
        "tiny_pi.json": json.dumps({"pi": [str(x) for x in tiny_pi]}),
        "bad.txt": _matrix_text(bad),
        "large_exact.txt": _matrix_text(large),
        "large_digraph.txt": _edge_text(digraph),
        "large_graph.txt": _edge_text(graph),
    }
    path = {}
    for name, text in files.items():
        path[name] = str(workdir / name)
        (workdir / name).write_text(text)

    def exact_pi_text(p):
        return lambda out: checks.check_stationary_exact(
            p, checks.text_vector(out, "pi = ", exact=True))

    def float_pi_json(out):
        doc = json.loads(out)
        if doc["variant"] != "unique" or doc["mode"] != "float":
            raise checks.CheckError(f"unexpected document {doc}")
        checks.check_float_close(doc["pi"], tiny_float_pi())

    def graph_json(adj, undirected):
        def check(out):
            doc = json.loads(out)
            pi = [Fraction(x) for x in doc["pi"]]
            checks.check_graph_pieces(adj, doc["numerators"],
                                      doc["denominator"], pi)
            if undirected:
                checks.check_undirected(adj, pi)
        return check

    def float_weights_text(out):
        w = checks.text_vector(out, "w = ", exact=False)
        total = float(checks.text_field(out, "total = "))
        checks.check_float_close([x / total for x in w], tiny_float_pi(),
                                 rtol=checks.TEXT_FLOAT_RTOL)

    def classes_text(out):
        got, flags = checks.text_classes(out)
        checks.check_decomposition(block, classes, closed, got, flags, None)

    def polytope_json(out):
        got, flags, vertices = checks.json_report(json.loads(out)["report"])
        checks.check_decomposition(block, classes, closed, got, flags,
                                   vertices)

    def ratio_text(out):
        value = checks.text_field(out, "pi[1] / pi[3] = ")
        checks.check_ratio(Fraction(value), tiny_pi, 0, 2)

    def compare_json(out):
        methods = json.loads(out)["methods"]
        for name in ("minor_weights", "linear_solve", "power_method"):
            checks.check_float_close(methods[name]["pi"], tiny_float_pi(),
                                     what=name)

    def verify_text(out):
        residual = checks.text_field(out, "residual = ")
        if Fraction(residual) != 0:
            raise checks.CheckError(f"residual {residual} of the exact pi")

    def exact_pi_json(p):
        def check(out):
            checks.check_stationary_exact(
                p, [Fraction(x) for x in json.loads(out)["pi"]])
        return check

    def undirected_text(out):
        checks.check_undirected(graph, checks.text_vector(out, "pi = ",
                                                          exact=True))

    small = [
        _cli_op("stationary_text_exact", "small",
                ["stationary", path["tiny_exact.txt"]], 0,
                exact_pi_text(tiny)),
        _cli_op("stationary_json_float", "small",
                ["stationary", "--json", path["tiny_float.txt"]], 0,
                float_pi_json),
        _cli_op("weights_json_graph", "small",
                ["weights", "--json", path["tiny_graph.txt"]], 0,
                graph_json(tiny_graph, undirected=True)),
        _cli_op("weights_text_float", "small",
                ["weights", path["tiny_float.txt"]], 0, float_weights_text),
        _cli_op("classes_text_block", "small",
                ["classes", path["tiny_block.json"]], 2, classes_text),
        _cli_op("polytope_json_block", "small",
                ["polytope", "--json", path["tiny_block.json"]], 2,
                polytope_json),
        _cli_op("ratio_text_exact", "small",
                ["ratio", "1", "3", path["tiny_exact.txt"]], 0, ratio_text),
        _cli_op("compare_json_float", "small",
                ["compare", "--json", path["tiny_float.txt"]], 0,
                compare_json),
        _cli_op("verify_text_exact", "small",
                ["verify", path["tiny_pi.json"], path["tiny_exact.txt"]], 0,
                verify_text),
        _cli_op("stationary_bad_row_sum", "small",
                ["stationary", path["bad.txt"]], 1),
    ]
    large_ops = [
        _cli_op("stationary_json_exact_30", "large",
                ["stationary", "--json", path["large_exact.txt"]], 0,
                exact_pi_json(large)),
        _cli_op("weights_json_digraph_40", "large",
                ["weights", "--json", path["large_digraph.txt"]], 0,
                graph_json(digraph, undirected=False)),
        _cli_op("stationary_text_graph_40", "large",
                ["stationary", path["large_graph.txt"]], 0, undirected_text),
    ]
    return interleave(small, large_ops)


WORKLOADS = {
    "exact-chains": exact_chains,
    "float-chains": float_chains,
    "cli-calls": cli_calls,
}
