"""Independent correctness checks for the benchmark's outputs.

Nothing here imports ``equilib``.  Each check either tests a property every
correct answer must have (``pi P == pi`` exactly, ``pi_i = d_i / sum(d)`` on
undirected graphs, support on a closed class) or compares against the
benchmark's own computation, which uses a different algorithm from the
library (Gaussian elimination over ``Fraction`` for minors, a fraction-free
linear solve for stationary vectors).

A check returns ``None`` on success and raises :class:`CheckError` with a
located message otherwise.
"""

import math
from fractions import Fraction

# float results must agree entrywise with the exact answer to this relative
# accuracy; a relatively accurate float64 method on n <= 200 states stays
# orders of magnitude inside it
FLOAT_RTOL = 1e-9
# text output prints floats with 6 significant digits: each printed value is
# within 5e-6 relative, a ratio of two printed values within about 1e-5
TEXT_FLOAT_RTOL = 2e-5


class CheckError(AssertionError):
    """An output failed an independent correctness check."""


# ---------------------------------------------------------------------------
# exact arithmetic that shares no code with the library
# ---------------------------------------------------------------------------

def principal_minors(p):
    """``[det((I - P) without row i and column i) for i]`` by plain
    Gaussian elimination over Fractions (O(n^4); meant for n <= 8)."""
    n = len(p)
    a = [[Fraction(int(i == j)) - Fraction(p[i][j]) for j in range(n)]
         for i in range(n)]
    return [_fraction_det([[a[r][c] for c in range(n) if c != i]
                           for r in range(n) if r != i]) for i in range(n)]


def _fraction_det(m):
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            if m[r][k] != 0:
                f = m[r][k] / m[k][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return det


def _integer_row(row):
    scale = 1
    for x in row:
        scale = math.lcm(scale, x.denominator)
    return [int(x * scale) for x in row]


def exact_stationary(p):
    """The stationary vector of an irreducible rational chain.

    Solves ``pi (I - P) = 0`` with the last equation replaced by
    ``sum(pi) = 1``: fraction-free forward elimination on the integer-scaled
    system, then back substitution over Fractions.
    """
    n = len(p)
    system = [[Fraction(int(i == j)) - Fraction(p[i][j]) for i in range(n)]
              + [Fraction(0)] for j in range(n - 1)]
    system.append([Fraction(1)] * (n + 1))
    m = [_integer_row(row) for row in system]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                raise ArithmeticError("chain is not irreducible")
            m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pk - lead * row_k[j]) // prev
            row[k] = 0
        prev = pk
    if m[n - 1][n - 1] == 0:
        raise ArithmeticError("chain is not irreducible")
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))
        x[k] = Fraction(s, 1) / m[k][k]
    return x


def exact_rows(float_rows):
    """The exact rationals of a float matrix, each row scaled to sum 1."""
    out = []
    for row in float_rows:
        fr = [Fraction(float(x)) for x in row]
        total = sum(fr)
        out.append([x / total for x in fr])
    return out


def walk_rows(adjacency):
    """``P = D^-1 A`` of the simple random walk, as Fractions."""
    return [[Fraction(a, sum(row)) for a in row] for row in adjacency]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _exact_vector(v, what):
    v = list(v)
    for k, x in enumerate(v):
        _require(isinstance(x, (Fraction, int)) and not isinstance(x, bool),
                 f"{what}: entry {k + 1} is {type(x).__name__}, not exact")
    return [Fraction(x) for x in v]


def check_stationary_exact(p, pi, what="pi"):
    """``pi`` is an exact probability vector with ``pi P == pi``."""
    pi = _exact_vector(pi, what)
    n = len(p)
    _require(len(pi) == n, f"{what}: length {len(pi)}, expected {n}")
    _require(all(x >= 0 for x in pi), f"{what}: negative entry")
    _require(sum(pi) == 1, f"{what}: sums to {sum(pi)}, expected 1")
    for j in range(n):
        s = sum(pi[i] * p[i][j] for i in range(n) if p[i][j] != 0)
        _require(s == pi[j], f"{what}: (pi P)_{j + 1} != pi_{j + 1}")


def check_weights_exact(p, weights, what="weights"):
    """The weights equal the principal minors of ``I - P`` exactly."""
    w = _exact_vector(weights, what)
    ref = principal_minors(p)
    _require(len(w) == len(ref), f"{what}: length {len(w)}, expected "
                                 f"{len(ref)}")
    for k, (x, y) in enumerate(zip(w, ref)):
        _require(x == y, f"{what}: w_{k + 1} = {x}, expected {y}")


def check_undirected(adjacency, pi, what="pi"):
    """On an undirected connected graph ``pi_i = d_i / sum(d)`` exactly."""
    pi = _exact_vector(pi, what)
    degrees = [sum(row) for row in adjacency]
    total = sum(degrees)
    _require(len(pi) == len(degrees), f"{what}: wrong length")
    for k, (x, d) in enumerate(zip(pi, degrees)):
        _require(x == Fraction(d, total),
                 f"{what}: pi_{k + 1} = {x}, expected {d}/{total}")


def check_graph_pieces(adjacency, numerators, denominator, pi):
    """Integer numerators sum to the denominator and reduce to ``pi``."""
    _require(all(isinstance(x, int) for x in numerators)
             and isinstance(denominator, int),
             "graph numerators/denominator are not integers")
    _require(sum(numerators) == denominator,
             "graph numerators do not sum to the denominator")
    check_stationary_exact(walk_rows(adjacency), pi)
    for k, (num, x) in enumerate(zip(numerators, pi)):
        _require(Fraction(num, denominator) == x,
                 f"graph numerator {k + 1} does not reduce to pi")


def check_decomposition(p, expected_classes, expected_closed, classes,
                        closed_flags, vertices):
    """Classes match the construction; one stationary vertex per closed
    class, supported exactly on it."""
    classes = [sorted(c) for c in classes]
    _require(classes == expected_classes,
             f"classes {classes}, expected {expected_classes}")
    _require(list(closed_flags) == expected_closed,
             f"closed flags {list(closed_flags)}, expected {expected_closed}")
    closed = [c for c, ok in zip(expected_classes, expected_closed) if ok]
    if vertices is None:
        return
    _require(len(vertices) == len(closed),
             f"{len(vertices)} vertices for {len(closed)} closed classes")
    for k, (v, cls) in enumerate(zip(vertices, closed)):
        what = f"vertex {k + 1}"
        check_stationary_exact(p, v, what)
        members = set(cls)
        _require(all(x == 0 for i, x in enumerate(v) if i not in members),
                 f"{what}: mass outside closed class {k + 1}")


def check_float_close(pi, ref, rtol=FLOAT_RTOL, what="pi"):
    """Entrywise relative agreement of a float vector with an exact one."""
    pi = list(pi)
    _require(len(pi) == len(ref), f"{what}: length {len(pi)}, expected "
                                  f"{len(ref)}")
    worst = 0.0
    for k, (x, y) in enumerate(zip(pi, ref)):
        x = float(x)
        _require(math.isfinite(x), f"{what}: entry {k + 1} is {x}")
        y = float(y)
        worst = max(worst, abs(x - y) / y)
    _require(worst <= rtol,
             f"{what}: entrywise relative error {worst:.3g} > {rtol:g}")


def check_ratio(value, pi, i, j):
    """``value == pi_i / pi_j`` exactly (0-based indices)."""
    _require(Fraction(value) == pi[i] / pi[j],
             f"ratio {value}, expected {pi[i] / pi[j]}")


# ---------------------------------------------------------------------------
# command-line outputs: ``(exit_code, stdout, stderr)``
# ---------------------------------------------------------------------------

def check_exit(out, code):
    """The process exited with ``code`` and wrote errors only on failure."""
    got, stdout, stderr = out
    _require(got == code, f"exit code {got}, expected {code}; "
                          f"stderr {stderr.strip()[:200]!r}")
    if code == 1:
        _require(stderr.startswith("error:") and not stdout,
                 f"an error must go to stderr as 'error: ...', got "
                 f"{stderr[:200]!r}")
    else:
        _require(not stderr, f"unexpected stderr {stderr[:200]!r}")


def text_field(stdout, prefix):
    """The rest of the first stdout line starting with ``prefix``."""
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise CheckError(f"no line starting with {prefix!r} in output")


def text_vector(stdout, prefix, exact):
    """Parse a ``prefix [a, b, ...]`` line into Fractions or floats."""
    body = text_field(stdout, prefix)
    _require(body.startswith("[") and body.endswith("]"),
             f"malformed vector {body!r}")
    parse = Fraction if exact else float
    try:
        return [parse(tok) for tok in body[1:-1].split(",")]
    except ValueError as exc:
        raise CheckError(f"malformed vector {body!r}") from exc


def text_classes(stdout):
    """Classes (0-based, sorted) and closed flags from the text report."""
    classes, closed = [], []
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("class "):
            head, states = line.split(": states ")
            classes.append(sorted(int(s) - 1 for s in states.split()))
            closed.append("(closed)" in head)
    return classes, closed


def json_report(report):
    """Classes, closed flags and vertices of a JSON degeneracy report."""
    classes = [sorted(i - 1 for i in cls) for cls in report["classes"]]
    vertices = report.get("vertex_equilibria")
    if vertices is not None:
        vertices = [[Fraction(x) for x in v] for v in vertices]
    return classes, report["closed_flags"], vertices
