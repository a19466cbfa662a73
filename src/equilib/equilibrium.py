"""Stationary distributions from the principal minors of ``I - P``.

For a row-stochastic matrix ``P`` the weights ``w_i`` are the principal
minors of ``I - P``: by the Markov chain tree theorem they are positive
exactly on the closed class when there is one, and all vanish when there
are several.  So the class structure decides first.  With one closed class
``pi = w / sum(w)`` is the unique stationary vector; with several, the full
solution set is reported instead of an error.

All weights come from one O(n^3) state-reduction pass (GTH), one function
per scalar field, both eliminating in the same order: the pivots give
``w_r`` for a root ``r`` and back-substitution gives every ``w_i = w_r *
x_i``.  The integer pass is fraction-free; the float pass is left-looking
with binary exponents.  Float ``pi`` is normalized from ``x``, so it keeps
entrywise relative accuracy where the weights underflow.

Every chain reaches that pass as ``(rows, factors)``: a float matrix as
``(p, None)``, an exact one as its integer-cleared rows and their lcm
factors, a graph as its adjacency and out-degrees.  One solve path runs the
class pass, the kernel and, for several closed classes, the polytope
vertices, one kernel run per closed class; only the kernel, which slices
the rows in, runs the pass of their field and gives Fractions or floats
out, depends on the scalar field.

The closed-form functions for 2..5 states evaluate the same exact weights
from the paper's formulas in the banded parameterization (see
:func:`matrix_from_bands`), as independent cross-checks of the kernel.
Like the kernel they work in integers: each band row is cleared to
integers once, the formulas run on those, and the kernel's last step turns
the integer weights and row factors into Fractions, one division per
output entry.  A float or degenerate chain takes the solve path whole.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .matrix_core import (
    EXACT,
    FLOAT,
    FLOAT_SIGN_SLACK,
    StochasticMatrix,
    _integer,
    _shown,
    clear_denominators,
    int_determinant,
    read_values,
)
from .reducibility import DecompositionReport, _classes


@dataclass
class EquilibriumResult:
    """Outcome of a stationary-distribution computation.

    Exactly one of the two shapes occurs:

    * unique: ``pi`` is the stationary probability vector and
      ``decomposition`` is ``None``;
    * degenerate: ``pi`` is ``None`` and ``decomposition`` carries the
      closed-class breakdown with one vertex equilibrium per closed class.

    ``weights`` always holds the unnormalized minor weights.  In float mode
    they may underflow to zero on large chains; ``pi`` does not depend on
    them.
    """

    weights: np.ndarray
    pi: np.ndarray = None
    decomposition: DecompositionReport = None

    @property
    def unique(self):
        return self.pi is not None


_UNDERFLOW = ("transition rates underflow double precision; solve this "
              "chain in exact mode")


def _int_reduction(q):
    """The minors of :func:`_state_reduction` for an object array ``q`` of
    Python ints, in the same order, by a fraction-free pass: each update
    divides exactly by the previous pivot, so the last pivot is the root's
    minor, and back-substitution gives the others in integers.
    """
    n = q.shape[0]
    pivots = [1]
    for k in range(n - 1):
        col, row = q[k + 1:, k], q[k, k + 1:]
        pivots.append(row.sum())
        q[k + 1:, k + 1:] = (q[k + 1:, k + 1:] * pivots[-1]
                             + np.outer(col, row)) // pivots[-2]
    x = [pivots[-1]] * n
    for k in range(n - 2, -1, -1):
        x[k] = sum(a * b for a, b in zip(q[k + 1:, k].tolist(),
                                         x[k + 1:])) // pivots[k + 1]
    return x


def _state_reduction(q):
    """Principal minors of the Laplacian of a float64 rate matrix, by one
    GTH pass.

    ``q`` holds nonnegative rates; its diagonal is never read.  Its
    Laplacian is ``I - P`` for a stochastic ``P``.  Its states are the
    transitory ones, then one closed class ending in the root ``r``, and
    every state but ``r`` is eliminated in that order.  Returns ``(minors,
    x)``, ``x`` proportional to the minors.  A pivot is the sum of its
    state's remaining rates, so nothing is subtracted.  The pass is
    left-looking, and its one range device is binary exponents: each row
    is scaled exactly to a rate sum in ``[1, 2)``, an ``x_i`` that leaves
    ``[2^-500, 2^500]`` takes an exponent of its own, and the minors keep
    their exponents apart.  ``ValueError`` is raised where a pivot
    underflows to zero, where a closed state's ``x_i`` does and its
    ``pi_i`` may be representable, or where a rate rounded below the
    normal range could move ``pi`` by more than ``2^-40`` relative.
    """
    n = q.shape[0]
    np.fill_diagonal(q, 0.0)
    e = np.frexp(q.sum(axis=1))[1] - 1
    np.ldexp(q, -e[:, None], out=q)
    pivots = []
    for k in range(n - 1):
        col, row = q[k + 1:, k], q[k, k + 1:]
        row += q[k, :k] @ q[:k, k + 1:]
        col += q[k + 1:, :k] @ q[:k, k]
        pivot = float(row.sum())
        if not pivot > 0:
            raise ValueError(_UNDERFLOW)
        row /= pivot
        pivots.append(pivot)
    pm, pe = np.frexp(pivots)
    x = np.ones(n)
    f = np.zeros(n, dtype=int)  # x_k stands for x[k] * 2^f[k]
    spread = False
    for k in range(n - 2, -1, -1):
        c = q[k + 1:, k]
        s = 0.0 if spread else float(c @ x[k + 1:])
        x[k] = xk = s / pivots[k]  # a Python float overflows to inf, unwarned
        if s < 2.0 ** -500 or not 2.0 ** -500 <= xk <= 2.0 ** 500:
            # from mantissas, aligned to the largest nonzero term; shifts
            # above 0 meet zero terms, where inf * 0 would give NaN
            m, g = np.frexp(c)
            g += f[k + 1:]
            f[k] = np.max(g, where=m * x[k + 1:] != 0, initial=g.min())
            x[k] = m @ np.ldexp(x[k + 1:], np.minimum(g - f[k], 0)) / pm[k]
            f[k] -= pe[k]
            spread = spread or x[k] * f[k] != 0
    m, h = np.frexp(x)
    hs, h = h + f, h + f - e  # y = m 2^hs solves the scaled chain, pi ~ m 2^h
    top = np.max(h, where=m != 0, initial=h[-1])
    if not m.all():  # a closed state's y_z that underflowed to 0 is below
        z = np.flatnonzero(m == 0)  # 2^-1074 n^2 max(y) / p_z, so pi_z is
        z = z[z > np.argmax(m != 0)]  # below 2^(ub - 1074)
        ub = hs[m != 0].max() + 2 * n.bit_length() + 1 - pe[z] - e[z] - top
        if np.any(ub >= 0):
            raise ValueError(_UNDERFLOW)
    # below 2^-1021 sums of rates are exact, but a quotient, or a rate as
    # formed (a row before its division) fed a product, may be off by
    # 2^-1074: the flow y_i p_i of its state or target moves by 2^-1074 y_a
    low = 2.0 ** -1021 / min([1.0, *pivots])  # for a row over its pivot
    if np.count_nonzero(q < low) > q.size - np.count_nonzero(q):
        upper, nz = np.tri(n, dtype=bool).T, q != 0
        lossy = upper & nz & (q < 2.0 ** -1021)
        np.multiply(q, np.append(pivots, 1.0)[:, None], out=q, where=upper)
        a, b = np.nonzero(nz & (q < 2.0 ** -1021))
        fed = nz[a] & nz[:, b].T & (np.arange(n) < np.minimum(a, b)[:, None])
        lossy[a, b] |= fed.any(axis=1)
        a, b = np.nonzero(lossy & (m != 0)[:, None])
        flow = np.append(hs[:-1] + pe, hs[-2] + pe[-1])  # the root's: n-2's
        for s in (a, b):  # pi_s moves by 2^(r - 1074) of itself
            r = hs[a] - flow[s]
            if np.any((r > 1034) & (r + h[s] > top)):
                raise ValueError(_UNDERFLOW)
    return (np.ldexp(np.prod(pm) * m, h + int(pe.sum() + e.sum())),
            np.ldexp(m, h - top))


def _fractions(minors, factors):
    """Fraction ``(w, pi)`` from the integer minors of rows scaled by
    ``factors``: minor ``i`` is ``w_i prod(f) / f_i``, so each output entry
    takes one division.  ``pi`` is ``None`` when every minor vanishes.
    """
    scaled = [m * f for m, f in zip(minors, factors)]
    prod_f, total = math.prod(factors), sum(scaled)
    return ([Fraction(s, prod_f) for s in scaled],
            [Fraction(s, total) for s in scaled] if total else None)


def _kernel(rows, factors, report):
    """``(weights, pi)`` of the chain ``(rows, factors)`` with class
    decomposition ``report``; ``pi`` is ``None`` when there are several
    closed classes.  Under a one-class report of one closed class the
    kernel solves that class as a chain of its own, zero elsewhere.

    A float chain is ``(p, None)``.  Otherwise ``rows`` are integers, ``P``'s
    rows scaled by factors ``f_i``, which scales minor ``i`` by
    ``prod(f) / f_i``: the cleared rows of an exact matrix, or a graph's
    adjacency with its out-degrees.
    """
    exact = factors is not None
    w = np.full(len(rows), Fraction(0) if exact else 0.0)
    if report.n_closed > 1:
        return w, None
    order = report.transitory_states + report.closed_classes[0]
    pi = w.copy()
    if exact:
        q = np.array([[rows[i][j] for j in order] for i in order],
                     dtype=object)
        w[order], pi[order] = _fractions(_int_reduction(q),
                                         [factors[i] for i in order])
    else:
        w[order], pi[order] = _state_reduction(rows[np.ix_(order, order)])
        # summed in index order, as numpy sums a chain of these states alone
        pi /= pi[sorted(order)].sum()
    return w, pi


def _with_vertices(report, rows, factors):
    """``report``, the decomposition of the chain ``(rows, factors)``, with
    its vertex equilibria.

    A closed class is irreducible and keeps all of its row mass, so its
    vertex is the kernel's ``pi`` under a one-class report of the class
    alone, zero elsewhere; the class pass does not run again.
    """
    return replace(report, vertex_equilibria=[
        _kernel(rows, factors, DecompositionReport([cls], [True], []))[1]
        for cls in report.closed_classes])


def _solve(rows, factors):
    """The :class:`EquilibriumResult` of the chain ``(rows, factors)``."""
    report = _classes(rows)
    w, pi = _kernel(rows, factors, report)
    if pi is None:
        return EquilibriumResult(
            weights=w, decomposition=_with_vertices(report, rows, factors))
    return EquilibriumResult(weights=w, pi=pi)


def minor_weights(p):
    """The weight vector ``w_i = principal_minor(I - P, i)``.

    All ``n`` weights come from one state-reduction pass.  Exact weights
    are bit-exact.  Float weights may underflow to zero on large chains;
    they are diagnostics, and :func:`stationary` does not derive ``pi``
    from them.
    """
    rows, factors = StochasticMatrix.coerce(p)._chain
    return _kernel(rows, factors, _classes(rows))[0]


def equilibrium_polytope(p):
    """Vertices of the polytope of stationary vectors.

    Each closed class, restricted to itself, is an irreducible stochastic
    matrix with a unique equilibrium; embedding those back into the full
    state space (zeros elsewhere) gives the vertex set whose convex hull is
    the complete solution set of ``pi @ P == pi``.  A chain with a unique
    equilibrium yields a single vertex.
    """
    rows, factors = StochasticMatrix.coerce(p)._chain
    return _with_vertices(_classes(rows), rows, factors)


def stationary(p):
    """Stationary distribution of a stochastic matrix.

    Parameters
    ----------
    p : StochasticMatrix or array-like
        Row-stochastic matrix; lists, ndarrays and Fractions are accepted.

    Returns
    -------
    EquilibriumResult
        Unique vector when the chain has one closed class, otherwise a
        degeneracy report with the closed classes and all vertex
        equilibria.  Degeneracy is a result, not an error.
    """
    return _solve(*StochasticMatrix.coerce(p)._chain)


def relative_probability(p, i, j):
    """The stationary ratio ``pi_i / pi_j``, equal to ``w_i / w_j``.

    Indices are 0-based integers; a bool, a non-integer or one outside
    ``0..n-1`` raises ``ValueError``.  Raises ``ZeroDivisionError`` when
    state ``j`` has a vanishing weight (zero stationary mass or a
    degenerate chain).
    """
    rows, factors = StochasticMatrix.coerce(p)._chain
    for k in (i, j):
        if not _integer(k):
            raise ValueError(f"state index {_shown(k)} is not an integer")
        if not 0 <= k < len(rows):
            raise ValueError(
                f"state index {_shown(k)} outside 0..{len(rows) - 1}")
    _, pi = _kernel(rows, factors, _classes(rows))
    if pi is None or pi[j] == 0:
        raise ZeroDivisionError(
            f"state {j} has zero minor weight; ratio undefined")
    return pi[i] / pi[j]


def verify_equilibrium(pi, p):
    """Max-norm residual ``max_i |(pi @ P - pi)_i|``.

    Exact mode returns the exact rational residual (0 for a true stationary
    vector).  Mixed modes are compared in float.
    """
    sm = StochasticMatrix.coerce(p)
    v = np.asarray(pi, dtype=object)
    if v.ndim != 1 or v.shape[0] != sm.n:
        raise ValueError(f"vector of length "
                         f"{len(v) if v.ndim == 1 else v.shape} "
                         f"does not match n={sm.n}")
    mode, (v,) = read_values([v.tolist()], None if sm.mode == EXACT else FLOAT,
                             lambda _, k: f"vector entry {k}")
    if mode != sm.mode:
        sm = sm.to_float()
    resid = v @ sm.p - v
    return max(abs(x) for x in resid)


# ---------------------------------------------------------------------------
# closed forms in the banded parameterization
# ---------------------------------------------------------------------------

_BAND_LETTERS = "pqrst"


def matrix_from_bands(bands, mode=None):
    """Build a stochastic matrix from off-diagonal parameters, row by row.

    ``bands[i]`` holds the ``n - 1`` off-diagonal entries of row ``i``,
    starting just right of the diagonal and wrapping around; the diagonal
    is one minus their sum.  For three states with rows ``(p1, p2)``,
    ``(q1, q2)``, ``(r1, r2)``::

            [ 1-p1-p2   p1      p2    ]
        P = [ q2       1-q1-q2  q1    ]
            [ r1        r2     1-r1-r2]

    This is the parameter-order convention of every ``closed_form_*``
    function.  In exact ``mode`` the parameters are read exactly, floats
    too, so each diagonal is the exact complement of its row.
    """
    n = len(bands)
    for i, b in enumerate(bands, start=1):
        if not isinstance(b, (list, tuple, np.ndarray)) or len(b) != n - 1:
            raise ValueError(f"row {i} needs {n - 1} off-diagonal parameters")
    _, bands = read_values(bands, EXACT if mode == EXACT else None,
                           "parameter {1} of row {0}".format)
    return StochasticMatrix(_band_rows(bands, [1] * n), mode=mode)


def _band_rows(bands, units):
    """The rows of :func:`matrix_from_bands`, row ``i`` summing to
    ``units[i]``: 1, or the factor of an integer-cleared band row."""
    n = len(bands)
    rows = [[None] * n for _ in range(n)]
    for i, (band, unit) in enumerate(zip(bands, units)):
        rows[i][i] = unit - sum(band)
        for k, x in enumerate(band, start=1):
            rows[i][(i + k) % n] = x
    return rows


def _bands(values, n):
    """``(bands, factors)``: ``values`` split into the ``n`` rows of
    :func:`matrix_from_bands` in one mode (float wins over exact), each
    parameter in ``[0, 1]`` and each row sum at most 1, up to
    ``FLOAT_SIGN_SLACK`` in float mode; an error names the parameter or row.

    Float bands come back as floats with ``factors`` ``None``.  Exact band
    rows are cleared once to integers ``b_i`` and lcm factors ``f_i``, and
    checked there: ``0 <= b_ik <= f_i`` and ``sum(b_i) <= f_i``.
    """
    mode, bands = read_values(
        [values[i:i + n - 1] for i in range(0, len(values), n - 1)], None,
        lambda i, k: f"parameter {_BAND_LETTERS[i - 1]}{k}")
    exact = mode == EXACT
    bands, factors = clear_denominators(bands) if exact else (bands, None)
    slack = 0 if exact else FLOAT_SIGN_SLACK
    for letter, b, f in zip(_BAND_LETTERS, bands, factors or [1] * n):
        for k, v in enumerate(b, start=1):
            if not -slack <= v <= f + slack:
                raise ValueError(f"parameter {letter}{k} = "
                                 f"{_shown(Fraction(v, f) if exact else v)} "
                                 "outside [0, 1]")
        if not sum(b) <= f + slack:
            raise ValueError(
                f"row parameters {letter}1..{letter}{n - 1} sum to "
                f"{_shown(Fraction(sum(b), f) if exact else sum(b))}, "
                "must be at most 1")
    return bands, factors


def _closed_form_result(weights, bands, factors):
    """The result of the chain ``(bands, factors)`` from :func:`_bands`
    with formula weights ``weights()``, evaluated in exact mode only.

    The formulas run on the integer-cleared bands.  Each term takes one
    parameter from every other row, so weight ``i`` comes out scaled by
    ``prod(f) / f_i``, as the kernel's minors of cleared rows are, and
    :func:`_fractions` divides once per output entry.  The weights all
    vanish exactly when there are several closed classes; then the cleared
    rows, diagonal ``f_i - sum(b_i)``, take the solve path.  A float chain
    takes the solve path whole, weights and ``pi`` from the kernel.
    """
    if factors is None:
        return _solve(*matrix_from_bands(bands, FLOAT)._chain)
    w, pi = _fractions(weights(), factors)
    if pi is None:
        return _solve(_band_rows(bands, factors), factors)
    return EquilibriumResult(weights=np.array(w, dtype=object),
                             pi=np.array(pi, dtype=object))


def closed_form_2(p, q):
    """Two-state equilibrium ``[q, p] / (p + q)``.

    ``p`` is the probability of leaving state 0, ``q`` of leaving state 1.
    ``p + q == 0`` means the identity chain, where every probability vector
    is stationary, and a degenerate result is returned.
    """
    bands, factors = _bands([p, q], 2)
    (p,), (q,) = bands
    return _closed_form_result(lambda: [q, p], bands, factors)


def closed_form_3(p1, p2, q1, q2, r1, r2):
    """Three-state equilibrium from the quadratic weight formulas.

    Parameters follow the banded layout of :func:`matrix_from_bands` with
    rows ``(p1, p2)``, ``(q1, q2)``, ``(r1, r2)``.  The weights are

        w1 = q1 r1 + q2 r1 + q2 r2
        w2 = r1 p1 + r2 p1 + r2 p2
        w3 = p1 q1 + p2 q1 + p2 q2

    and each is the matching principal minor of ``I - P``.
    """
    bands, factors = _bands([p1, p2, q1, q2, r1, r2], 3)
    (p1, p2), (q1, q2), (r1, r2) = bands
    return _closed_form_result(lambda: [q1 * r1 + q2 * r1 + q2 * r2,
                                        r1 * p1 + r2 * p1 + r2 * p2,
                                        p1 * q1 + p2 * q1 + p2 * q2],
                               bands, factors)


# the 16 monomials of the first four-state weight, as (a, b, c) exponents
# meaning band2[a] * band3[b] * band4[c] with 1-based positions; the other
# three weights follow by cycling the bands one row forward at a time
_W4_FIRST_WEIGHT_TERMS = (
    (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 2, 3),
    (2, 1, 1), (2, 2, 1), (2, 2, 3), (2, 3, 1),
    (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2),
    (3, 2, 3), (3, 3, 1), (3, 3, 2), (3, 3, 3),
)


def closed_form_4(p1, p2, p3, q1, q2, q3, r1, r2, r3, s1, s2, s3):
    """Four-state equilibrium from the 16-term cubic weight sums.

    Parameters follow the banded layout of :func:`matrix_from_bands` with
    rows ``(p1..p3)``, ``(q1..q3)``, ``(r1..r3)``, ``(s1..s3)``.  Weight
    ``w_i`` is a sum of 16 products of one parameter from each of the other
    three rows; the rows rotate cyclically from one weight to the next.
    """
    bands, factors = _bands([p1, p2, p3, q1, q2, q3, r1, r2, r3,
                              s1, s2, s3], 4)
    return _closed_form_result(lambda: [
        sum(a[x - 1] * b[y - 1] * c[z - 1]
            for x, y, z in _W4_FIRST_WEIGHT_TERMS)
        for a, b, c in ((bands * 2)[i + 1:i + 4] for i in range(4))],
        bands, factors)


def closed_form_5(p1, p2, p3, p4, q1, q2, q3, q4, r1, r2, r3, r4,
                  s1, s2, s3, s4, t1, t2, t3, t4):
    """Five-state equilibrium from the five principal minors of ``I - P``.

    Parameters follow the banded layout of :func:`matrix_from_bands` with
    rows ``(p1..p4)`` through ``(t1..t4)``.  ``I - P`` is built from them:
    each row's parameter sum on the diagonal and ``-x`` off it.  Weight
    ``w_i`` is the determinant of its 4x4 principal submatrix without row
    and column ``i``; expanding them would give five quartic polynomials of
    125 terms each, which is why the determinant form is used.  In exact
    mode the rows of ``I - P`` are the integer-cleared bands, so each minor
    is one :func:`~equilib.matrix_core.int_determinant` call, scaled by
    the other rows' factors.
    """
    bands, factors = _bands([p1, p2, p3, p4, q1, q2, q3, q4, r1, r2, r3, r4,
                             s1, s2, s3, s4, t1, t2, t3, t4], 5)

    def weights():
        lap = [[sum(band) if j == i else -band[(j - i) % 5 - 1]
                for j in range(5)] for i, band in enumerate(bands)]
        return [int_determinant([r[:i] + r[i + 1:]
                                 for r in lap[:i] + lap[i + 1:]])
                for i in range(5)]
    return _closed_form_result(weights, bands, factors)
