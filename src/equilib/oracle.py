"""Independent reference methods for cross-checking the minor construction.

Three routes that share no arithmetic with the minor-weight kernel:

* :func:`power_method` squares the matrix repeatedly; when the dominant
  eigenvalue 1 is simple and everything else is strictly inside the unit
  circle, the powers converge to the rank-1 matrix whose rows all equal the
  stationary vector.
* :func:`linear_solve_stationary` solves the defining linear system
  directly, with one redundant column of ``I - P`` replaced by the
  normalization constraint.  Exact mode eliminates it in integers by the
  same Bareiss elimination that :mod:`~equilib.matrix_core` uses for
  determinants, on the transposed system and with its own pivot search;
  float mode calls LAPACK.  The class structure from
  :mod:`~equilib.reducibility` decides first whether that system is
  singular: it is exactly when there are several closed classes.
* :func:`perturb` mixes the chain with the uniform one, which makes every
  subdominant eigenvalue strictly smaller than 1 and so lifts any
  degeneracy by an arbitrarily small amount.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix_core import (
    EXACT, FLOAT, StochasticMatrix, _bareiss, _shown, read_values)
from .reducibility import communicating_classes

# spread ratios at least this close to 1 count as a stalled squaring
_STALL_RATIO = 1.0 - 1e-9
_STALL_LIMIT = 5


class SingularSystemError(ValueError):
    """The stationary linear system is singular: the chain has several
    closed classes, or its float system is singular in floating point."""


@dataclass
class PowerMethodReport:
    """What repeated squaring did.

    ``iterations`` counts squarings, so the final matrix is ``P`` raised to
    ``2**iterations``.  ``final_spread`` is the largest max-minus-min entry
    difference down any column; it vanishes exactly when all rows agree.
    ``converged`` is true only when the spread met the tolerance.
    """

    iterations: int
    final_spread: float
    pi_estimate: np.ndarray
    converged: bool


def _column_spread(a):
    return float((a.max(axis=0) - a.min(axis=0)).max())


def power_method(p, tol=1e-12, max_squarings=60):
    """Estimate the stationary vector by repeated squaring.

    Squares ``P`` (in float) until every column is constant to within
    ``tol`` or ``max_squarings`` is hit.  Squaring fixed points and stalled
    spreads stop the iteration early with ``converged=False``; permutation
    matrices and reducible chains land there, and that is a legitimate
    outcome rather than an error.  The estimate is the average row of the
    final power, renormalized.
    """
    a = StochasticMatrix.coerce(p).to_float().p
    spread = _column_spread(a)
    iterations = 0
    converged = spread <= tol
    stalls = 0
    while not converged and iterations < max_squarings:
        b = a @ a
        # row sums drift multiplicatively under squaring; renormalizing
        # keeps the iterates stochastic at working precision
        b /= b.sum(axis=1, keepdims=True)
        iterations += 1
        new_spread = _column_spread(b)
        if np.array_equal(b, a):
            break
        stalls = stalls + 1 if spread > 0 and new_spread >= spread * _STALL_RATIO else 0
        a, spread = b, new_spread
        if spread <= tol:
            converged = True
        elif stalls >= _STALL_LIMIT:
            break
    pi = np.clip(a.mean(axis=0), 0.0, None)
    pi /= pi.sum()
    return PowerMethodReport(iterations, spread, pi, converged)


def perturb(p, epsilon):
    """Mix ``P`` with the uniform chain: ``(1 - eps) P + (eps / n) J``.

    The result is strictly positive and stochastic for any ``eps`` in
    ``(0, 1)``, so its stationary vector is unique; as ``eps`` shrinks it
    tracks an equilibrium of the original chain.  With an exact matrix and
    a rational ``eps`` the perturbation is exact; a float ``eps`` switches
    the computation to float mode.
    """
    sm = StochasticMatrix.coerce(p)
    mode, ((epsilon,),) = read_values([[epsilon]], None, lambda *_: "epsilon")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {_shown(epsilon)}")
    a = sm.p
    if FLOAT in (mode, sm.mode):
        a, epsilon, mode = a.astype(float), float(epsilon), FLOAT
    return StochasticMatrix((1 - epsilon) * a + epsilon / sm.n, mode=mode)


def linear_solve_stationary(p):
    """Solve ``pi (I - P) = 0`` with ``sum(pi) = 1`` directly.

    The last column of ``I - P`` is redundant (the columns sum to the zero
    vector) and is replaced by the all-ones normalization column.  Exact
    mode returns exact rationals: row ``i`` of the system is scaled by the
    lcm ``f_i`` of its denominators, the transposed integer system is
    eliminated by the Bareiss elimination of the determinants, and
    fraction-free back-substitution gives ``det * pi_i / f_i`` as
    integers.  A chain with several closed classes leaves the system
    singular and raises :class:`SingularSystemError` before any solve, in
    both modes; so does a float system that LAPACK finds singular, or
    numerically singular by its residual.
    """
    sm = StochasticMatrix.coerce(p)
    if communicating_classes(sm).n_closed != 1:
        raise SingularSystemError(
            "stationary system is singular; the chain is reducible")
    n = sm.n
    if sm.mode == EXACT:
        # the transposed system with row i of I - P times f_i, in
        # integers (the cleared row sums to f_i, so f_i - rows[i][i] is
        # its off-diagonal sum), f_i in the normalization row and e_n
        # appended as the right-hand side
        rows, factors = sm._cleared
        m = [[f * (i == j) - row[j] for i, (row, f) in enumerate(
            zip(rows, factors))] + [0] for j in range(n - 1)]
        m.append(factors + [1])
        _bareiss(m, n)
        # fraction-free back-substitution: y[k] = det * pi[k] / f_k
        det = m[n - 1][n - 1]
        y = [0] * n
        for k in range(n - 1, -1, -1):
            y[k] = (det * m[k][n] - sum(
                m[k][j] * y[j] for j in range(k + 1, n))) // m[k][k]
        return np.array([Fraction(f * v, det) for f, v in zip(factors, y)],
                        dtype=object)
    # I - P with each diagonal entry the off-diagonal row sum, as the
    # kernel builds its pivots: a float 1 - p_ii can round an exit away
    a = -sm.p
    np.fill_diagonal(a, 0)
    np.fill_diagonal(a, -a.sum(axis=1))
    a[:, n - 1] = 1
    rhs = np.eye(n)[-1]
    try:
        x = np.linalg.solve(a.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "stationary system is singular in floating point; "
            "the chain has one closed class") from exc
    # LAPACK only raises on an exactly zero pivot; catch the
    # numerically singular case through the residual
    if not np.isfinite(x).all() or np.abs(a.T @ x - rhs).max() > 1e-8:
        raise SingularSystemError(
            "stationary system is numerically singular; "
            "the chain has one closed class")
    return x
