"""Dense linear algebra primitives shared by the rest of the package.

Matrices live in one of two scalar modes:

* ``"exact"``  -- entries are :class:`fractions.Fraction` values held in an
  ``object``-dtype numpy array.  All results are bit-exact; determinants are
  computed by fraction-free (Bareiss) elimination over unbounded integers
  after clearing denominators row by row.  That one elimination,
  ``_bareiss``, also serves the exact linear solve of
  :func:`equilib.oracle.linear_solve_stationary`.  An exact
  :class:`StochasticMatrix` is validated in one pass over its rows, in
  integers: each row is scaled by the lcm of its denominators, and the
  matrix carries those integer-cleared rows for the class analysis and the
  weight kernel.
* ``"float"``  -- entries are ``float64``.  Determinants come from LAPACK's
  LU factorization (``numpy.linalg.det``), rounded like any float product.

A computation never mixes the two modes.  Every value a library caller
passes, a matrix entry, a band parameter, a vector entry or an epsilon, is
read by one reader, :func:`read_values`, which settles the mode and names
the value's place in any error.  Its rule: ints (``np.integer`` too),
Fractions, Decimals, floats (``np.floating`` too) and rational or decimal
strings are read; a bool is not a number; a float wins, so one float or
``np.floating`` value makes them all float; a non-finite value is
rejected; and a string or Decimal built exactly may not ask for more
digits, its length plus its exponent, than ``sys.get_int_max_str_digits()``
allows, so ``"1e100000000"`` fails at once.  The matrix argument of
:func:`determinant`, :func:`minor`, :func:`adjugate`, :func:`is_z_matrix`
and :class:`StochasticMatrix` is read by ``_square``, which checks its
shape and hands the entries to the reader.  The stationary weights do not
use these determinants: one O(n^3) state reduction in
:mod:`equilib.equilibrium` yields all ``n`` principal minors.
"""

import math
import sys
from contextlib import suppress
from decimal import Decimal
from fractions import Fraction
from itertools import chain

import numpy as np

EXACT = "exact"
FLOAT = "float"

# slack of the float-mode sign tests (matrix entries, Z-matrix check, band
# parameters); ROW_SUM_ATOL is the row-sum tolerance of a float matrix
FLOAT_SIGN_SLACK = 1e-12
ROW_SUM_ATOL = 1e-9


def _shown(x):
    """``x`` as a message shows it: a string as ``repr``, anything else as
    ``str``, and a number whose digits pass the int digit limit by the
    limit, so building a message never fails."""
    try:
        return repr(x) if isinstance(x, str) else str(x)
    except ValueError:
        return f"a number past the {sys.get_int_max_str_digits()}-digit limit"


def _integer(x):
    """Whether ``x`` is an int or a numpy integer; a bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def read_values(rows, mode, where="entry at row {}, column {}".format):
    """The caller's values, ``rows`` of them, as scalars of one mode.

    This is the one reader of a value a caller passes.  ``mode`` ``None``
    infers it: a float or ``np.floating`` value makes them all float, and
    otherwise they are exact.  Returns ``(mode, rows)``: rows of Fractions,
    keeping the caller's Fraction objects (a subclass too), or a float64
    array with every entry finite.  Ints, ``np.integer``, Fractions,
    Decimals, floats and rational or decimal strings are read; a bool is
    not a number.  An exact string or Decimal whose length plus exponent
    passes ``sys.get_int_max_str_digits()`` is refused before it is built.
    Any failure is a ``ValueError`` naming ``where(i, j)``, the place of
    value ``j`` of row ``i``, both counted from 1; by default a matrix
    entry.  ``rows`` may be a 2-D ndarray, whose dtype stands for its
    values' types.
    """
    types = ({rows.dtype.type} if getattr(rows, "dtype", object) != object
             else set(map(type, chain.from_iterable(rows))))
    mode = mode or (FLOAT if any(issubclass(t, (float, np.floating))
                                 for t in types) else EXACT)
    if mode == EXACT and types <= {Fraction}:
        return mode, rows
    if mode == FLOAT and all(t is not bool and issubclass(t, (
            int, float, Fraction, np.integer, np.floating)) for t in types):
        with suppress(OverflowError):  # numpy reads these whole
            if np.isfinite(f := np.array(rows, dtype=float)).all():
                return mode, f
    # else each value is read, and the first that fails is located
    read = [[_scalar(x, mode, where, i, j) for j, x in enumerate(row, 1)]
            for i, row in enumerate(rows, start=1)]
    return mode, read if mode == EXACT else np.array(read, dtype=float)


def _scalar(x, mode, where, i, j):
    """One value of :func:`read_values` as a scalar of ``mode``.  A string or
    a Decimal is built exactly only in exact mode or as a rational ``a/b``;
    float mode reads a decimal with ``float()``."""
    if isinstance(x, (np.floating, np.integer)):
        x = float(x) if isinstance(x, np.floating) else int(x)
    if isinstance(x, bool) or not isinstance(
            x, (str, int, float, Decimal, Fraction)):
        raise ValueError(f"{where(i, j)} = {_shown(x)} is not a number")
    if isinstance(x, (float, Decimal)) and not Decimal(x).is_finite():
        raise ValueError(f"{where(i, j)} is not finite")
    exact = mode == EXACT or isinstance(x, str) and "/" in x
    if exact and isinstance(x, (str, Decimal)):
        x, limit = str(x), sys.get_int_max_str_digits() or math.inf
        e = x.lower().partition("e")[2].lstrip("+-")
        if len(x) > limit or e.isdecimal() and len(x) + int(e) > limit:
            raise ValueError(f"{where(i, j)} exceeds the {limit}-digit limit")
    try:
        v = Fraction(x) if exact and isinstance(x, (str, int, float)) else x
        if mode == EXACT or math.isfinite(v := float(v)):
            return v
    except OverflowError:
        raise ValueError(f"{where(i, j)} overflows a float") from None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{where(i, j)} = {x!r} is not a number") from None
    raise ValueError(f"{where(i, j)} is not finite")


def as_float_array(data):
    """Coerce to a float64 ndarray."""
    return np.asarray(data).astype(float)


def matrix_mode(a):
    """Scalar mode of an ndarray: ``"exact"`` for object/integer dtypes."""
    a = np.asarray(a)
    return FLOAT if np.issubdtype(a.dtype, np.floating) else EXACT


def _square_rows(data):
    """``data`` as an ndarray or a list of rows, checked to be square.

    A list of ``n`` list rows is checked row by row, so a ragged row is
    reported by its index rather than by numpy's shape inference; an empty
    list is the 0x0 matrix.
    """
    if isinstance(data, (list, tuple)) and all(
        isinstance(row, (list, tuple)) for row in data
    ):
        n = len(data)
        for i, row in enumerate(data, start=1):
            if len(row) != n:
                raise ValueError(
                    f"row {i} has {len(row)} entries, expected {n}")
        return data
    a = np.asarray(data)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _square(data, mode=None):
    """Coerce to a square ndarray in a single scalar mode.

    Exact mode gives an object array of Fractions that keeps the caller's
    Fraction objects; float mode gives float64 with every entry finite.
    With ``mode`` unset, a float dtype or a float entry makes it float.
    :func:`read_values` reads the entries, but for a float ndarray not read
    exactly, which numpy converts whole.
    """
    mode, p = read_values(_square_rows(data), mode)
    n = len(p)
    return p.reshape(n, n) if mode == FLOAT else np.fromiter(
        chain.from_iterable(p), object, n * n).reshape(n, n)


def identity_matrix(n, mode=EXACT):
    if mode == FLOAT:
        return np.eye(n)
    out = np.full((n, n), Fraction(0), dtype=object)
    np.fill_diagonal(out, Fraction(1))
    return out


def _bareiss(m, n):
    """Fraction-free forward elimination of the first ``n`` columns of ``m``.

    ``m`` holds ``n`` rows of Python ints, each ``n`` or more long, and is
    changed in place.  A zero pivot is swapped for the first nonzero entry
    below it, and each update divides exactly by the previous pivot, so
    every value stays an integer.  Afterwards row ``k`` from column ``k`` on
    is the ``k``-th Bareiss row, and ``m[n-1][n-1]`` is the determinant of
    the swapped rows' first ``n`` columns.

    Returns the sign of the swaps, or 0 when one of the first ``n - 1``
    columns has no pivot (the determinant is 0).
    """
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign


def int_determinant(rows):
    """Determinant of an integer matrix by fraction-free elimination.

    Every intermediate value is an integer (the Bareiss update divides
    exactly), so the result is exact for entries of any size.

    Parameters
    ----------
    rows : sequence of sequences of int

    Returns
    -------
    int
        ``det(rows)``; the empty 0x0 matrix has determinant 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    return _bareiss(m, n) * m[-1][-1]


def clear_denominators(a):
    """Scale each row of a rational matrix to integers.

    Returns ``(rows, factors)`` where ``rows[i] == factors[i] * a[i]``
    entrywise and ``factors[i]`` is the lcm of the row's denominators.
    """
    rows, factors = [], []
    for fr in read_values(a, EXACT)[1]:
        dens = [x.denominator for x in fr]
        f = math.lcm(*dens)
        rows.append([x.numerator * (f // d) for x, d in zip(fr, dens)])
        factors.append(f)
    return rows, factors


def _determinant(a):
    """Determinant of a square ndarray from :func:`_square`, in its mode."""
    if matrix_mode(a) == FLOAT:
        return float(np.linalg.det(a))
    rows, factors = clear_denominators(a)
    return Fraction(int_determinant(rows), math.prod(factors))


def determinant(m):
    """Determinant of a square matrix in its scalar mode.

    Exact mode returns a :class:`~fractions.Fraction` computed without any
    rounding; float mode returns the ``float`` of LAPACK's partially pivoted
    LU factorization, with no threshold: a nearly singular matrix gets its
    rounded determinant, not 0.  The 0x0 determinant is 1 by convention.
    """
    return _determinant(_square(m))


def submatrix_without(m, i, j):
    """Copy of ``m`` with row ``i`` and column ``j`` removed."""
    a = np.asarray(m)
    return np.delete(np.delete(a, i, axis=0), j, axis=1)


def minor(m, i, j):
    """The (i, j) matrix minor: det of ``m`` without row i and column j."""
    a = _square(m)
    n = a.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"minor index ({i}, {j}) out of range for n={n}")
    return _determinant(submatrix_without(a, i, j))


def principal_minor(m, i):
    """The i-th principal minor: det of ``m`` with row i and column i deleted.

    Indices are 0-based.  For a 1x1 matrix the deleted matrix is empty and
    the minor is 1.
    """
    return minor(m, i, i)


def adjugate(m):
    """Adjugate (classical adjoint): transpose of the cofactor matrix.

    Satisfies ``adjugate(m) @ m == m @ adjugate(m) == det(m) * I``.  Built
    from the n^2 minors of the definition, which holds for singular
    matrices too (their adjugate has rank at most 1).
    """
    a = _square(m)
    n = a.shape[0]
    adj = np.empty((n, n), dtype=a.dtype)
    for i in range(n):
        for j in range(n):
            cof = _determinant(submatrix_without(a, i, j))
            adj[j, i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def is_z_matrix(m):
    """True iff the diagonal is nonnegative and off-diagonals nonpositive.

    Float mode allows ``1e-12`` of slack on both sign tests.
    """
    a = _square(m)
    slack = 0 if matrix_mode(a) == EXACT else FLOAT_SIGN_SLACK
    off = ~np.eye(a.shape[0], dtype=bool)
    return bool((np.diag(a) >= -slack).all() and (a[off] <= slack).all())


class StochasticMatrix:
    """A dense row-stochastic matrix with a fixed scalar mode.

    Entries must be finite.  Exact mode demands nonnegative entries and
    unit row sums exactly.  Float mode clamps entries in ``[-1e-12, 0)``
    to zero and renormalizes rows whose sums are within ``1e-9`` of 1;
    anything worse is rejected.

    Attributes
    ----------
    p : numpy.ndarray
        The transition matrix.
    n : int
        Number of states.
    mode : str
        ``"exact"`` or ``"float"``.

    An exact matrix also keeps ``_cleared = (rows, factors)`` from its
    validation: ``rows[i]`` is ``p[i]`` times ``factors[i]``, the lcm of the
    row's denominators, as Python ints.  Float matrices keep ``None``.
    ``_chain`` is the matrix in the form the class pass and the weight
    kernel take: ``_cleared``, or ``(p, None)`` for a float matrix.
    """

    def __init__(self, rows, mode=None):
        p = _square(rows, mode)
        n = len(p)
        if n == 0:
            raise ValueError("a stochastic matrix needs at least one state")
        self.mode = matrix_mode(p)
        if self.mode == EXACT:
            # signs and row sums are checked on the integer-cleared rows
            ints, factors = self._cleared = clear_denominators(p.tolist())
            for i, (row, f) in enumerate(zip(ints, factors), start=1):
                if min(row) < 0:
                    j = next(j for j, v in enumerate(row, start=1) if v < 0)
                    raise ValueError(f"negative entry at row {i}, column {j}")
                if sum(row) != f:
                    raise ValueError(f"row {i} sums to "
                                     f"{_shown(Fraction(sum(row), f))}, "
                                     "expected 1")
        else:
            bad = np.argwhere(p < -FLOAT_SIGN_SLACK)
            if bad.size:
                i, j = bad[0]
                raise ValueError(
                    f"negative entry at row {i + 1}, column {j + 1}")
            p = np.clip(p, 0.0, None)
            sums = p.sum(axis=1)
            off = np.abs(sums - 1.0)
            if off.max() > ROW_SUM_ATOL:
                i = int(np.argmax(off))
                raise ValueError(
                    f"row {i + 1} sums to {float(sums[i])!r}, expected 1")
            p = p / sums[:, None]
            self._cleared = None
        self.p = p
        self.n = n

    @property
    def _chain(self):
        return self._cleared or (self.p, None)

    @classmethod
    def coerce(cls, obj):
        return obj if isinstance(obj, cls) else cls(obj)

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return StochasticMatrix(self.p, mode=FLOAT)

    def to_exact(self):
        """The exact copy: each row's binary values over their exact sum.

        Float validation divides each row by its float sum, which need not
        make the exact sum 1; this division does, and moves each entry by
        the relative amount that its row's exact sum misses 1.
        """
        if self.mode == EXACT:
            return self
        rows, _ = clear_denominators(self.p.tolist())
        return StochasticMatrix(
            [[Fraction(a, sum(row)) for a in row] for row in rows], mode=EXACT)

    def i_minus_p(self):
        """The singular Z-matrix ``I - P`` in the matrix's own mode."""
        return identity_matrix(self.n, self.mode) - self.p

    def __repr__(self):
        return f"StochasticMatrix(n={self.n}, mode={self.mode!r})"
