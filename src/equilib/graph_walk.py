"""Random walks on (multi-)graphs through pure integer arithmetic.

For an adjacency matrix ``A`` of nonnegative integers and out-degree matrix
``D``, the walk matrix is ``P = D^-1 A`` and the stationary weights can be
taken from the integer matrix ``D - A`` instead of the rational ``I - P``:

    pi_i  proportional to  d_i * principal_minor(D - A, i)

The adjacency rows are ``P``'s rows cleared of denominators by the row
factors ``d_i``, so the walk takes the same solve path as
:func:`~equilib.equilibrium.stationary`: one fraction-free
state-reduction pass over the adjacency counts, O(n^3) integer operations.
Every numerator and the common denominator are integers; the only division
happens once, at the very end.
"""

import math
import re
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix_core import StochasticMatrix, _integer, _shown, _square_rows
from .equilibrium import EquilibriumResult, _solve


# a string edge count: ASCII digits with an optional sign, nothing else
_COUNT_RE = re.compile(r"[+-]?[0-9]+")


class ZeroOutDegreeError(ValueError):
    """A node has no outgoing edges, so the walk matrix is undefined."""

    def __init__(self, node):
        self.node = node
        super().__init__(
            f"node index {node} has zero out-degree; the random walk "
            f"leaving it is undefined")


def _edge_count(x, i, j):
    """Adjacency entry ``(i, j)`` as a nonnegative int, or a located error."""
    m = None
    if _integer(x) or isinstance(x, (float, np.floating)) and x.is_integer():
        m = int(x)
    elif isinstance(x, str) and _COUNT_RE.fullmatch(x):
        with suppress(ValueError):  # past the int digit limit
            m = int(x)
    if m is None:
        raise ValueError(f"adjacency entry ({i + 1}, {j + 1}) = {_shown(x)} "
                         "is not an integer")
    if m < 0:
        raise ValueError(f"adjacency entry ({i + 1}, {j + 1}) is negative")
    return m


class Graph:
    """Directed multigraph stored as a dense integer adjacency matrix.

    ``adjacency[i][j]`` counts the edges from node ``i`` to node ``j``;
    multi-edges and self-loops are allowed.  An undirected graph is simply
    a symmetric adjacency matrix.
    """

    def __init__(self, adjacency):
        a = _square_rows(adjacency)
        rows = a.tolist() if isinstance(a, np.ndarray) else a
        if not rows:
            raise ValueError("a graph needs at least one node")
        self.adjacency = [
            [x if type(x) is int and x >= 0 else _edge_count(x, i, j)
             for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
        self.n = len(rows)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from ``(i, j)`` or ``(i, j, multiplicity)`` tuples, 0-based.

        ``n`` and the node indices are ints (a bool is not).  Ranges,
        multiplicities (each a nonnegative integer, checked before
        it is summed) and out-degrees are checked on the edge list, so a bad
        one fails before the ``n x n`` matrix is built; a node without
        outgoing edges raises :class:`ZeroOutDegreeError`.
        """
        if not _integer(n):
            raise ValueError(f"node count {_shown(n)} is not an integer")
        counts = {}
        for edge in edges:
            if not (isinstance(edge, (list, tuple, np.ndarray)) and len(edge)
                    in (2, 3) and _integer(edge[0]) and _integer(edge[1])):
                raise ValueError(f"edge {_shown(edge)} is not (i, j) or (i, "
                                 "j, multiplicity) with integer nodes i, j")
            i, j, *rest = edge
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({_shown(i)}, {_shown(j)}) out of "
                                 f"range for n={n}")
            m = _edge_count(rest[0], i, j) if rest else 1
            counts[i, j] = counts.get((i, j), 0) + m
        degrees = [0] * n
        for (i, j), m in counts.items():
            degrees[i] += m
        if 0 in degrees:
            raise ZeroOutDegreeError(degrees.index(0))
        a = [[0] * n for _ in range(n)]
        for (i, j), m in counts.items():
            a[i][j] = m
        return cls(a)

    def __repr__(self):
        return f"Graph(n={self.n})"


def degree_vector(g):
    """Out-degrees ``d_i = sum_j a_ij``; every one must be positive."""
    degrees = [sum(row) for row in g.adjacency]
    for i, d in enumerate(degrees):
        if d == 0:
            raise ZeroOutDegreeError(i)
    return np.array(degrees, dtype=object)


def walk_matrix(g):
    """The exact stochastic matrix ``P = D^-1 A`` of the simple random walk."""
    degrees = degree_vector(g)
    rows = [[Fraction(a, int(d)) for a in row]
            for row, d in zip(g.adjacency, degrees)]
    return StochasticMatrix(rows)


@dataclass
class GraphEquilibrium:
    """Stationary distribution of a graph walk with its integer pieces.

    ``numerators[i] == d_i * principal_minor(D - A, i)`` and
    ``denominator`` is their sum; ``result.pi`` (when unique) equals
    ``numerators / denominator`` reduced to lowest terms.
    """

    numerators: list
    denominator: int
    result: EquilibriumResult

    @property
    def unique(self):
        return self.result.unique


def graph_stationary(g):
    """Stationary distribution of the random walk on ``g``.

    All minors are evaluated over the integers from ``D - A`` in one
    state-reduction pass; the single rational division happens only when
    normalizing at the end.

    Returns
    -------
    GraphEquilibrium
        Holds the raw integer numerators and denominator next to the
        :class:`~equilib.equilibrium.EquilibriumResult`, whose weights are
        the exact minor weights of the walk matrix.
    """
    degrees = degree_vector(g)
    result = _solve(g.adjacency, degrees)
    prod_d = math.prod(degrees)
    # w_i * prod(d), without a second gcd: each denominator divides prod(d)
    numerators = [w.numerator * (prod_d // w.denominator)
                  for w in result.weights]
    return GraphEquilibrium(numerators, sum(numerators), result)
