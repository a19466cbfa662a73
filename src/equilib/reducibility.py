"""Combinatorial structure of a chain: communicating classes and, when the
equilibrium is not unique, the vertices of the polytope of equilibria.

States communicate when each is reachable from the other through edges
``i -> j`` with ``p_ij`` nonzero, in both scalar modes: which minors vanish
is decided by the nonzero pattern alone (Markov chain tree theorem), not by
a float tolerance.  A class is closed when no edge leaves it; states in
non-closed classes are transitory and carry no stationary mass.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .matrix_core import EXACT, StochasticMatrix


class InconsistentDecompositionError(RuntimeError):
    """A closed-class restriction failed to produce a unique equilibrium.

    This cannot happen for a genuine communicating class.  Each closed
    class is solved with a one-class report, which always gives a unique
    equilibrium, so nothing in the package raises it; it stays importable
    for callers that catch it.
    """


@dataclass
class DecompositionReport:
    """Communicating-class decomposition of a chain.

    ``classes`` partitions the states (0-based indices, each class sorted,
    classes ordered by their smallest state).  ``vertex_equilibria`` holds
    one stationary vector per closed class, supported exactly on that
    class; it is ``None`` until filled by :func:`equilibrium_polytope`.
    """

    classes: list = field(default_factory=list)
    closed_flags: list = field(default_factory=list)
    transitory_states: list = field(default_factory=list)
    vertex_equilibria: list = None

    @property
    def closed_classes(self):
        return [c for c, ok in zip(self.classes, self.closed_flags) if ok]

    @property
    def n_closed(self):
        return sum(self.closed_flags)


def _structural_adjacency(sm):
    """Neighbor lists of the transition digraph (self-loops included)."""
    if sm.mode == EXACT:
        return [[j for j, v in enumerate(row) if v] for row in sm._cleared[0]]
    return [np.flatnonzero(row).tolist() for row in sm.p != 0]


def _strongly_connected_components(adj):
    """Tarjan's algorithm, iteratively, over neighbor lists."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, neighbors = work[-1]
            advanced = False
            for w in neighbors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def communicating_classes(p):
    """Partition the states into communicating classes.

    Returns a :class:`DecompositionReport` with ``vertex_equilibria`` left
    unfilled.  A class is flagged closed when no structural edge leaves it.
    """
    sm = StochasticMatrix.coerce(p)
    return _decompose(_structural_adjacency(sm))


def _decompose(adj):
    """The class decomposition of a digraph given as neighbor lists."""
    classes = _strongly_connected_components(adj)
    closed_flags = []
    for cls in classes:
        members = set(cls)
        closed_flags.append(
            all(w in members for v in cls for w in adj[v]))
    transitory = sorted(
        v for cls, ok in zip(classes, closed_flags) if not ok for v in cls)
    return DecompositionReport(classes, closed_flags, transitory)


def is_irreducible(p):
    """True iff the whole state space is one communicating class."""
    return len(communicating_classes(p).classes) == 1


def equilibrium_polytope(p):
    """Vertices of the polytope of stationary vectors.

    Each closed class, restricted to itself, is an irreducible stochastic
    matrix with a unique equilibrium; embedding those back into the full
    state space (zeros elsewhere) gives the vertex set whose convex hull is
    the complete solution set of ``pi @ P == pi``.  A chain with a unique
    equilibrium yields a single vertex.
    """
    sm = StochasticMatrix.coerce(p)
    return _with_vertices(communicating_classes(sm), sm.p, sm._cleared)


def _with_vertices(report, p, cleared):
    """``report``, the decomposition of a chain, with its vertex equilibria.

    The chain comes as the kernel takes it: a float ``p``, or exact rows
    ``cleared = (rows, factors)``.  A closed class is irreducible and keeps
    all of its row mass, so its rows are sliced out, exact row factors
    unchanged, and the kernel runs on them with a one-class report.
    """
    from .equilibrium import _kernel  # deferred; see module note below

    n = sum(len(c) for c in report.classes)
    vertices = []
    for cls in report.closed_classes:
        one_class = DecompositionReport([list(range(len(cls)))], [True], [])
        if cleared is None:
            _, pi = _kernel(p[np.ix_(cls, cls)], None, one_class)
            out = np.zeros(n)
        else:
            rows, factors = cleared
            sub = [[rows[i][j] for j in cls] for i in cls]
            _, pi = _kernel(None, (sub, [factors[i] for i in cls]), one_class)
            out = np.array([Fraction(0)] * n, dtype=object)
        out[cls] = pi
        vertices.append(out)
    return replace(report, vertex_equilibria=vertices)


# equilibrium.stationary reports degeneracy through this module while the
# vertices need its weight kernel for each closed class; the import above is
# deferred to keep module loading acyclic.
