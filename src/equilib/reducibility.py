"""Combinatorial structure of a chain: its communicating classes.

States communicate when each is reachable from the other through edges
``i -> j`` with ``p_ij`` nonzero, in both scalar modes: which minors vanish
is decided by the nonzero pattern alone (Markov chain tree theorem), not by
a float tolerance.  A class is closed when no edge leaves it; states in
non-closed classes are transitory and carry no stationary mass.  The weight
kernel and the polytope vertices built on this structure live in
:mod:`equilib.equilibrium`.
"""

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import StochasticMatrix


@dataclass
class DecompositionReport:
    """Communicating-class decomposition of a chain.

    ``classes`` partitions the states (0-based indices, each class sorted,
    classes ordered by their smallest state).  ``vertex_equilibria`` holds
    one stationary vector per closed class, supported exactly on that
    class; it is ``None`` until filled by
    :func:`~equilib.equilibrium.equilibrium_polytope`.
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


def _classes(rows):
    """The class pass: the decomposition of the digraph of ``rows``' nonzero
    entries (self-loops included).  ``rows`` are the chain in the kernel's
    form, a float ndarray or lists of integers; the factors that go with
    them never change which entries are nonzero.
    """
    if isinstance(rows, np.ndarray):
        return _decompose([np.flatnonzero(row).tolist() for row in rows != 0])
    return _decompose([[j for j, v in enumerate(row) if v] for row in rows])


def _strongly_connected_components(adj):
    """Tarjan's algorithm, iteratively, over neighbor lists.

    Returns the classes and, for each, whether it is closed.  An edge
    leaves a class exactly when it leads to a state whose class is already
    complete: a visited state off the stack, or a tree child that completed
    its own class.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    leaks = [False] * n
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
                if not on_stack[w]:
                    leaks[v] = True
                elif index[w] < low[v]:
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
                if work:
                    leaks[u] = True
                comps.append((sorted(comp), not any(leaks[w] for w in comp)))
    comps.sort(key=lambda c: c[0][0])
    return [c for c, _ in comps], [closed for _, closed in comps]


def communicating_classes(p):
    """Partition the states into communicating classes.

    Returns a :class:`DecompositionReport` with ``vertex_equilibria`` left
    unfilled.  A class is flagged closed when no structural edge leaves it.
    """
    return _classes(StochasticMatrix.coerce(p)._chain[0])


def _decompose(adj):
    """The class decomposition of a digraph given as neighbor lists."""
    classes, closed_flags = _strongly_connected_components(adj)
    transitory = sorted(
        v for cls, ok in zip(classes, closed_flags) if not ok for v in cls)
    return DecompositionReport(classes, closed_flags, transitory)


def is_irreducible(p):
    """True iff the whole state space is one communicating class."""
    return len(communicating_classes(p).classes) == 1
