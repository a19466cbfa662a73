"""Combinatorial structure of a chain: its communicating classes.

States communicate when each is reachable from the other through edges
``i -> j`` with ``p_ij`` nonzero, in both scalar modes: which minors vanish
is decided by the nonzero pattern alone (Markov chain tree theorem), not by
a float tolerance.  A class is closed when no edge leaves it; states in
non-closed classes are transitory and carry no stationary mass.  The weight
kernel and the polytope vertices built on this structure live in
:mod:`equilib.equilibrium`.

The class pass works on bitsets: each row's nonzero pattern is one Python
int, and one path-based strong-components search (Gabow 2000) over these
masks finds the classes and their closedness together.  It costs about 2n
steps on n-bit words, for float and exact chains alike.
"""

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import or_

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

    Each row's pattern becomes one int, bit ``j`` set when ``p_ij != 0``,
    and a path-based strong-components search (Gabow 2000) walks these
    masks: a state's unvisited successors are ``out[v] & unvisited`` and
    the walk descends to the lowest.  ``stack`` holds the states not yet
    in a class, in visiting order; each entry of ``bounds`` is a candidate
    class root, as its position in ``stack`` and the mask of the states
    below it.  A new state with an edge into such a mask merges every
    candidate above the target into one; a state whose candidate is still
    on top when the walk leaves it roots a class, ``stack`` from its
    position on.  The class is closed when the OR of its members' masks
    stays inside it.  That is about 2n steps on n-bit words, one per state
    visited and one per state left.
    """
    n = len(rows)
    if isinstance(rows, np.ndarray):
        packed = np.packbits(rows != 0, axis=1, bitorder="little").tobytes()
        k = len(packed) // n
        out = [int.from_bytes(packed[i:i + k], "little")
               for i in range(0, len(packed), k)]
    else:
        bits = [1 << j for j in range(n)]
        out = [sum(compress(bits, row)) for row in rows]
    unvisited = (1 << n) - 1
    on_stack = 0
    stack, path, bounds, comps = [], [], [], []
    succ = unvisited
    while succ:
        w = (succ & -succ).bit_length() - 1
        bit = 1 << w
        unvisited ^= bit
        bounds.append((len(stack), on_stack))
        stack.append(w)
        on_stack |= bit
        path.append(w)
        while out[w] & bounds[-1][1]:
            bounds.pop()
        while path:
            v = path[-1]
            succ = out[v] & unvisited
            if succ:
                break
            path.pop()
            pos, below = bounds[-1]
            if stack[pos] == v:
                bounds.pop()
                members = stack[pos:]
                del stack[pos:]
                cls = on_stack ^ below
                on_stack = below
                reach = reduce(or_, map(out.__getitem__, members))
                comps.append((sorted(members), reach | cls == cls))
        else:
            succ = unvisited
    comps.sort()
    classes = [c for c, _ in comps]
    closed_flags = [closed for _, closed in comps]
    transitory = sorted(v for c, closed in comps if not closed for v in c)
    return DecompositionReport(classes, closed_flags, transitory)


def communicating_classes(p):
    """Partition the states into communicating classes.

    Returns a :class:`DecompositionReport` with ``vertex_equilibria`` left
    unfilled.  A class is flagged closed when no structural edge leaves it.
    """
    return _classes(StochasticMatrix.coerce(p)._chain[0])


def is_irreducible(p):
    """True iff the whole state space is one communicating class."""
    return len(communicating_classes(p).classes) == 1
