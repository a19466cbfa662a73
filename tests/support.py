"""Shared helpers for the test suite: independent oracles and random
generators for chains, parameter sets and graphs.

The oracles here intentionally use different algorithms from the package
(cofactor expansion instead of fraction-free elimination, reduced row
echelon nullspace instead of minor weights or column replacement) so that
agreement is meaningful.
"""

import itertools
import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def det_cofactor(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


def in_tree_weights(rows):
    """All ``n`` weights by the Markov chain tree theorem, by enumeration.

    ``w_r`` is the sum, over the spanning trees directed into ``r``, of the
    product of their edge weights ``rows[i][j]`` (the diagonal is never
    read).  Every state but ``r`` picks one successor; the choice is such a
    tree exactly when following successors from every state reaches ``r``.
    With integer adjacency counts, ``w_r`` is the multiplicity-weighted
    number of in-trees.  There are up to ``(n-1)^(n-1)`` choices per root,
    so this is for ``n <= 5``.
    """
    n = len(rows)
    weights = []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        choices = [[j for j in range(n) if j != i and rows[i][j]]
                   for i in others]
        total = 0
        for successors in itertools.product(*choices):
            succ = dict(zip(others, successors))
            if all(_reaches(succ, i, root) for i in others):
                term = 1
                for i, j in succ.items():
                    term *= rows[i][j]
                total += term
        weights.append(total)
    return weights


def _reaches(succ, i, root):
    """Whether following ``succ`` from ``i`` reaches ``root``; a path in a
    tree has fewer edges than there are states."""
    for _ in range(len(succ)):
        i = succ[i]
        if i == root:
            return True
    return False


def stationary_reference(rows):
    """Stationary vector of an irreducible exact chain via RREF nullspace.

    Reduces (I - P) transposed to reduced row echelon form over Fractions,
    reads off the one-dimensional nullspace and normalizes it.  Entirely
    separate from the package's minor and column-replacement routes.
    """
    n = len(rows)
    a = [[Fraction(int(i == j)) - Fraction(rows[j][i]) for j in range(n)]
         for i in range(n)]
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        scale = a[rank][col]
        a[rank] = [x / scale for x in a[rank]]
        for r in range(n):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1, "chain is not irreducible"
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        x[col] = -a[r][free[0]]
    total = sum(x)
    assert total != 0
    return [v / total for v in x]


def exact_rows_of(p):
    """The float matrix's off-diagonal entries, exactly, with the diagonal
    completing each row to 1."""
    n = len(p)
    rows = [[Fraction(float(x)) for x in row] for row in p]
    for i in range(n):
        rows[i][i] = 1 - sum(x for j, x in enumerate(rows[i]) if j != i)
    return rows


# ---------------------------------------------------------------------------
# random exact chains
# ---------------------------------------------------------------------------

def _composition(rng, total, parts, positive=False):
    """Random nonnegative integers summing to ``total`` (positive if asked)."""
    if positive:
        assert total >= parts
        cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    else:
        cuts = sorted(rng.choices(range(total + 1), k=parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_stochastic_rows(rng, n, max_den=12, strictly_positive=False):
    """Random exact stochastic matrix as Fraction rows."""
    rows = []
    for _ in range(n):
        den = rng.randint(n if strictly_positive else 1, max(max_den, n))
        parts = _composition(rng, den, n, positive=strictly_positive)
        rows.append([Fraction(p, den) for p in parts])
    return rows


def random_band_params(rng, n, max_den=12):
    """Random banded parameters: n rows of n-1 fractions with row sum <= 1."""
    bands = []
    for _ in range(n):
        den = rng.randint(1, max_den)
        parts = _composition(rng, den, n)  # parts[0] is the diagonal slack
        bands.append([Fraction(p, den) for p in parts[1:]])
    return bands


def direct_sum(blocks):
    """Block-diagonal stochastic matrix from square Fraction blocks."""
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[offset + i][offset + j] = x
        offset += len(block)
    return rows


def with_transitory(rng, transitory, blocks, max_den=12):
    """Chain with ``transitory`` leading states feeding the given closed blocks.

    Each transitory row is strictly positive across the whole state space,
    so those states leak into every closed class.
    """
    closed = direct_sum(blocks)
    m = len(closed)
    n = transitory + m
    rows = []
    for _ in range(transitory):
        den = rng.randint(n, max(2 * n, max_den))
        parts = _composition(rng, den, n, positive=True)
        rows.append([Fraction(p, den) for p in parts])
    for row in closed:
        rows.append([Fraction(0)] * transitory + list(row))
    return rows


def random_permutation(rng, n):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def permute_rows(rows, sigma):
    """Relabeled chain: new state i is old state sigma[i]."""
    n = len(rows)
    return [[rows[sigma[i]][sigma[j]] for j in range(n)] for i in range(n)]


def permute_vector(vec, sigma):
    return [vec[sigma[i]] for i in range(len(sigma))]


def random_structured_rows(rng, max_n=8, max_den=12):
    """A mix of irreducible, block-diagonal and transitory-augmented chains."""
    style = rng.random()
    if style < 0.4:
        n = rng.randint(1, max_n)
        rows = random_stochastic_rows(rng, n, max_den,
                                      strictly_positive=rng.random() < 0.7)
    elif style < 0.75:
        sizes = []
        remaining = rng.randint(2, max_n)
        while remaining > 0:
            s = rng.randint(1, min(3, remaining))
            sizes.append(s)
            remaining -= s
        blocks = [random_stochastic_rows(rng, s, max_den,
                                         strictly_positive=True)
                  for s in sizes]
        rows = direct_sum(blocks)
    else:
        transitory = rng.randint(1, max(1, max_n - 2))
        remaining = rng.randint(1, max_n - transitory)
        sizes = []
        while remaining > 0:
            s = rng.randint(1, min(3, remaining))
            sizes.append(s)
            remaining -= s
        blocks = [random_stochastic_rows(rng, s, max_den,
                                         strictly_positive=True)
                  for s in sizes]
        rows = with_transitory(rng, transitory, blocks, max_den)
    sigma = random_permutation(rng, len(rows))
    return permute_rows(rows, sigma)


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------

def random_connected_undirected(rng, n, max_mult=3):
    """Symmetric adjacency of a connected multigraph (spanning tree + extras)."""
    a = [[0] * n for _ in range(n)]
    nodes = list(range(n))
    rng.shuffle(nodes)
    for k in range(1, n):
        i = nodes[k]
        j = nodes[rng.randint(0, k - 1)]
        m = rng.randint(1, max_mult)
        a[i][j] += m
        a[j][i] += m
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        m = rng.randint(1, max_mult)
        a[i][j] += m
        if i != j:
            a[j][i] += m
    return a


def random_strongly_connected_digraph(rng, n, max_mult=3):
    """Adjacency of a strongly connected directed multigraph."""
    a = [[0] * n for _ in range(n)]
    cycle = list(range(n))
    rng.shuffle(cycle)
    for k in range(n):
        i, j = cycle[k], cycle[(k + 1) % n]
        a[i][j] += rng.randint(1, max_mult)
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        a[i][j] += rng.randint(1, max_mult)
    return a


def make_rng(seed):
    return random.Random(seed)
