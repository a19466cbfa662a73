"""Oracle tests for the state-reduction weight kernel.

Every reference here is computed by code the kernel does not use: principal
minors by ``int_determinant`` (plain Bareiss on each deleted matrix) and by
enumerating spanning in-trees (the Markov chain tree theorem), the
stationary vector by the reduced-row-echelon nullspace in ``support``, and
closed-form answers such as the uniform vector of a cycle.
"""

import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from equilib import (
    Graph,
    graph_stationary,
    int_determinant,
    matrix_from_bands,
    minor_weights,
    principal_minor,
    relative_probability,
    stationary,
    StochasticMatrix,
)
from support import (
    direct_sum,
    exact_rows_of,
    in_tree_weights,
    make_rng,
    random_connected_undirected,
    random_stochastic_rows,
    random_strongly_connected_digraph,
    random_structured_rows,
    stationary_reference,
    with_transitory,
)
from equilib.cli import main

F = Fraction


def minors_by_deletion(rows):
    a = StochasticMatrix(rows).i_minus_p()
    return [principal_minor(a, i) for i in range(len(rows))]


# --- exact weights against n separate determinants ---------------------------

def test_exact_weights_equal_principal_minors_on_random_chains():
    rng = make_rng(301)
    for _ in range(60):
        rows = random_structured_rows(rng, max_n=7)
        assert list(minor_weights(rows)) == minors_by_deletion(rows)


def test_exact_weights_equal_principal_minors_with_transient_states():
    rng = make_rng(302)
    for _ in range(15):
        block = random_stochastic_rows(rng, rng.randint(1, 4), 10,
                                       strictly_positive=True)
        rows = with_transitory(rng, rng.randint(1, 3), [block])
        w = list(minor_weights(rows))
        assert w == minors_by_deletion(rows)
        assert sum(1 for x in w if x > 0) == len(block)


def test_exact_weights_vanish_with_two_or_more_closed_classes():
    rng = make_rng(303)
    for k in (2, 3):
        blocks = [random_stochastic_rows(rng, rng.randint(1, 3), 9,
                                         strictly_positive=True)
                  for _ in range(k)]
        for rows in (direct_sum(blocks), with_transitory(rng, 2, blocks)):
            w = list(minor_weights(rows))
            assert w == minors_by_deletion(rows)
            assert w == [0] * len(rows)


def test_exact_weights_on_larger_sparse_chain():
    rng = make_rng(304)
    n = 14
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = F(rng.randint(1, 9), 10)
        rows[i][rng.randrange(n)] += F(1, 20)
        rows[i][i] += 1 - sum(rows[i])
    assert list(minor_weights(rows)) == minors_by_deletion(rows)


def test_relative_probability_is_a_ratio_of_minors():
    rng = make_rng(305)
    rows = random_stochastic_rows(rng, 6, strictly_positive=True)
    w = minors_by_deletion(rows)
    for i, j in ((0, 5), (3, 1), (2, 2)):
        assert relative_probability(rows, i, j) == w[i] / w[j]


# --- the Markov chain tree theorem, by enumeration ---------------------------

@pytest.mark.parametrize("style", ["dense", "sparse", "reducible"])
def test_exact_weights_equal_in_tree_sums(style):
    rng = make_rng({"dense": 311, "sparse": 312, "reducible": 313}[style])
    for _ in range(40):
        if style == "reducible":
            rows = random_structured_rows(rng, max_n=5)
        else:
            rows = random_stochastic_rows(
                rng, rng.randint(1, 5), 6 if style == "sparse" else 12,
                strictly_positive=style == "dense")
        assert list(minor_weights(rows)) == in_tree_weights(rows)


def random_adjacency(rng, n):
    """Adjacency counts with every out-degree positive; often reducible."""
    a = [[rng.choice([0, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
    for row in a:
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, 3)
    return a


def test_graph_numerators_count_in_trees():
    rng = make_rng(314)
    degenerate = 0
    for _ in range(60):
        adj = random_adjacency(rng, rng.randint(1, 5))
        ge = graph_stationary(Graph(adj))
        trees = in_tree_weights(adj)
        assert ge.numerators == [sum(row) * t for row, t in zip(adj, trees)]
        degenerate += not ge.unique
    assert degenerate > 0


# --- graph walks: numerators from the integer Laplacian ----------------------

def laplacian_numerators(adj):
    n = len(adj)
    d = [sum(row) for row in adj]
    lap = [[(d[i] if i == j else 0) - adj[i][j] for j in range(n)]
           for i in range(n)]
    return [d[i] * int_determinant(
        [r[:i] + r[i + 1:] for k, r in enumerate(lap) if k != i])
        for i in range(n)]


def test_graph_numerators_equal_degree_times_laplacian_minor():
    rng = make_rng(306)
    for _ in range(10):
        n = rng.randint(1, 9)
        for adj in (random_strongly_connected_digraph(rng, n),
                    random_connected_undirected(rng, n)):
            ge = graph_stationary(Graph(adj))
            assert ge.numerators == laplacian_numerators(adj)
            assert ge.denominator == sum(ge.numerators)


def test_graph_numerators_of_a_disconnected_graph_are_zero():
    adj = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 2], [0, 0, 1, 0]]
    ge = graph_stationary(Graph(adj))
    assert ge.numerators == laplacian_numerators(adj) == [0, 0, 0, 0]
    assert not ge.unique


def test_graph_numerators_with_a_transient_node():
    # node 0 leaks into the cycle 1 -> 2 -> 3 -> 1 and is never re-entered
    adj = [[1, 1, 0, 2], [0, 0, 3, 0], [0, 0, 0, 1], [0, 2, 0, 0]]
    ge = graph_stationary(Graph(adj))
    assert ge.numerators == laplacian_numerators(adj)
    assert ge.numerators[0] == 0 and ge.unique


# --- lazy invariance ---------------------------------------------------------

@pytest.mark.parametrize("a", [F(1, 2), F(1, 3), F(5, 7)])
def test_lazy_chain_scales_weights_and_keeps_pi(a):
    rng = make_rng(307)
    for _ in range(8):
        rows = random_structured_rows(rng, max_n=6)
        n = len(rows)
        lazy = [[(1 - a) * (i == j) + a * rows[i][j] for j in range(n)]
                for i in range(n)]
        w, w_lazy = minor_weights(rows), minor_weights(lazy)
        assert list(w_lazy) == [a ** (n - 1) * x for x in w]
        res, res_lazy = stationary(rows), stationary(lazy)
        assert res.unique == res_lazy.unique
        if res.unique:
            assert list(res_lazy.pi) == list(res.pi)


# --- float accuracy ----------------------------------------------------------

def lazy_cycle(n, step):
    p = np.zeros((n, n))
    for i in range(n):
        p[i, i] = 1.0 - step
        p[i, (i + 1) % n] = step
    return p


@pytest.mark.parametrize("n, step", [(200, 0.01), (400, 0.05)])
def test_long_lazy_cycle_is_uniform(n, step):
    # every weight is step^(n-1), far below the smallest float: the weights
    # are diagnostics and pi does not depend on them
    res = stationary(lazy_cycle(n, step))
    assert res.unique
    assert np.max(np.abs(res.pi * n - 1.0)) <= 1e-12
    assert list(res.weights) == [0.0] * n


def eps_coupled(eps, h=8, seed=0):
    """Two dense dyadic blocks joined by one ``eps`` edge each way."""
    rng = random.Random(seed)
    n = 2 * h
    p = np.zeros((n, n))
    for lo in (0, h):
        for i in range(lo, lo + h):
            cuts = sorted(rng.sample(range(1, 2 ** 16), h - 1))
            parts = [b - c for c, b in zip([0] + cuts, cuts + [2 ** 16])]
            p[i, lo:lo + h] = np.array(parts) / 2 ** 16
    for i, j in ((0, h), (h, 0)):
        k = int(np.argmax(p[i]))
        p[i, k] -= eps
        p[i, j] = eps
    return p


@pytest.mark.parametrize(
    "eps", [1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-100, 1e-300])
def test_eps_coupled_blocks_keep_relative_accuracy(eps):
    # every nonzero coupling is an edge, so the chain is irreducible however
    # small it is, as long as it is a normal float
    p = eps_coupled(eps)
    res = stationary(p)
    assert res.unique
    ref = stationary_reference(exact_rows_of(p))
    rel = max(abs(F(float(x)) - r) / r for x, r in zip(res.pi, ref))
    assert rel <= 1e-9


def assert_matches(pi, ref):
    """``pi`` against the exact answer ``ref``: within 1e-9 relative on
    entries above 1e-290, exact zeros kept."""
    for x, r in zip(pi, ref):
        if r > 1e-290:
            assert abs(x / float(r) - 1) <= 1e-9
        elif r == 0:
            assert x == 0
        else:
            assert 0.0 <= x <= 1e-280


def test_subnormal_coupling_keeps_relative_accuracy(tmp_path, capsys):
    # a subnormal coupling is still an edge: the pivot it leaves is
    # subnormal but positive, and its 46 bits keep pi accurate
    p = eps_coupled(5e-310)
    assert np.count_nonzero(p[0, 8:]) == 1
    res = stationary(p)
    assert res.unique
    assert_matches(res.pi, stationary_reference(exact_rows_of(p)))
    path = tmp_path / "m.txt"
    path.write_text("\n".join(" ".join(repr(float(x)) for x in row)
                              for row in p))
    assert main(["stationary", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("eps", [5e-320, 1e-323])
def test_coupling_kept_to_few_bits_asks_for_exact_mode(eps):
    # 5e-320 keeps about 13 bits and 1e-323 two: the flow between the
    # blocks hangs on rates rounded to the subnormal grid, which the float
    # pass refuses rather than return a vector off by up to 1e-3; exact
    # mode solves it
    p = eps_coupled(eps)
    with pytest.raises(ValueError, match="exact mode"):
        stationary(p)
    assert stationary(exact_rows_of(p)).unique


def birth_death(n, up, down):
    """Reflecting walk on 0..n-1 stepping up with ``up``, down with ``down``."""
    p = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            p[i, i + 1] = up
        if i > 0:
            p[i, i - 1] = down
        p[i, i] = 1.0 - p[i].sum()
    return p


@pytest.mark.parametrize("n, up, down, relabel", [
    (400, F(9, 10), F(1, 10), False),
    (400, F(9, 10), F(1, 10), True),
    (400, F(1, 10), F(9, 10), False),
    (110, F(999, 1000), F(1, 1000), False),
    (110, F(999, 1000), F(1, 1000), True),
])
def test_drifting_chain_keeps_pi_finite_and_accurate(n, up, down, relabel):
    # pi_i is proportional to (up/down)^i by detailed balance, spanning more
    # than the float range: the mass far from the heavy end underflows to 0
    # and must not overflow the rest
    r = up / down
    total = sum(r ** i for i in range(n))
    ref = [r ** i / total for i in range(n)]
    p = birth_death(n, float(up), float(down))
    perm = list(range(n))
    if relabel:
        random.Random(n).shuffle(perm)
        p = p[np.ix_(perm, perm)]
        ref = [ref[i] for i in perm]
    res = stationary(p)
    assert res.unique
    assert np.all(np.isfinite(res.pi)) and np.all(np.isfinite(res.weights))
    assert abs(res.pi.sum() - 1.0) <= 1e-12
    for x, exact in zip(res.pi, ref):
        if exact > F(1, 10 ** 290):
            assert abs(F(float(x)) - exact) / exact <= 1e-9
        else:
            assert 0.0 <= x <= 1e-280


def relabelled(p, rng):
    perm = rng.permutation(len(p))
    return p[np.ix_(perm, perm)], perm


def test_drift_barrier_keeps_relative_accuracy():
    # two heavy ends behind a drift barrier: x = pi / pi_root falls to about
    # 9^-340 in the middle and grows again on the far side, which takes
    # exponents per entry of x; the relabelled copy mixes the two ends
    m = 340
    p = np.zeros((2 * m + 1, 2 * m + 1))
    for i in range(2 * m + 1):
        up = 0.1 if i < m else 0.9 if i > m else 0.5
        if i < 2 * m:
            p[i, i + 1] = up
        if i > 0:
            p[i, i - 1] = 1.0 - up
        p[i, i] = 1.0 - p[i].sum()
    # detailed balance on the entries of p, in 28 decimal digits
    mass = [Decimal(1)]
    for i in range(2 * m):
        mass.append(mass[-1] * Decimal(p[i, i + 1]) / Decimal(p[i + 1, i]))
    total = sum(mass)
    ref = [x / total for x in mass]
    q, perm = relabelled(p, np.random.default_rng(m))
    for chain, expected in ((p, ref), (q, [ref[i] for i in perm])):
        res = stationary(chain)
        assert res.unique
        assert_matches(res.pi, expected)


def test_products_below_the_float_range_keep_pi():
    # pi[2] = 1.27e-138 is reached through rates of 1e-198 to 1e-281: a
    # single float frame for x returned it as 0.0, labelled unique
    p = matrix_from_bands([[2.793585661373632e-223, 0.0],
                           [5.369680596403411e-198, 0.10633186225287128],
                           [0.0, 1.1091771623980817e-281]])
    res = stationary(p)
    assert res.unique
    assert_matches(res.pi, stationary_reference(exact_rows_of(p.p)))
    assert res.pi[2] > 1e-138


def test_pivot_that_underflows_asks_for_exact_mode():
    # a valid chain whose pivot underflows to zero in the fixed order: the
    # float pass refuses it rather than return a wrong vector
    p = matrix_from_bands([
        [2.2588125504898944e-33, 9.434973814083448e-195,
         3.659331700447228e-290],
        [2.4768437052977693e-161, 0.0, 6.825118110386571e-269],
        [0.0, 0.0, 1.679639808049279e-107],
        [0.0, 3.382438223248243e-239, 0.0]])
    with pytest.raises(ValueError, match="exact mode"):
        stationary(p)


def test_closed_state_whose_weight_underflows_asks_for_exact_mode():
    # pi[2] = 2.4e-209 is reached only through a rate of 3.2e-315 and
    # products that underflow to zero inside the pass: a closed state's x
    # of zero was returned as pi[2] = 0.0, labelled unique
    p = matrix_from_bands([
        [8.087590551375903e-14, 4.417e-321, 0.0],
        [0.0, 3.1240177812859996e-125, 3.8335261177680074e-218],
        [2.193343408703167e-260, 0.0, 3.244255305e-315],
        [8.615096192295519e-47, 2.772177602172951e-10, 0.0]])
    assert stationary_reference(exact_rows_of(p.p))[2] > 1e-209
    with pytest.raises(ValueError, match="exact mode"):
        stationary(p)


def random_band_chain(rng, decades=300):
    """A float chain of 3 to 8 states whose off-diagonal entries are
    log-uniform over ``decades`` decades below 1, a quarter of them zero,
    half of the chains relabelled."""
    n = rng.choice([3, 4, 5, 6, 8])
    bands = []
    for _ in range(n):
        band = [0.0 if rng.random() < 0.25
                else 10.0 ** (-decades * rng.random())
                for _ in range(n - 1)]
        if sum(map(F, band)) >= 1:
            band = [x / (2 * sum(band)) for x in band]
        bands.append(band)
    p = matrix_from_bands(bands).p.copy()
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        p = p[np.ix_(perm, perm)]
    return p


def test_random_band_chains_match_the_exact_answer():
    rng = make_rng(1310)
    for _ in range(200):
        p = random_band_chain(rng)
        res = stationary(p)
        if res.unique:
            assert_matches(res.pi, stationary_reference(exact_rows_of(p)))
        else:
            assert not stationary(exact_rows_of(p)).unique


def test_random_band_chains_with_subnormal_rates_are_right_or_refused():
    # rates down to the smallest subnormal: a chain whose answer hangs on
    # rates kept to a few bits raises the exact-mode error, and none is
    # wrong: every entry is within 1e-9 relative or two subnormal steps
    rng = make_rng(1311)
    refused = 0
    for _ in range(200):
        p = random_band_chain(rng, decades=323.3)
        try:
            res = stationary(p)
        except ValueError as exc:
            assert "exact mode" in str(exc)
            refused += 1
            continue
        if res.unique:
            ref = stationary_reference(exact_rows_of(p))
            assert all(abs(F(float(x)) - r) <= r / 10 ** 9 + F(2) ** -1073
                       for x, r in zip(res.pi, ref))
        else:
            assert not stationary(exact_rows_of(p)).unique
    assert refused <= 10


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("n", [257, 300])
def test_mean_of_permutation_matrices_is_uniform(n, relabel):
    # the mean of 16 permutation matrices has entries k/16 and every row
    # and column summing to exactly 1, so its stationary vector is uniform
    rng = np.random.default_rng(n)
    p = np.zeros((n, n))
    for _ in range(16):
        p[np.arange(n), rng.permutation(n)] += 1 / 16
    if relabel:
        p, _ = relabelled(p, rng)
    assert np.all(p.sum(axis=0) == 1.0) and np.all(p.sum(axis=1) == 1.0)
    res = stationary(p)
    assert res.unique
    assert np.max(np.abs(res.pi * n - 1.0)) <= 1e-12


@pytest.mark.parametrize("relabel", [False, True])
def test_dense_undirected_walk_is_proportional_to_degree(relabel):
    # a walk on an undirected multigraph is reversible with pi_i = d_i / 2m
    n = 257
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(0, 4, size=(n, n)))
    a = upper + np.triu(upper, 1).T
    degrees = a.sum(axis=1)
    assert degrees.min() > 0
    expected = degrees / degrees.sum()
    p = a / degrees[:, None]
    if relabel:
        p, perm = relabelled(p, rng)
        expected = expected[perm]
    res = stationary(p)
    assert res.unique
    assert np.max(np.abs(res.pi / expected - 1.0)) <= 1e-12


def test_degenerate_chain_decomposes_the_full_chain_once(monkeypatch):
    import equilib.equilibrium as equilibrium

    sizes = []
    classes = equilibrium._classes

    def counting(rows):
        sizes.append(len(rows))
        return classes(rows)

    monkeypatch.setattr(equilibrium, "_classes", counting)
    res = stationary([[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 4), F(1, 4)]])
    assert not res.unique
    # once on the chain; the closed classes are irreducible by construction
    assert sizes == [3]
