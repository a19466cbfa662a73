from fractions import Fraction

import numpy as np
import pytest

import equilib.reducibility as reducibility
from equilib import (
    closed_form_2,
    communicating_classes,
    equilibrium_polytope,
    is_irreducible,
    stationary,
    verify_equilibrium,
)
from support import direct_sum, make_rng, random_stochastic_rows

F = Fraction


def absorbing_pair():
    # states 1 and 3 absorb, state 2 leaks into both
    return [[F(1), F(0), F(0)],
            [F(1, 3), F(1, 3), F(1, 3)],
            [F(0), F(0), F(1)]]


def two_by_two_plus_singleton(p1, q2):
    # 2x2 stochastic block on states {1, 2} plus an absorbing state 3
    return [[1 - p1, p1, F(0)],
            [q2, 1 - q2, F(0)],
            [F(0), F(0), F(1)]]


# --- communicating_classes ---------------------------------------------------

def test_block_diagonal_gives_two_closed_classes():
    rng = make_rng(61)
    blocks = [random_stochastic_rows(rng, 2, strictly_positive=True),
              random_stochastic_rows(rng, 3, strictly_positive=True)]
    report = communicating_classes(direct_sum(blocks))
    assert report.classes == [[0, 1], [2, 3, 4]]
    assert report.closed_flags == [True, True]
    assert report.transitory_states == []


def test_strictly_positive_matrix_is_one_closed_class():
    rng = make_rng(67)
    rows = random_stochastic_rows(rng, 3, strictly_positive=True)
    report = communicating_classes(rows)
    assert report.classes == [[0, 1, 2]]
    assert report.closed_flags == [True]


def test_block_plus_singleton_has_two_closed_classes():
    report = communicating_classes(
        two_by_two_plus_singleton(F(1, 3), F(1, 2)))
    assert report.classes == [[0, 1], [2]]
    assert report.closed_flags == [True, True]
    assert report.transitory_states == []


def test_absorbing_pair_middle_state_is_transitory():
    report = communicating_classes(absorbing_pair())
    assert report.classes == [[0], [1], [2]]
    assert report.closed_flags == [True, False, True]
    assert report.transitory_states == [1]


# --- is_irreducible -----------------------------------------------------------

def test_positive_two_state_is_irreducible():
    assert is_irreducible([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])


def test_identity_is_reducible():
    assert not is_irreducible([[F(1), F(0)], [F(0), F(1)]])


def test_absorbing_pair_is_reducible():
    assert not is_irreducible(absorbing_pair())


def test_periodic_cycle_is_irreducible():
    cycle = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(1), F(0), F(0)]]
    assert is_irreducible(cycle)
    res = stationary(cycle)
    assert list(res.pi) == [F(1, 3)] * 3


# --- equilibrium_polytope -------------------------------------------------------

def test_block_plus_singleton_vertices():
    p1, q2 = F(1, 3), F(1, 2)
    report = equilibrium_polytope(two_by_two_plus_singleton(p1, q2))
    expected_first = [q2 / (p1 + q2), p1 / (p1 + q2), F(0)]
    verts = [list(v) for v in report.vertex_equilibria]
    assert verts == [expected_first, [F(0), F(0), F(1)]]
    # the first vertex is the embedded two-state equilibrium
    sub = closed_form_2(p1, q2)
    assert verts[0][:2] == list(sub.pi)


def test_identity_vertices_are_basis_vectors():
    report = equilibrium_polytope(np.eye(3))
    verts = [list(v) for v in report.vertex_equilibria]
    assert verts == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_transitory_block_form_vertices():
    # two transitory states feeding a 2x2 block and another 2x2 block
    rows = [
        [F(1, 4), F(1, 4), F(1, 8), F(1, 8), F(1, 8), F(1, 8)],
        [F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6)],
        [F(0), F(0), F(1, 2), F(1, 2), F(0), F(0)],
        [F(0), F(0), F(1, 4), F(3, 4), F(0), F(0)],
        [F(0), F(0), F(0), F(0), F(1, 3), F(2, 3)],
        [F(0), F(0), F(0), F(0), F(2, 3), F(1, 3)],
    ]
    report = equilibrium_polytope(rows)
    assert report.transitory_states == [0, 1]
    pi_a = closed_form_2(F(1, 2), F(1, 4)).pi    # block on states {3, 4}
    pi_b = closed_form_2(F(2, 3), F(2, 3)).pi    # block on states {5, 6}
    verts = [list(v) for v in report.vertex_equilibria]
    assert verts == [
        [F(0), F(0), pi_a[0], pi_a[1], F(0), F(0)],
        [F(0), F(0), F(0), F(0), pi_b[0], pi_b[1]],
    ]


def test_every_vertex_is_an_exact_equilibrium():
    rng = make_rng(71)
    for _ in range(25):
        blocks = [random_stochastic_rows(rng, rng.randint(1, 3),
                                         strictly_positive=True)
                  for _ in range(rng.randint(1, 3))]
        rows = direct_sum(blocks)
        report = equilibrium_polytope(rows)
        assert len(report.vertex_equilibria) == len(blocks)
        for v in report.vertex_equilibria:
            assert sum(v) == 1
            assert verify_equilibrium(v, rows) == 0


def test_convex_combinations_of_vertices_are_equilibria():
    rng = make_rng(73)
    for _ in range(10):
        blocks = [random_stochastic_rows(rng, rng.randint(1, 3),
                                         strictly_positive=True)
                  for _ in range(rng.randint(2, 3))]
        rows = direct_sum(blocks)
        report = equilibrium_polytope(rows)
        verts = report.vertex_equilibria
        # random rational barycentric weights over all vertices
        raw = [F(rng.randint(0, 9)) for _ in verts]
        if sum(raw) == 0:
            raw[0] = F(1)
        lam = [x / sum(raw) for x in raw]
        mix = sum((l * v for l, v in zip(lam, verts)),
                  start=np.zeros(len(rows), dtype=object))
        assert sum(mix) == 1
        assert verify_equilibrium(mix, rows) == 0


def test_unique_chain_has_single_vertex_equal_to_stationary():
    rng = make_rng(79)
    rows = random_stochastic_rows(rng, 4, strictly_positive=True)
    report = equilibrium_polytope(rows)
    assert len(report.vertex_equilibria) == 1
    assert list(report.vertex_equilibria[0]) == list(stationary(rows).pi)


def test_transitory_states_carry_no_mass():
    report = equilibrium_polytope(absorbing_pair())
    for v in report.vertex_equilibria:
        for i in report.transitory_states:
            assert v[i] == 0


# --- float structure -----------------------------------------------------------

def test_edge_threshold_separates_noise_from_structure():
    # every nonzero float entry is an edge, however small
    noise = 5e-15
    rows = np.array([[1.0 - noise, noise], [0.0, 1.0]])
    rows = rows / rows.sum(axis=1, keepdims=True)
    report = communicating_classes(rows)
    assert report.closed_flags == [False, True]
    with pytest.raises(TypeError):
        communicating_classes(rows, edge_threshold=1e-16)


def test_float_block_structure_detected():
    rows = np.array([[0.5, 0.5, 0.0, 0.0],
                     [0.25, 0.75, 0.0, 0.0],
                     [0.0, 0.0, 0.9, 0.1],
                     [0.0, 0.0, 0.2, 0.8]])
    report = equilibrium_polytope(rows)
    assert report.n_closed == 2
    for v in report.vertex_equilibria:
        assert verify_equilibrium(v, rows) <= 1e-14


# --- classes and closedness against reachability sets ------------------------

def reachable_sets(adj):
    """The states reachable from each state (itself included), by search."""
    sets = []
    for start in range(len(adj)):
        seen, todo = {start}, [start]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        sets.append(seen)
    return sets


def digraph_with_closed_classes(rng):
    """Neighbor lists of a relabelled digraph: a few strongly connected
    blocks with no edge out, and transitory states with sparse edges
    anywhere, so classes leak through tree edges as well as cross edges."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
    n_free = rng.randint(0, 8)
    n = sum(sizes) + n_free
    adj = [set() for _ in range(n)]
    lo = n_free
    for size in sizes:
        for i in range(lo, lo + size):
            adj[i].add(lo + (i - lo + 1) % size)
            adj[i].add(rng.randrange(lo, lo + size))
        lo += size
    for i in range(n_free):
        for _ in range(rng.randint(1, 3)):
            adj[i].add(rng.randrange(n))
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = [None] * n
    for i in range(n):
        relabelled[perm[i]] = sorted(perm[j] for j in adj[i])
    return relabelled


def test_classes_and_closed_flags_match_reachability():
    rng = make_rng(157)
    several_closed = 0
    for _ in range(300):
        adj = digraph_with_closed_classes(rng)
        n = len(adj)
        p = np.zeros((n, n))
        for i, out in enumerate(adj):
            p[i, out] = 1.0 / len(out)
        reach = reachable_sets(adj)
        expected = sorted(
            {tuple(sorted(j for j in reach[i] if i in reach[j]))
             for i in range(n)})
        report = communicating_classes(p)
        assert report.classes == [list(c) for c in expected]
        assert report.closed_flags == [reach[c[0]] == set(c)
                                       for c in expected]
        several_closed += report.n_closed > 1
    assert several_closed > 200


# --- closed class count vs eigenvalue multiplicity ------------------------------

def test_classes_match_networkx_components():
    nx = pytest.importorskip("networkx")
    rng = make_rng(151)
    for _ in range(40):
        rows = [[F(x) for x in row]
                for row in random_stochastic_rows(rng, rng.randint(1, 8))]
        report = communicating_classes(rows)
        g = nx.DiGraph()
        g.add_nodes_from(range(len(rows)))
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x != 0:
                    g.add_edge(i, j)
        expected = sorted(
            (sorted(c) for c in nx.strongly_connected_components(g)),
            key=lambda c: c[0])
        assert report.classes == expected


def test_closed_class_count_matches_unit_eigenvalue_multiplicity():
    rng = make_rng(83)
    cases = [
        absorbing_pair(),
        two_by_two_plus_singleton(F(1, 3), F(1, 2)),
        direct_sum([random_stochastic_rows(rng, 2, strictly_positive=True),
                    random_stochastic_rows(rng, 3, strictly_positive=True)]),
        random_stochastic_rows(rng, 4, strictly_positive=True),
        [[F(1), F(0)], [F(0), F(1)]],
    ]
    for rows in cases:
        report = communicating_classes(rows)
        m = np.array([[float(x) for x in r] for r in rows])
        eigs = np.linalg.eigvals(m)
        multiplicity = int(np.sum(np.abs(eigs - 1.0) < 1e-8))
        assert report.n_closed == multiplicity


# --- the class pass across byte and word boundaries ----------------------------

def relabelled_digraph(rng, n):
    """Neighbor sets of a digraph on ``n`` states, relabelled at random:
    strongly connected blocks with no edge out, sparse or dense inside,
    and transitory states with one to three edges anywhere."""
    n_free = rng.randint(0, n // 2)
    sizes, left = [], n - n_free
    while left:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    adj = [set() for _ in range(n)]
    lo = n_free
    for size in sizes:
        density = rng.choice([0.0, 0.05, 0.5, 1.0])
        for i in range(lo, lo + size):
            adj[i].add(lo + (i - lo + 1) % size)
            adj[i].update(j for j in range(lo, lo + size)
                          if rng.random() < density)
        lo += size
    for i in range(n_free):
        adj[i].update(rng.randrange(n) for _ in range(rng.randint(1, 3)))
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = [None] * n
    for i in range(n):
        relabelled[perm[i]] = {perm[j] for j in adj[i]}
    return relabelled


def kernel_forms(rng, adj):
    """The digraph ``adj`` as the class pass takes it: a float matrix
    (subnormal entries included), cleared exact rows with entries above
    2**64, and a graph adjacency with multiplicities."""
    n = len(adj)
    p = np.zeros((n, n))
    exact = [[0] * n for _ in range(n)]
    graph = [[0] * n for _ in range(n)]
    for i, out in enumerate(adj):
        for j in out:
            p[i, j] = rng.choice([5e-324, 1e-300, rng.random() + 0.1])
            exact[i][j] = rng.randrange(2 ** 64, 2 ** 80)
            graph[i][j] = rng.randint(1, 3)
    return p, exact, graph


def reachability(adj):
    """``r[i, j]`` is true when ``j`` is reachable from ``i`` (itself
    included): the transitive closure by repeated squaring."""
    n = len(adj)
    r = np.eye(n)
    for i, out in enumerate(adj):
        r[i, list(out)] = 1.0
    while True:
        nxt = (r @ r > 0).astype(float)
        if (nxt == r).all():
            return r > 0
        r = nxt


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300])
def test_class_pass_matches_networkx_and_reachability(n):
    nx = pytest.importorskip("networkx")
    rng = make_rng(1000 + n)
    for _ in range(4):
        adj = relabelled_digraph(rng, n)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((i, j) for i, out in enumerate(adj) for j in out)
        classes = sorted(sorted(c)
                         for c in nx.strongly_connected_components(g))
        reach = reachability(adj)
        closed = [set(np.flatnonzero(reach[c[0]])) == set(c)
                  for c in classes]
        transitory = sorted(v for c, ok in zip(classes, closed) if not ok
                            for v in c)
        for rows in kernel_forms(rng, adj):
            report = reducibility._classes(rows)
            assert report.classes == classes
            assert report.closed_flags == closed
            assert report.transitory_states == transitory


def test_identity_has_one_closed_class_per_state():
    n = 300
    expected = [[i] for i in range(n)]
    for p in (np.eye(n), [[int(i == j) for j in range(n)] for i in range(n)]):
        report = reducibility._classes(p)
        assert report.classes == expected
        assert report.closed_flags == [True] * n
        assert report.transitory_states == []
    assert communicating_classes(np.eye(n)).n_closed == n


def test_one_way_path_is_walked_without_recursion():
    # a walk that recursed once per state would overflow the stack long
    # before the end of the path
    n = 5000
    p = np.eye(n, k=1, dtype=bool)
    p[-1, -1] = True
    report = reducibility._classes(p)
    assert report.classes == [[i] for i in range(n)]
    assert report.closed_flags == [False] * (n - 1) + [True]
    assert report.transitory_states == list(range(n - 1))
