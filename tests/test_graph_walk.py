from fractions import Fraction

import numpy as np
import pytest

from equilib import (
    Graph,
    ZeroOutDegreeError,
    degree_vector,
    graph_stationary,
    minor_weights,
    stationary,
    walk_matrix,
)
from support import (
    make_rng,
    random_connected_undirected,
    random_strongly_connected_digraph,
    stationary_reference,
)

F = Fraction

PATH_3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
CYCLE_3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


# --- construction and degrees ------------------------------------------------

def test_degrees_of_path():
    assert list(degree_vector(Graph(PATH_3))) == [1, 2, 1]


def test_degrees_of_triangle():
    assert list(degree_vector(Graph(TRIANGLE))) == [2, 2, 2]


def test_isolated_node_raises():
    g = Graph([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ZeroOutDegreeError) as err:
        degree_vector(g)
    assert err.value.node == 2


def test_rejects_negative_and_fractional_entries():
    with pytest.raises(ValueError):
        Graph([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        Graph(np.array([[0.5, 1.0], [1.0, 0.0]]))


def test_from_edges_accumulates_multiplicity():
    g = Graph.from_edges(2, [(0, 1), (0, 1, 2), (1, 0)])
    assert g.adjacency == [[0, 3], [1, 0]]
    assert repr(g) == "Graph(n=2)"


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 1.5), (1, 0, 0.9)], r"\(1, 2\) = 1\.5 is not an integer"),
    ([(0, 1, True), (1, 0)], r"\(1, 2\) = True is not an integer"),
    ([(0, 1, -1), (0, 1, 2), (1, 0)], r"\(1, 2\) is negative"),
])
def test_from_edges_checks_each_multiplicity_before_summing(edges, message):
    with pytest.raises(ValueError, match=rf"^adjacency entry {message}$"):
        Graph.from_edges(2, edges)


# --- walk matrix ---------------------------------------------------------------

def test_walk_matrix_of_path():
    wm = walk_matrix(Graph(PATH_3))
    assert [list(r) for r in wm.p] == [
        [0, 1, 0], [F(1, 2), 0, F(1, 2)], [0, 1, 0]]
    assert wm.mode == "exact"


def test_walk_matrix_of_directed_cycle_is_permutation():
    wm = walk_matrix(Graph(CYCLE_3))
    assert [list(r) for r in wm.p] == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_walk_matrix_of_triangle():
    wm = walk_matrix(Graph(TRIANGLE))
    h = F(1, 2)
    assert [list(r) for r in wm.p] == [[0, h, h], [h, 0, h], [h, h, 0]]


# --- graph_stationary ------------------------------------------------------------

def test_path_stationary():
    expected = stationary_reference(
        [list(r) for r in walk_matrix(Graph(PATH_3)).p])
    assert expected == [F(1, 4), F(1, 2), F(1, 4)]
    ge = graph_stationary(Graph(PATH_3))
    assert ge.numerators == [1, 2, 1]
    assert ge.denominator == 4
    assert list(ge.result.pi) == expected


def test_triangle_stationary_is_uniform():
    ge = graph_stationary(Graph(TRIANGLE))
    assert list(ge.result.pi) == [F(1, 3)] * 3


def test_directed_cycle_stationary_is_uniform():
    ge = graph_stationary(Graph(CYCLE_3))
    assert ge.numerators == [1, 1, 1]
    assert list(ge.result.pi) == [F(1, 3)] * 3


def test_two_disjoint_triangles_are_degenerate():
    adjacency = [[0] * 6 for _ in range(6)]
    for base in (0, 3):
        for i in range(3):
            for j in range(3):
                if i != j:
                    adjacency[base + i][base + j] = 1
    ge = graph_stationary(Graph(adjacency))
    assert not ge.unique
    assert ge.denominator == 0
    verts = ge.result.decomposition.vertex_equilibria
    assert len(verts) == 2
    third = F(1, 3)
    assert list(verts[0]) == [third] * 3 + [0] * 3
    assert list(verts[1]) == [0] * 3 + [third] * 3


def test_graph_route_equals_matrix_route_exactly():
    rng = make_rng(87)
    for _ in range(30):
        n = rng.randint(2, 8)
        adjacency = (random_connected_undirected(rng, n)
                     if rng.random() < 0.5
                     else random_strongly_connected_digraph(rng, n))
        g = Graph(adjacency)
        ge = graph_stationary(g)
        res = stationary(walk_matrix(g))
        assert ge.unique == res.unique
        assert list(ge.result.weights) == list(res.weights)
        if res.unique:
            assert list(ge.result.pi) == list(res.pi)


def test_minors_are_nonnegative_integers():
    rng = make_rng(89)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = Graph(random_strongly_connected_digraph(rng, n))
        ge = graph_stationary(g)
        degrees = degree_vector(g)
        for num, d in zip(ge.numerators, degrees):
            assert isinstance(num, int)
            assert num >= 0
            assert num % int(d) == 0


def test_undirected_stationary_is_degree_proportional():
    rng = make_rng(93)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = Graph(random_connected_undirected(rng, n))
        ge = graph_stationary(g)
        degrees = degree_vector(g)
        total = sum(int(d) for d in degrees)
        assert list(ge.result.pi) == [F(int(d), total) for d in degrees]


def test_scaling_every_multiplicity_leaves_stationary_unchanged():
    rng = make_rng(97)
    adjacency = random_strongly_connected_digraph(rng, 5)
    base = graph_stationary(Graph(adjacency))
    for k in (2, 3, 7):
        scaled = [[k * x for x in row] for row in adjacency]
        res = graph_stationary(Graph(scaled))
        assert list(res.result.pi) == list(base.result.pi)


def test_self_loops_slow_the_walker_down():
    # a self-loop adds out-degree, so the looped node keeps extra mass
    plain = graph_stationary(Graph(TRIANGLE)).result.pi
    looped = [[2, 1, 1], [1, 0, 1], [1, 1, 0]]
    res = graph_stationary(Graph(looped)).result.pi
    assert res[0] > plain[0]
    assert sum(res) == 1


def test_weights_match_walk_matrix_minor_weights():
    rng = make_rng(101)
    g = Graph(random_strongly_connected_digraph(rng, 6))
    ge = graph_stationary(g)
    assert list(ge.result.weights) == list(minor_weights(walk_matrix(g)))
