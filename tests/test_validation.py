"""Tests of the single validating pass over exact stochastic matrices.

The pass converts each row to ``Fraction``, clears its denominators and
checks signs and the row sum on the integers.  The matrix keeps the
integer rows it built; the class analysis, the weight kernel and the
polytope vertices read them instead of clearing ``P`` again.
"""

import re
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from equilib import (
    Graph,
    StochasticMatrix,
    clear_denominators,
    closed_form_2,
    equilibrium_polytope,
    perturb,
    stationary,
    verify_equilibrium,
)
from support import (
    make_rng,
    permute_rows,
    random_permutation,
    random_stochastic_rows,
    random_structured_rows,
    with_transitory,
)

F = Fraction


def _exactly(message):
    return "^" + re.escape(message) + "$"


# --- the kept integer rows -------------------------------------------------

def test_kept_rows_equal_clear_denominators_on_random_chains():
    rng = make_rng(4101)
    for _ in range(60):
        sm = StochasticMatrix(random_structured_rows(rng, max_n=9,
                                                     max_den=30))
        assert sm._cleared == clear_denominators(sm.p)


def test_kept_rows_from_integer_and_float_arrays():
    sm = StochasticMatrix(np.array([[0, 1], [1, 0]]))
    assert sm._cleared == ([[0, 1], [1, 0]], [1, 1])
    sm = StochasticMatrix(np.array([[0.25, 0.75], [0.5, 0.5]]), mode="exact")
    assert sm._cleared == ([[1, 3], [1, 1]], [4, 2])
    assert sm._cleared == clear_denominators(sm.p)
    assert StochasticMatrix([[0.5, 0.5], [1.0, 0.0]])._cleared is None


def test_p_holds_fractions_and_keeps_the_callers_objects():
    half = F(1, 2)
    sm = StochasticMatrix([[half, half], [1, 0]])
    assert sm.p.dtype == object and sm.p.shape == (2, 2)
    assert sm.p[0, 0] is half
    assert all(type(x) is Fraction for x in sm.p.flat)


def test_a_fraction_subclass_entry_is_kept_and_cleared():
    class Rate(Fraction):
        pass

    half = Rate(1, 2)
    sm = StochasticMatrix([[half, half], [1, 0]])
    assert sm.p[0, 0] is half
    assert sm._cleared == ([[1, 1], [1, 0]], [2, 1])


# --- validation messages -----------------------------------------------------

def test_first_negative_entry_in_row_order_is_reported():
    rows = [[F(1, 2), F(1, 2), F(0)],
            [F(1), F(1, 2), F(-1, 2)],
            [F(-1), F(1), F(1)]]
    with pytest.raises(ValueError,
                       match=_exactly("negative entry at row 2, column 3")):
        StochasticMatrix(rows)


def test_first_negative_float_entry_in_row_order_is_reported():
    rows = [[0.5, 0.5, 0.0], [1.0, 0.5, -0.5], [-1.0, 1.0, 1.0]]
    with pytest.raises(ValueError,
                       match=_exactly("negative entry at row 2, column 3")):
        StochasticMatrix(rows)


def test_row_sum_is_reported_as_an_exact_fraction():
    with pytest.raises(ValueError,
                       match=_exactly("row 1 sums to 7/6, expected 1")):
        StochasticMatrix([[F(1, 2), F(2, 3)], [F(-1), F(2)]])
    with pytest.raises(ValueError,
                       match=_exactly("row 2 sums to 5/6, expected 1")):
        StochasticMatrix([[1, 0], ["1/2", "1/3"]])


def test_an_unreadable_exact_entry_is_located():
    with pytest.raises(ValueError, match=_exactly(
            "entry at row 2, column 2 = 'x' is not a number")):
        StochasticMatrix([[1, 0], ["1/2", "x"]])


def test_a_float_entry_makes_an_inferred_matrix_float_before_any_error():
    # the exact row 1 is invalid, but row 2 holds a float: float rules apply
    with pytest.raises(ValueError, match=r"^row 1 sums to 0\.8333"):
        StochasticMatrix([[F(1, 2), F(1, 3)], [0.5, 0.5]])


@pytest.mark.parametrize("mode", [None, "exact", "float"])
def test_ragged_rows_are_located(mode):
    with pytest.raises(ValueError,
                       match=_exactly("row 2 has 1 entries, expected 2")):
        StochasticMatrix([[F(1), F(0)], [F(1)]], mode=mode)


def test_a_rational_string_in_a_float_matrix_is_read():
    # numpy cannot read "1/2"; the one reader reads it exactly, then in float
    for mode in (None, "float"):
        sm = StochasticMatrix([[0.5, 0.5], ["1/2", 0.5]], mode=mode)
        assert sm.mode == "float"
        assert sm.p.tolist() == [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("rows, mode, message", [
    ([[True, False], [False, True]], None,
     "entry at row 1, column 1 = True is not a number"),
    ([[1.0, 0.0], [False, True]], None,
     "entry at row 2, column 1 = False is not a number"),
    ([[F(1), F(0)], [0, True]], "float",
     "entry at row 2, column 2 = True is not a number"),
    (np.array([[True, False], [False, True]]), None,
     "entry at row 1, column 1 = True is not a number"),
])
def test_a_bool_entry_is_not_a_number(rows, mode, message):
    with pytest.raises(ValueError, match=_exactly(message)):
        StochasticMatrix(rows, mode=mode)


def _motivating_call(name):
    p = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]
    return {
        "none": lambda: StochasticMatrix([[None, 1], [0.5, 0.5]]),
        "complex": lambda: StochasticMatrix([[0.5 + 0j, 0.5], [0.5, 0.5]]),
        "1/0": lambda: StochasticMatrix([["1/0", 1], [0.5, 0.5]]),
        "float-overflow": lambda: StochasticMatrix([[10 ** 400, 0], [0, 1]],
                                                   mode="float"),
        "string-overflow": lambda: StochasticMatrix([["1e999", 0], [0, 1]],
                                                    mode="float"),
        "decimal-overflow": lambda: StochasticMatrix(
            [[Decimal("1e999"), 0], [0, 1]], mode="float"),
        "string-inf": lambda: StochasticMatrix([["inf", 0], [0, 1]],
                                               mode="float"),
        "string-nan": lambda: StochasticMatrix([["-nan", 0], [0, 1]],
                                               mode="float"),
        "nested": lambda: StochasticMatrix([[0.5, [0.5]], [1, 0]]),
        "deep": lambda: StochasticMatrix([[[1]]]),
        "huge-exponent": lambda: StochasticMatrix([["1e100000000", 0],
                                                   [0, 1]]),
        "huge-sum": lambda: StochasticMatrix([[10 ** 5000, 0], [0, 1]]),
        "closed-form-none": lambda: closed_form_2(None, 1),
        "closed-form-huge": lambda: closed_form_2(10 ** 5000, 0),
        "epsilon-none": lambda: perturb(p, None),
        "vector-nan": lambda: verify_equilibrium([float("nan"), 0.5], p),
    }[name]


@pytest.mark.parametrize("name, message", [
    ("none", "entry at row 1, column 1 = None is not a number"),
    ("complex", "entry at row 1, column 1 = (0.5+0j) is not a number"),
    ("1/0", "entry at row 1, column 1 = '1/0' is not a number"),
    ("float-overflow", "entry at row 1, column 1 overflows a float"),
    ("string-overflow", "entry at row 1, column 1 overflows a float"),
    ("decimal-overflow", "entry at row 1, column 1 overflows a float"),
    ("string-inf", "entry at row 1, column 1 is not finite"),
    ("string-nan", "entry at row 1, column 1 is not finite"),
    ("nested", "entry at row 1, column 2 = [0.5] is not a number"),
    ("deep", "entry at row 1, column 1 = [1] is not a number"),
    ("huge-exponent", "entry at row 1, column 1 exceeds the 4300-digit limit"),
    ("huge-sum",
     "row 1 sums to a number past the 4300-digit limit, expected 1"),
    ("closed-form-none", "parameter p1 = None is not a number"),
    ("closed-form-huge",
     "parameter p1 = a number past the 4300-digit limit outside [0, 1]"),
    ("epsilon-none", "epsilon = None is not a number"),
    ("vector-nan", "vector entry 1 is not finite"),
])
def test_a_bad_value_is_a_located_value_error_at_once(name, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=_exactly(message)):
        _motivating_call(name)()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, edges, message", [
    (2, [(0,)], "edge (0,) is not (i, j) or (i, j, multiplicity) "
                "with integer nodes i, j"),
    (2, [(0, 1, 1, 9)], "edge (0, 1, 1, 9) is not (i, j) or "
                        "(i, j, multiplicity) with integer nodes i, j"),
    (2, [(0.5, 1)], "edge (0.5, 1) is not (i, j) or (i, j, multiplicity) "
                    "with integer nodes i, j"),
    (2, [("0", 1)], "edge ('0', 1) is not (i, j) or (i, j, multiplicity) "
                    "with integer nodes i, j"),
    (2, [(True, 0)], "edge (True, 0) is not (i, j) or (i, j, multiplicity) "
                     "with integer nodes i, j"),
    (2.0, [(0, 1)], "node count 2.0 is not an integer"),
    (2, [(0, 2)], "edge (0, 2) out of range for n=2"),
])
def test_a_bad_edge_is_named(n, edges, message):
    with pytest.raises(ValueError, match=_exactly(message)):
        Graph.from_edges(n, edges)


# --- closed classes read the kept rows ---------------------------------------

def test_polytope_vertices_equal_stationary_of_each_closed_class():
    rng = make_rng(4102)
    for _ in range(25):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        blocks = [random_stochastic_rows(rng, s, max_den=20,
                                         strictly_positive=True)
                  for s in sizes]
        rows = with_transitory(rng, rng.randint(0, 3), blocks, max_den=20)
        rows = permute_rows(rows, random_permutation(rng, len(rows)))
        report = equilibrium_polytope(rows)
        closed = report.closed_classes
        assert len(closed) == len(blocks)
        degenerate = stationary(rows).decomposition
        assert [list(v) for v in degenerate.vertex_equilibria] == \
            [list(v) for v in report.vertex_equilibria]
        for cls, vertex in zip(closed, report.vertex_equilibria):
            alone = stationary([[rows[i][j] for j in cls] for i in cls])
            assert alone.unique
            assert [vertex[i] for i in cls] == list(alone.pi)
            assert all(type(x) is Fraction for x in vertex)
            assert all(vertex[i] == 0 for i in range(len(rows))
                       if i not in cls)


def test_closed_classes_get_no_second_class_pass(monkeypatch):
    import equilib.equilibrium as equilibrium

    sizes = []
    classes = equilibrium._classes

    def counting(rows):
        sizes.append(len(rows))
        return classes(rows)

    monkeypatch.setattr(equilibrium, "_classes", counting)
    rows = [[F(1, 2), F(1, 2), 0, 0], [F(1, 3), F(2, 3), 0, 0],
            [0, 0, 0, 1], [0, 0, 1, 0]]
    report = equilibrium_polytope(rows)
    assert len(report.vertex_equilibria) == 2
    assert sizes == [4]


# --- graph adjacency entries ------------------------------------------------

@pytest.mark.parametrize("bad, shown", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    ("a", "'a'"), (None, "None"), (1.5, "1.5"), ([1], "[1]"),
    (True, "True"), (False, "False"),
    # a string count is ASCII digits with an optional sign, nothing else
    ("1_0", "'1_0'"), (" 1", "' 1'"), ("1 ", "'1 '"), ("\u0661", "'\u0661'"),
    ("", "''"), ("+", "'+'"),
])
def test_graph_entries_that_are_not_integers_are_located(bad, shown):
    with pytest.raises(ValueError, match=_exactly(
            f"adjacency entry (2, 1) = {shown} is not an integer")):
        Graph([[0, 1], [bad, 0]])


def test_graph_string_counts_with_a_sign_are_read():
    assert Graph([["0", "+2"], ["007", "0"]]).adjacency == [[0, 2], [7, 0]]
    with pytest.raises(ValueError, match=_exactly(
            "adjacency entry (1, 2) is negative")):
        Graph([["0", "-1"], ["1", "0"]])


def test_graph_accepts_integral_floats_and_numpy_integers():
    g = Graph(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert g.adjacency == [[0, 2], [1, 0]]
    assert all(type(x) is int for row in g.adjacency for x in row)
    g = Graph([[np.int64(0), np.int32(3)], [np.int8(1), 0]])
    assert g.adjacency == [[0, 3], [1, 0]]


def test_graph_rejects_ragged_and_negative_rows():
    with pytest.raises(ValueError,
                       match=_exactly("row 2 has 1 entries, expected 2")):
        Graph([[0, 1], [1]])
    with pytest.raises(ValueError,
                       match=_exactly("adjacency entry (1, 2) is negative")):
        Graph([[0, -1], [1, 0]])
