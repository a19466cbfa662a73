"""Fuzzing of the library's public entry points.

Matrices, band parameters, vectors, epsilons, state indices and edge lists
are built from ints, Fractions, floats (NaN and infinities too), Decimals
(a signaling NaN too), numpy scalars, strings, booleans, complex numbers,
``None`` and nested lists, with some valid values among them so that some
calls get past the entry checks.  Every call must return a result or raise
a ``ValueError`` whose message names the entry, the parameter or the index
it refuses.  The only other exception allowed is the documented
``ZeroDivisionError`` of :func:`relative_probability`.
"""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from equilib import (
    Graph,
    StochasticMatrix,
    closed_form_2,
    closed_form_3,
    closed_form_4,
    closed_form_5,
    determinant,
    matrix_from_bands,
    perturb,
    relative_probability,
    verify_equilibrium,
)

# the huge values ask for numbers of millions of digits: a reader that
# builds the exact value first hangs on them
HUGE = ["1e100000000", "-1e10000000", "1e-100000000",
        Decimal("1e100000000"), 10 ** 400, 10 ** 5000]
BAD = [None, True, False, np.True_, 0.5 + 0j, complex(1, 0), "1/0", "x", "",
       float("nan"), float("inf"), -float("inf"), Decimal("NaN"),
       Decimal("Infinity"), Decimal("-Infinity"), Decimal("sNaN"), [0.5],
       [[1]], [], *HUGE]
GOOD = [0, 1, -1, 2, 0.5, 0.25, 1.0, 0.0, Fraction(1, 2), Fraction(1, 3),
        Fraction(2, 3), "1/2", "1/3", "0.5", "2/3", Decimal("0.5"),
        np.float64(0.5), np.float32(0.5), np.int64(1), np.int64(0)]

scalars = st.one_of(st.sampled_from(GOOD), st.sampled_from(BAD),
                    st.integers(-2, 3),
                    st.floats(allow_nan=True, allow_infinity=True))

# whole rows that are valid, so that some matrices get past their entries
VALID_ROWS = {
    1: [[1], [Fraction(1)], [1.0], ["1"]],
    2: [[1, 0], [0, 1], ["1/2", "1/2"], [0.25, 0.75],
        [Fraction(1, 3), Fraction(2, 3)]],
    3: [[1, 0, 0], [0, 1, 0], ["1/3", "1/3", "1/3"], [0, 0.5, 0.5],
        [Fraction(1, 2), 0, Fraction(1, 2)]],
}


def square(n):
    row = st.one_of(st.sampled_from(VALID_ROWS[n]),
                    st.lists(scalars, min_size=n, max_size=n))
    return st.lists(row, min_size=n, max_size=n)


matrices = st.sampled_from(sorted(VALID_ROWS)).flatmap(square)
modes = st.sampled_from([None, "exact", "float"])

CHAIN = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]]
chains = st.sampled_from([CHAIN, [[0.5, 0.5], [0.25, 0.75]],
                          [[1, 0], [0, 1]], [[0, 1], [1, 0]]])

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

ENTRY = r"entry at row \d+, column \d+ "
MATRIX = (rf"{ENTRY}|negative {ENTRY[:-1]}$|row \d+ sums to |"
          r"row \d+ has \d+ entries, expected \d+$")


def result_or_located(call, place, allowed=()):
    """Run ``call``; a ``ValueError`` must start with the regex ``place``."""
    try:
        call()
    except allowed:
        pass
    except ValueError as exc:
        assert re.match(place, str(exc)), str(exc)


@FUZZ
@given(rows=matrices, mode=modes)
def test_stochastic_matrix_entries_are_read_or_located(rows, mode):
    result_or_located(lambda: StochasticMatrix(rows, mode=mode), MATRIX)
    result_or_located(lambda: determinant(rows), MATRIX)


@FUZZ
@given(rows=matrices)
def test_graph_adjacency_is_read_or_located(rows):
    result_or_located(lambda: Graph(rows),
                      r"adjacency entry \(\d+, \d+\) |row \d+ has ")


edges = st.lists(st.one_of(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), scalars),
    st.lists(st.one_of(st.integers(-1, 3), scalars), max_size=4),
    scalars), max_size=5)
node_counts = st.one_of(st.integers(0, 3),
                        st.sampled_from([2.0, True, None, "2", np.int64(2),
                                         Fraction(2), 0.5 + 0j]))


@FUZZ
@given(n=node_counts, edge_list=edges)
def test_graph_edges_are_read_or_located(n, edge_list):
    result_or_located(
        lambda: Graph.from_edges(n, edge_list),
        r"edge |node count |node index \d+ has zero out-degree|"
        r"adjacency entry \(\d+, \d+\) |a graph needs at least one node$")


bands = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.sampled_from([0, Fraction(1, 4), 0.25]), scalars),
             min_size=n - 1, max_size=n - 1), min_size=n, max_size=n))


@FUZZ
@given(band_rows=bands, mode=modes)
def test_band_parameters_are_read_or_located(band_rows, mode):
    result_or_located(lambda: matrix_from_bands(band_rows, mode),
                      rf"parameter \d+ of row \d+ |{MATRIX}")


CLOSED_FORMS = {2: closed_form_2, 3: closed_form_3, 4: closed_form_4,
                5: closed_form_5}
parameters = st.sampled_from(sorted(CLOSED_FORMS)).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.one_of(st.sampled_from([0, Fraction(1, 8), 0.125, "1/8"]),
                  scalars),
        min_size=n * (n - 1), max_size=n * (n - 1))))


@FUZZ
@given(case=parameters)
def test_closed_form_parameters_are_read_or_located(case):
    n, values = case
    result_or_located(lambda: CLOSED_FORMS[n](*values),
                      r"parameter [pqrst]\d |row parameters [pqrst]1\.\.")


indices = st.one_of(st.integers(-1, 2), scalars)


@FUZZ
@given(p=chains, epsilon=st.one_of(st.sampled_from(
    [Fraction(1, 10), 0.1, "1/10", Decimal("0.1")]), scalars),
    i=indices, j=indices)
def test_epsilon_and_state_indices_are_read_or_located(p, epsilon, i, j):
    result_or_located(lambda: perturb(p, epsilon), r"epsilon ")
    result_or_located(lambda: relative_probability(p, i, j),
                      r"state index ", allowed=ZeroDivisionError)


vectors = st.one_of(
    st.lists(st.one_of(st.sampled_from([Fraction(2, 5), 0.4, "3/5"]),
                       scalars), min_size=2, max_size=2),
    st.lists(scalars, max_size=3))


@FUZZ
@given(p=chains, pi=vectors)
def test_vector_entries_are_read_or_located(p, pi):
    result_or_located(lambda: verify_equilibrium(pi, p),
                      r"vector entry \d+ |vector of length ")
