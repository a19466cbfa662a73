from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilib import (
    Graph,
    StochasticMatrix,
    adjugate,
    as_float_array,
    clear_denominators,
    determinant,
    identity_matrix,
    int_determinant,
    is_z_matrix,
    matrix_mode,
    minor,
    minor_weights,
    principal_minor,
)
from support import det_cofactor, make_rng, random_stochastic_rows

F = Fraction

TRIDIAG = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


# --- determinant ----------------------------------------------------------

def test_determinant_identity():
    assert determinant(identity_matrix(3)) == 1


def test_determinant_row_swap():
    assert determinant([[0, 1], [1, 0]]) == -1


def test_determinant_tridiagonal():
    expected = det_cofactor(TRIDIAG)
    assert expected == 4
    assert determinant(TRIDIAG) == 4


def test_determinant_empty_matrix_is_one():
    assert determinant(np.zeros((0, 0))) == 1.0
    assert int_determinant([]) == 1


def test_determinant_singular_integer_matrix():
    assert determinant([[1, 2], [2, 4]]) == 0
    assert int_determinant([[1, 2], [2, 4]]) == 0
    # a zero row below the first pivot, and a zero column past it
    assert int_determinant([[2, 1, 3], [0, 0, 0], [4, 5, 7]]) == 0
    assert int_determinant([[2, 0, 3], [1, 0, 5], [4, 0, 7]]) == 0


def test_int_determinant_rejects_a_ragged_matrix():
    with pytest.raises(ValueError, match="^matrix must be square$"):
        int_determinant([[1, 2], [3]])


def test_exact_determinant_matches_cofactor_oracle():
    rng = make_rng(201)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)]
        assert determinant(rows) == det_cofactor(rows)


def test_exact_determinant_zero_dense_matrices():
    # lots of zeros stress the pivot-search and row-swap paths
    rng = make_rng(202)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[F(rng.choice((0, 0, 0, rng.randint(-5, 5))))
                 for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == det_cofactor(rows)


def test_float_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = rng.normal(size=(n, n))
        oracle = float(det_cofactor([list(r) for r in m]))
        assert determinant(m) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_float_determinant_structural_zero():
    # second row is an exact copy of the first
    m = np.array([[0.3, 0.7], [0.3, 0.7]])
    assert determinant(m) == 0.0


def test_empty_list_is_the_0x0_matrix():
    assert determinant([]) == 1
    assert adjugate([]).shape == (0, 0)
    with pytest.raises(ValueError,
                       match="a stochastic matrix needs at least one state"):
        StochasticMatrix([])
    with pytest.raises(ValueError, match="a graph needs at least one node"):
        Graph([])


def test_float_determinant_near_singularity_is_its_rounded_value():
    # no threshold: these floats have determinant 2 * 5 * 2^-52, not 0
    m = [[1.0, 1.0, 0.0], [1.0, 1 + 1e-15, 0.0], [0.0, 0.0, 2.0]]
    exact = [[F(x) for x in row] for row in m]

    def cofactor(i, j):
        return (-1) ** (i + j) * det_cofactor(
            [r[:j] + r[j + 1:] for k, r in enumerate(exact) if k != i])

    def close(x, ref):
        return x == ref == 0 or abs(F(x) - ref) <= F(1e-12) * abs(ref)

    two = [row[:2] for row in m[:2]]
    assert determinant(two) == pytest.approx(1.1102230246251565e-15,
                                             rel=1e-12)
    assert close(determinant(m), det_cofactor(exact))
    assert close(minor(m, 2, 2), cofactor(2, 2))
    adj = adjugate(m)
    assert all(close(adj[j][i], cofactor(i, j))
               for i in range(3) for j in range(3))


def test_float_exact_agreement_small_denominators():
    rng = make_rng(55)
    for _ in range(40):
        n = rng.randint(2, 6)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        exact = determinant(rows)
        approx = determinant(np.array([[float(x) for x in r] for r in rows]))
        if exact == 0:
            assert abs(approx) < 1e-9
        else:
            assert abs(approx - float(exact)) <= 1e-10 * abs(float(exact)) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_determinant_multiplicative(n, data):
    ints = st.integers(-5, 5)
    a = [[F(data.draw(ints)) for _ in range(n)] for _ in range(n)]
    b = [[F(data.draw(ints)) for _ in range(n)] for _ in range(n)]
    prod = (np.array(a, dtype=object) @ np.array(b, dtype=object))
    assert determinant(prod) == determinant(a) * determinant(b)


# --- minors ----------------------------------------------------------------

def test_principal_minor_of_2x2_drops_to_entry():
    m = [[F(5), F(7)], [F(11), F(13)]]
    assert principal_minor(m, 0) == 13
    assert principal_minor(m, 1) == 5


def test_principal_minor_of_1x1_is_one():
    assert principal_minor([[F(42)]], 0) == 1


def test_principal_minor_tridiagonal():
    expected = det_cofactor([[2, 0], [0, 2]])
    assert principal_minor(TRIDIAG, 1) == expected == 4


def test_principal_minor_index_out_of_range():
    with pytest.raises(IndexError):
        principal_minor(TRIDIAG, 3)


def test_principal_minor_matches_the_deletion_definition():
    rng = make_rng(77)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        for i in range(n):
            sub = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != i]
            assert principal_minor(rows, i) == det_cofactor(sub)


def test_uniform_three_state_weight():
    # all off-diagonal parameters 1/4: the first weight must be 3/16
    q = r = F(1, 4)
    i_minus_p = [[F(1, 2), -q, -q], [-q, F(1, 2), -q], [-q, -q, F(1, 2)]]
    assert principal_minor(i_minus_p, 0) == F(3, 16)


# --- adjugate ---------------------------------------------------------------

def test_adjugate_identity():
    adj = adjugate(identity_matrix(3))
    assert np.array_equal(adj, identity_matrix(3))


def test_adjugate_2x2_closed_form():
    a, b, c, d = F(2), F(3), F(5), F(7)
    adj = adjugate([[a, b], [c, d]])
    assert [list(r) for r in adj] == [[d, -b], [-c, a]]


def test_adjugate_times_matrix_is_det_times_identity():
    rng = make_rng(31)
    for _ in range(10):
        n = rng.randint(1, 8)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        m = np.array(rows, dtype=object)
        adj = adjugate(m)
        d = determinant(m)
        expected = d * identity_matrix(n)
        assert np.array_equal(adj @ m, expected)
        assert np.array_equal(m @ adj, expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.data())
def test_adjugate_identity_property(n, data):
    ints = st.integers(-4, 4)
    m = np.array([[F(data.draw(ints)) for _ in range(n)] for _ in range(n)],
                 dtype=object)
    assert np.array_equal(adjugate(m) @ m, determinant(m) * identity_matrix(n))


def test_adjugate_large_exact_nonsingular():
    rng = make_rng(400)
    n = 13
    # diagonally dominant, hence nonsingular
    rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = F(40 + i)
    m = np.array(rows, dtype=object)
    assert np.array_equal(adjugate(m) @ m, determinant(m) * identity_matrix(n))


def test_adjugate_large_float_matches_minor_definition():
    rng = np.random.default_rng(3)
    n = 13
    m = rng.normal(size=(n, n)) + 5 * np.eye(n)
    adj = adjugate(m)
    d = determinant(m)
    assert np.allclose(adj @ m, d * np.eye(n), rtol=1e-9, atol=1e-9 * abs(d))


def test_adjugate_of_singular_matrix_uses_minor_path():
    n = 14
    m = np.ones((n, n))  # rank 1, determinants of all 13x13 minors are 0
    adj = adjugate(m)
    assert np.allclose(adj, 0.0)


def test_adjugate_of_i_minus_p_has_weight_rows():
    # for an irreducible chain, adjugate(I - P) is rank one with every row
    # equal to the weight vector
    rng = make_rng(91)
    for _ in range(10):
        n = rng.randint(2, 6)
        sm = StochasticMatrix(random_stochastic_rows(rng, n,
                                                     strictly_positive=True))
        adj = adjugate(sm.i_minus_p())
        w = minor_weights(sm)
        for i in range(n):
            assert list(adj[i]) == list(w)


# --- Z-matrix checks --------------------------------------------------------

def test_i_minus_p_is_z_matrix():
    rng = make_rng(13)
    for _ in range(20):
        n = rng.randint(1, 6)
        sm = StochasticMatrix(random_stochastic_rows(rng, n))
        assert is_z_matrix(sm.i_minus_p())


def test_identity_is_z_matrix():
    assert is_z_matrix(identity_matrix(3))
    assert is_z_matrix(np.eye(3))


def test_positive_off_diagonal_is_not_z():
    assert not is_z_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert not is_z_matrix([[F(1), F(1, 2)], [F(0), F(1)]])


def test_z_matrix_minors_of_i_minus_p_are_nonnegative():
    rng = make_rng(17)
    for _ in range(30):
        n = rng.randint(1, 7)
        sm = StochasticMatrix(random_stochastic_rows(rng, n))
        a = sm.i_minus_p()
        for i in range(n):
            assert principal_minor(a, i) >= 0


# --- clear_denominators -----------------------------------------------------

def test_clear_denominators_scales_rows_to_integers():
    rows, factors = clear_denominators(
        np.array([[F(1, 2), F(1, 3)], [F(2), F(5, 4)]], dtype=object))
    assert factors == [6, 4]
    assert rows == [[3, 2], [8, 5]]


# --- StochasticMatrix validation --------------------------------------------

def test_stochastic_rejects_negative_entry():
    with pytest.raises(ValueError, match="row 2, column 1"):
        StochasticMatrix([[F(1), F(0)], [F(-1, 2), F(3, 2)]])


def test_stochastic_rejects_bad_row_sum():
    with pytest.raises(ValueError, match="row 1"):
        StochasticMatrix([[F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)]])
    with pytest.raises(ValueError, match="row 1"):
        StochasticMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_stochastic_float_clamps_and_renormalizes():
    sm = StochasticMatrix(np.array([[1.0 + 3e-10, -1e-13], [0.25, 0.75]]))
    assert sm.mode == "float"
    assert sm.p.min() >= 0.0
    assert np.allclose(sm.p.sum(axis=1), 1.0)


def test_as_float_array_converts_any_scalars_to_float64():
    a = as_float_array([[F(1, 2), 1], [Decimal("0.25"), np.int64(3)]])
    assert a.dtype == np.float64
    assert a.tolist() == [[0.5, 1.0], [0.25, 3.0]]


def test_mode_inference():
    exact = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1), F(0)]])
    assert exact.mode == "exact"
    assert matrix_mode(exact.p) == "exact"
    floaty = StochasticMatrix([[0.5, 0.5], [1.0, 0.0]])
    assert floaty.mode == "float"
    assert np.array_equal(floaty.i_minus_p(), np.eye(2) - floaty.p)
    assert exact.to_float().mode == "float"
    assert floaty.to_exact().mode == "exact"
    assert exact.to_exact() is exact and floaty.to_float() is floaty
    assert repr(exact) == "StochasticMatrix(n=2, mode='exact')"
    assert repr(floaty) == "StochasticMatrix(n=2, mode='float')"


def test_to_exact_rows_sum_to_one_next_to_the_float_entries():
    # float rows that sum to 1 in floating point, but rarely as rationals
    rng = make_rng(4421)
    matrices = [[[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [1 / 3, 1 / 3, 1 / 3]]]
    for _ in range(200):
        n = rng.randint(2, 8)
        rows = [[0.0 if rng.random() < 0.3 else rng.random()
                 for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] += 0.01  # no row is all zero
        matrices.append([[x / sum(row) for x in row] for row in rows])
    for rows in matrices:
        floaty = StochasticMatrix(rows)
        exact = floaty.to_exact()
        assert exact.mode == "exact"
        for row, float_row in zip(exact.p, floaty.p):
            assert sum(row) == 1
            for x, y in zip(row, float_row):
                assert abs(x - F(y)) <= F(1, 10 ** 15) * F(y)


def test_minor_full_matrix_by_index():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert minor(m, 0, 1) == 3
    assert minor(m, 1, 0) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_stochastic_rejects_non_finite_entry(bad):
    with pytest.raises(ValueError,
                       match="entry at row 2, column 1 is not finite"):
        StochasticMatrix([[0.5, 0.5], [bad, 1.0]])
    with pytest.raises(ValueError,
                       match="entry at row 2, column 1 is not finite"):
        StochasticMatrix(np.array([[0.5, 0.5], [bad, 1.0]]), mode="exact")


@pytest.mark.parametrize("bad", ["NaN", "sNaN", "Infinity", "-Infinity"])
def test_stochastic_locates_a_non_finite_decimal_entry(bad):
    with pytest.raises(ValueError,
                       match="^entry at row 2, column 1 is not finite$"):
        StochasticMatrix([[F(1, 2), F(1, 2)], [Decimal(bad), 1]])
    # float mode converts with numpy, which cannot convert a signaling NaN
    with pytest.raises(ValueError,
                       match="^entry at row 2, column 1 is not finite$"):
        StochasticMatrix([[0.5, 0.5], [Decimal(bad), 1]], mode="float")


# --- coercion at the public entry point only ----------------------------------

def _six_by_six(rng, singular):
    rows = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
            for _ in range(6)]
    if singular:
        rows[5] = [a - 2 * b for a, b in zip(rows[1], rows[3])]
    return np.array(rows, dtype=object)


@pytest.mark.parametrize("singular", [False, True])
def test_adjugate_identity_on_exact_6x6(singular):
    m = _six_by_six(make_rng(4103 + singular), singular)
    d = determinant(m)
    assert (d == 0) == singular
    adj = adjugate(m)
    assert all(type(x) is Fraction for x in adj.flat)
    assert np.array_equal(adj @ m, d * identity_matrix(6))
    assert np.array_equal(m @ adj, d * identity_matrix(6))


def test_minor_determinant_and_adjugate_coerce_once(monkeypatch):
    import equilib.matrix_core as matrix_core

    calls = []
    square = matrix_core._square

    def counting(data, mode=None):
        calls.append(np.shape(data))
        return square(data, mode)

    monkeypatch.setattr(matrix_core, "_square", counting)
    m = _six_by_six(make_rng(4105), singular=False)
    adjugate(m)
    minor(m, 2, 3)
    determinant(m)
    StochasticMatrix([[F(1, 2), F(1, 2)], [F(1), F(0)]])
    assert calls == [(6, 6)] * 3 + [(2, 2)]
