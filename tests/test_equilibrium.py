from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilib import (
    matrix_from_bands,
    minor_weights,
    relative_probability,
    stationary,
    verify_equilibrium,
)
from support import (
    make_rng,
    permute_rows,
    permute_vector,
    random_permutation,
    random_stochastic_rows,
    random_structured_rows,
    stationary_reference,
)

F = Fraction


def two_state(p, q):
    return [[1 - p, p], [q, 1 - q]]


# --- minor_weights -----------------------------------------------------------

def test_two_state_weights_are_swapped_leaving_rates():
    p, q = F(1, 5), F(2, 7)
    assert list(minor_weights(two_state(p, q))) == [q, p]


def test_identity_chain_has_zero_weights():
    w = minor_weights([[F(1), F(0), F(0)],
                       [F(0), F(1), F(0)],
                       [F(0), F(0), F(1)]])
    assert list(w) == [0, 0, 0]


def test_three_state_weights_derived_case():
    sm = matrix_from_bands([[F(1, 2), F(0)], [F(0), F(1, 3)],
                            [F(1, 4), F(0)]])
    assert list(minor_weights(sm)) == [F(1, 12), F(1, 8), F(0)]


def test_weights_nonnegative_on_random_chains():
    rng = make_rng(5)
    for _ in range(40):
        rows = random_structured_rows(rng, max_n=6)
        assert all(x >= 0 for x in minor_weights(rows))


# --- stationary --------------------------------------------------------------

def test_two_state_stationary():
    res = stationary(two_state(F(1, 3), F(2, 3)))
    assert res.unique
    assert list(res.pi) == [F(2, 3), F(1, 3)]


def test_symmetric_three_state_is_uniform():
    q = F(1, 4)
    rows = [[F(1, 2), q, q], [q, F(1, 2), q], [q, q, F(1, 2)]]
    res = stationary(rows)
    assert list(res.pi) == [F(1, 3)] * 3


def test_three_state_derived_case_matches_reference_solver():
    sm = matrix_from_bands([[F(1, 2), F(0)], [F(0), F(1, 3)],
                            [F(1, 4), F(0)]])
    rows = [list(r) for r in sm.p]
    expected = stationary_reference(rows)
    assert expected == [F(2, 5), F(3, 5), F(0)]
    res = stationary(sm)
    assert list(res.pi) == expected


def test_two_absorbing_states_is_degenerate():
    rows = [[F(1), F(0), F(0)],
            [F(1, 3), F(1, 3), F(1, 3)],
            [F(0), F(0), F(1)]]
    res = stationary(rows)
    assert not res.unique
    assert res.pi is None
    verts = [list(v) for v in res.decomposition.vertex_equilibria]
    assert verts == [[1, 0, 0], [0, 0, 1]]


def test_single_state_chain():
    res = stationary([[F(1)]])
    assert res.unique
    assert list(res.pi) == [F(1)]


def test_stationary_fixed_point_identity_exact():
    rng = make_rng(23)
    for _ in range(30):
        rows = random_structured_rows(rng, max_n=6)
        res = stationary(rows)
        if res.unique:
            assert verify_equilibrium(res.pi, rows) == 0
            assert sum(res.pi) == 1
            assert all(x >= 0 for x in res.pi)


def test_degeneracy_matches_closed_class_count():
    from equilib import communicating_classes

    rng = make_rng(29)
    for _ in range(60):
        rows = random_structured_rows(rng, max_n=6)
        res = stationary(rows)
        n_closed = communicating_classes(rows).n_closed
        assert res.unique == (n_closed == 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_permutation_equivariance(n, pyrandom):
    rng = make_rng(pyrandom.randint(0, 10 ** 9))
    rows = random_stochastic_rows(rng, n, strictly_positive=True)
    sigma = random_permutation(rng, n)
    res = stationary(rows)
    res_perm = stationary(permute_rows(rows, sigma))
    assert list(res_perm.pi) == permute_vector(list(res.pi), sigma)


def test_float_mode_agrees_with_exact():
    rng = make_rng(37)
    for _ in range(20):
        n = rng.randint(2, 8)
        rows = random_stochastic_rows(rng, n, strictly_positive=True)
        exact_pi = stationary(rows).pi
        float_rows = np.array([[float(x) for x in r] for r in rows])
        float_pi = stationary(float_rows).pi
        diff = max(abs(float(a) - b) for a, b in zip(exact_pi, float_pi))
        assert diff <= 1e-10


def test_float_structural_check_near_identity():
    # weights are tiny but the chain is structurally irreducible, so the
    # combinatorial answer wins and the result is unique
    eps = 1e-13
    res = stationary(np.array([[1 - eps, eps], [eps, 1 - eps]]))
    assert res.unique
    assert res.pi == pytest.approx([0.5, 0.5])


def test_float_reducible_chain_is_degenerate():
    res = stationary(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not res.unique
    assert len(res.decomposition.vertex_equilibria) == 2


# --- relative_probability ------------------------------------------------------

def test_relative_probability_two_state():
    p, q = F(1, 6), F(3, 7)
    assert relative_probability(two_state(p, q), 0, 1) == q / p


def test_relative_probability_same_state_is_one():
    rng = make_rng(41)
    rows = random_stochastic_rows(rng, 4, strictly_positive=True)
    assert relative_probability(rows, 2, 2) == 1


def test_relative_probability_derived_case():
    sm = matrix_from_bands([[F(1, 2), F(0)], [F(0), F(1, 3)],
                            [F(1, 4), F(0)]])
    assert relative_probability(sm, 0, 1) == F(2, 3)


def test_relative_probability_zero_weight_raises():
    sm = matrix_from_bands([[F(1, 2), F(0)], [F(0), F(1, 3)],
                            [F(1, 4), F(0)]])
    with pytest.raises(ZeroDivisionError):
        relative_probability(sm, 0, 2)


@pytest.mark.parametrize("i, j, bad", [(-1, 0, -1), (0, -1, -1), (5, 0, 5),
                                       (0, 3, 3)])
def test_relative_probability_rejects_indices_outside_the_chain(i, j, bad):
    rows = [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 3), F(1, 3), F(1, 3)],
            [F(1, 5), F(2, 5), F(2, 5)]]
    for chain in (rows, np.array(rows, dtype=float)):
        with pytest.raises(ValueError,
                           match=rf"^state index {bad} outside 0\.\.2$"):
            relative_probability(chain, i, j)



@pytest.mark.parametrize("i, j, bad", [(1.5, 0, "1.5"), (True, 0, "True"),
                                       (0, False, "False"),
                                       (np.float64(1), 0, "1.0")])
def test_relative_probability_rejects_indices_that_are_not_integers(i, j,
                                                                    bad):
    rows = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]
    for chain in (rows, np.array(rows, dtype=float)):
        with pytest.raises(ValueError,
                           match=rf"^state index {bad} is not an integer$"):
            relative_probability(chain, i, j)


def test_relative_probability_takes_numpy_integer_indices():
    rows = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]
    assert relative_probability(rows, np.int64(1), np.int32(0)) == F(3, 2)

# --- verify_equilibrium ---------------------------------------------------------

def test_verify_exact_stationary_residual_is_zero():
    rows = two_state(F(1, 3), F(2, 3))
    res = stationary(rows)
    assert verify_equilibrium(res.pi, rows) == 0


def test_verify_uniform_on_doubly_stochastic():
    q = F(1, 4)
    rows = [[F(1, 2), q, q], [q, F(1, 2), q], [q, q, F(1, 2)]]
    assert verify_equilibrium([F(1, 3)] * 3, rows) == 0


def test_verify_float_residual_small_on_random_8x8():
    rng = make_rng(43)
    rows = random_stochastic_rows(rng, 8, strictly_positive=True)
    m = np.array([[float(x) for x in r] for r in rows])
    res = stationary(m)
    assert verify_equilibrium(res.pi, m) <= 1e-12


def test_verify_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_equilibrium([F(1)], two_state(F(1, 3), F(2, 3)))
    # a vector's length, not its shape; an input that is not 1-D has a shape
    with pytest.raises(ValueError, match="^vector of length 3 does not "
                       "match n=2$"):
        verify_equilibrium([1, 0, 0], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"^vector of length \(1, 2\) does "
                       "not match n=2$"):
        verify_equilibrium([[1, 0]], [[1, 0], [0, 1]])


def test_verify_detects_non_equilibrium():
    rows = two_state(F(1, 3), F(2, 3))
    assert verify_equilibrium([F(1, 2), F(1, 2)], rows) == F(1, 6)


# --- matrix_from_bands -----------------------------------------------------------

def test_banded_layout_three_states():
    sm = matrix_from_bands([[F(1, 8), F(1, 4)], [F(1, 3), F(1, 5)],
                            [F(1, 7), F(1, 2)]])
    p1, p2 = F(1, 8), F(1, 4)
    q1, q2 = F(1, 3), F(1, 5)
    r1, r2 = F(1, 7), F(1, 2)
    expected = [[1 - p1 - p2, p1, p2],
                [q2, 1 - q1 - q2, q1],
                [r1, r2, 1 - r1 - r2]]
    assert [list(r) for r in sm.p] == expected


def test_banded_layout_wraps_cyclically():
    bands = [[F(1, 9), F(1, 8), F(1, 7)],
             [F(1, 6), F(1, 5), F(1, 4)],
             [F(1, 10), F(1, 11), F(1, 12)],
             [F(1, 13), F(1, 14), F(1, 15)]]
    sm = matrix_from_bands(bands)
    for i in range(4):
        for k in range(1, 4):
            assert sm.p[i, (i + k) % 4] == bands[i][k - 1]
        assert sm.p[i, i] == 1 - sum(bands[i])
