"""The explicit 2..5-state formulas against the general minor machinery.

The expanded weight polynomials live in support_polynomials as transcribed
monomial lists; symbolic checks prove the transcriptions equal the actual
principal minors, and numeric probes prove the production code equals the
transcriptions.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilib import (
    closed_form_2,
    closed_form_3,
    closed_form_4,
    closed_form_5,
    matrix_from_bands,
    minor_weights,
    stationary,
)
from support import (
    exact_rows_of,
    in_tree_weights,
    make_rng,
    random_band_params,
    stationary_reference,
)
from support_polynomials import (
    FIVE_STATE_W1_TERMS,
    FOUR_STATE_W1_TERMS,
    FOUR_STATE_W2_TERMS,
    FOUR_STATE_W3_TERMS,
    FOUR_STATE_W4_TERMS,
    evaluate_terms,
)

F = Fraction

THREE_STATE_TERMS = {
    0: (("q1", "r1"), ("q2", "r1"), ("q2", "r2")),
    1: (("r1", "p1"), ("r2", "p1"), ("r2", "p2")),
    2: (("p1", "q1"), ("p2", "q1"), ("p2", "q2")),
}

FOUR_STATE_TERMS = (FOUR_STATE_W1_TERMS, FOUR_STATE_W2_TERMS,
                    FOUR_STATE_W3_TERMS, FOUR_STATE_W4_TERMS)

LETTERS = "pqrst"


def named_params(bands):
    return {f"{LETTERS[i]}{k}": x
            for i, band in enumerate(bands)
            for k, x in enumerate(band, start=1)}


def flat(bands):
    return [x for band in bands for x in band]


# --- symbolic identity of the transcribed polynomials -----------------------

def _symbolic_banded_minor(n, i):
    sympy = pytest.importorskip("sympy")
    syms = {f"{LETTERS[row]}{k}": sympy.Symbol(f"{LETTERS[row]}{k}")
            for row in range(n) for k in range(1, n)}
    m = sympy.zeros(n, n)
    for row in range(n):
        total = 0
        for k in range(1, n):
            s = syms[f"{LETTERS[row]}{k}"]
            m[row, (row + k) % n] = -s
            total += s
        m[row, row] = total
    return m.minor_submatrix(i, i).det(method="berkowitz").expand(), syms


@pytest.mark.parametrize("i", range(3))
def test_three_state_weight_polynomials_are_the_minors(i):
    sympy = pytest.importorskip("sympy")
    minor_poly, syms = _symbolic_banded_minor(3, i)
    transcript = sum(syms[a] * syms[b] for a, b in THREE_STATE_TERMS[i])
    assert sympy.expand(minor_poly - transcript) == 0


@pytest.mark.parametrize("i", range(4))
def test_four_state_weight_polynomials_are_the_minors(i):
    sympy = pytest.importorskip("sympy")
    minor_poly, syms = _symbolic_banded_minor(4, i)
    transcript = sum(syms[a] * syms[b] * syms[c]
                     for a, b, c in FOUR_STATE_TERMS[i])
    assert len(FOUR_STATE_TERMS[i]) == 16
    assert sympy.expand(minor_poly - transcript) == 0


def test_five_state_first_weight_polynomial_is_the_minor():
    sympy = pytest.importorskip("sympy")
    minor_poly, syms = _symbolic_banded_minor(5, 0)
    transcript = sum(syms[a] * syms[b] * syms[c] * syms[d]
                     for a, b, c, d in FIVE_STATE_W1_TERMS)
    assert len(FIVE_STATE_W1_TERMS) == 125
    assert sympy.expand(minor_poly - transcript) == 0


# --- minor_weights reproduces the polynomials on rational probes -------------

def test_three_state_weights_equal_quadratic_polynomials():
    rng = make_rng(301)
    for _ in range(150):
        bands = random_band_params(rng, 3)
        params = named_params(bands)
        w = minor_weights(matrix_from_bands(bands))
        for i in range(3):
            assert w[i] == evaluate_terms(THREE_STATE_TERMS[i], params)


def test_four_state_weights_equal_16_term_polynomials():
    rng = make_rng(302)
    for _ in range(120):
        bands = random_band_params(rng, 4)
        params = named_params(bands)
        w = minor_weights(matrix_from_bands(bands))
        for i in range(4):
            assert w[i] == evaluate_terms(FOUR_STATE_TERMS[i], params)


def test_five_state_first_weight_equals_125_term_polynomial():
    rng = make_rng(303)
    for _ in range(120):
        bands = random_band_params(rng, 5)
        params = named_params(bands)
        w = minor_weights(matrix_from_bands(bands))
        assert w[0] == evaluate_terms(FIVE_STATE_W1_TERMS, params)


# --- two states ---------------------------------------------------------------

def test_two_state_closed_form():
    res = closed_form_2(F(1, 3), F(2, 3))
    assert res.unique
    assert list(res.pi) == [F(2, 3), F(1, 3)]


def test_two_state_identity_is_degenerate():
    res = closed_form_2(F(0), F(0))
    assert not res.unique
    verts = [list(v) for v in res.decomposition.vertex_equilibria]
    assert verts == [[1, 0], [0, 1]]


def test_two_state_small_float_rates_give_even_split():
    res = closed_form_2(1e-6, 1e-6)
    assert res.unique
    assert res.pi == pytest.approx([0.5, 0.5])


def test_two_state_rejects_out_of_range():
    with pytest.raises(ValueError):
        closed_form_2(F(3, 2), F(1, 2))
    with pytest.raises(ValueError):
        closed_form_2(-0.25, 0.5)


# --- three states ----------------------------------------------------------------

def test_three_state_symmetric_is_uniform():
    res = closed_form_3(*[F(1, 4)] * 6)
    assert list(res.pi) == [F(1, 3)] * 3


def test_three_state_derived_case():
    res = closed_form_3(F(1, 2), F(0), F(0), F(1, 3), F(1, 4), F(0))
    assert list(res.pi) == [F(2, 5), F(3, 5), F(0)]
    rows = [list(r) for r in
            matrix_from_bands([[F(1, 2), F(0)], [F(0), F(1, 3)],
                               [F(1, 4), F(0)]]).p]
    assert list(res.pi) == stationary_reference(rows)


def test_three_state_absorbing_middle():
    # no probability leaves state 2, every other state reaches it
    res = closed_form_3(F(1, 4), F(1, 4), F(0), F(0), F(0), F(1, 2))
    assert res.unique
    assert list(res.pi) == [0, 1, 0]


def test_three_state_row_sum_constraint():
    with pytest.raises(ValueError):
        closed_form_3(F(3, 4), F(1, 2), F(0), F(0), F(0), F(0))


# --- four states -----------------------------------------------------------------

def test_four_state_symmetric_is_uniform():
    res = closed_form_4(*[F(1, 6)] * 12)
    assert list(res.pi) == [F(1, 4)] * 4


def test_four_state_matches_general_method():
    rng = make_rng(304)
    for _ in range(200):
        bands = random_band_params(rng, 4)
        res = closed_form_4(*flat(bands))
        general = stationary(matrix_from_bands(bands))
        assert list(res.weights) == list(general.weights)
        assert res.unique == general.unique
        if res.unique:
            assert list(res.pi) == list(general.pi)


def test_four_state_absorbing_last_state():
    res = closed_form_4(F(1, 4), F(1, 8), F(1, 8),
                        F(1, 3), F(1, 6), F(1, 6),
                        F(1, 5), F(1, 5), F(1, 5),
                        F(0), F(0), F(0))
    assert res.unique
    assert list(res.pi) == [0, 0, 0, 1]
    general = stationary(matrix_from_bands(
        [[F(1, 4), F(1, 8), F(1, 8)], [F(1, 3), F(1, 6), F(1, 6)],
         [F(1, 5), F(1, 5), F(1, 5)], [F(0), F(0), F(0)]]))
    assert list(res.pi) == list(general.pi)


# --- five states -----------------------------------------------------------------

def test_five_state_symmetric_is_uniform():
    res = closed_form_5(*[F(1, 8)] * 20)
    assert list(res.pi) == [F(1, 5)] * 5


def test_five_state_matches_general_method():
    rng = make_rng(305)
    for _ in range(60):
        bands = random_band_params(rng, 5)
        res = closed_form_5(*flat(bands))
        general = stationary(matrix_from_bands(bands))
        assert list(res.weights) == list(general.weights)
        assert res.unique == general.unique
        if res.unique:
            assert list(res.pi) == list(general.pi)


# --- shared behavior ---------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_closed_forms_match_minor_method_property(seed):
    # each parameter scaled by 0, 1/3, 2/3 or 1: denominators mix within a
    # row, and zeros make some chains degenerate
    rng = make_rng(seed)
    for n, fn in ((2, closed_form_2), (3, closed_form_3),
                  (4, closed_form_4), (5, closed_form_5)):
        bands = [[x * F(rng.randint(0, 3), 3) for x in band]
                 for band in random_band_params(rng, n)]
        res = fn(*flat(bands))
        general = stationary(matrix_from_bands(bands))
        assert list(res.weights) == list(general.weights)
        assert res.unique == general.unique
        if res.unique:
            assert list(res.pi) == list(general.pi)
        else:
            got, want = res.decomposition, general.decomposition
            assert (got.classes, got.closed_flags, got.transitory_states) \
                == (want.classes, want.closed_flags, want.transitory_states)
            assert [list(v) for v in got.vertex_equilibria] == [
                list(v) for v in want.vertex_equilibria]


def test_numpy_integer_parameters_are_read_as_integers():
    # an np.int32 numerator inside a Fraction used to wrap around in the
    # products and gave a negative pi labelled unique
    bands = [[F(19109, 63327), F(1000, 21109), F(0)],
             [F(291, 4054), np.int32(0), F(960, 2027)],
             [F(3, 8), F(0), F(0)], [F(8, 17), F(3, 17), F(0)]]
    res = closed_form_4(*flat(bands))
    general = stationary(matrix_from_bands(bands))
    assert list(res.weights) == list(general.weights)
    assert list(res.pi) == list(general.pi)
    assert all(type(x) is F and x > 0 for x in res.pi)


def test_float_parameters_give_float_results():
    res = closed_form_3(0.5, 0.0, 0.0, 1 / 3, 0.25, 0.0)
    assert res.unique
    assert res.pi == pytest.approx([0.4, 0.6, 0.0], abs=1e-12)


@pytest.mark.parametrize("fn, params, message", [
    (closed_form_3, [F(3, 4), F(1, 2), 0, 0, 0, 0],
     "row parameters p1..p2 sum to 5/4, must be at most 1"),
    (closed_form_5, [0] * 4 + [F(1, 2)] * 4 + [0] * 12,
     "row parameters q1..q4 sum to 2, must be at most 1"),
    # within the float slack of every parameter, not of the row sum
    (closed_form_3, [0.5, 0.5 + 1e-10, 0, 0, 0, 0],
     "row parameters p1..p2 sum to 1.0000000001, must be at most 1"),
    (closed_form_2, [0.25, 1 + 1e-11], "parameter q1 = 1.00000000001 "
     "outside [0, 1]"),
    # exact parameters are checked on the integer-cleared rows
    (closed_form_3, [F(1, 4), 0, F(1, 3), F(-1, 4), 0, 0],
     "parameter q2 = -1/4 outside [0, 1]"),
    (closed_form_2, ["3/2", 0], "parameter p1 = 3/2 outside [0, 1]"),
    (closed_form_4, [0] * 6 + [F(1, 2), F(1, 3), F(1, 4)] + [0] * 3,
     "row parameters r1..r3 sum to 13/12, must be at most 1"),
])
def test_band_errors_name_the_parameters(fn, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(*params)


@pytest.mark.parametrize("n, fn", [(3, closed_form_3), (4, closed_form_4),
                                   (5, closed_form_5)])
def test_float_cycles_with_tiny_steps_are_uniform(n, fn):
    # the formula weights are step^(n-1), mostly below the smallest float
    for step in (1e-200, 1e-120, 1e-90):
        res = fn(*flat([[step] + [0.0] * (n - 2)] * n))
        assert res.unique
        assert np.isfinite(res.pi).all()
        assert np.max(np.abs(res.pi * n - 1.0)) <= 1e-12


def test_float_bands_near_1e_150_keep_relative_accuracy():
    # a weight sums products of n - 1 parameters, down to 1e-600 here
    rng = make_rng(306)
    for n, fn in ((4, closed_form_4), (5, closed_form_5)):
        for _ in range(30):
            bands = [[rng.uniform(0.5, 1.0) / n * rng.choice((1.0, 1e-150))
                      for _ in range(n - 1)] for _ in range(n)]
            res = fn(*flat(bands))
            ref = stationary_reference(exact_rows_of(
                matrix_from_bands(bands).p))
            assert res.unique
            assert max(abs(F(float(x)) - r) / r
                       for x, r in zip(res.pi, ref)) <= 1e-12


def test_float_closed_forms_take_the_solve_path():
    rng = make_rng(307)
    for n, fn in ((2, closed_form_2), (3, closed_form_3),
                  (4, closed_form_4), (5, closed_form_5)):
        for _ in range(40):
            # each parameter scaled by 1, 1e-50 or 1e-150; small denominators
            # give zeros, and 19 of these 160 chains are degenerate
            bands = [[float(x) * rng.choice((1.0, 1e-50, 1e-150))
                      for x in band]
                     for band in random_band_params(rng, n, max_den=2)]
            res = fn(*flat(bands))
            general = stationary(matrix_from_bands(bands))
            assert res.unique == general.unique
            if res.unique:
                assert res.pi.tobytes() == general.pi.tobytes()
            else:
                assert [v.tobytes() for v in
                        res.decomposition.vertex_equilibria] == [
                    v.tobytes() for v in
                    general.decomposition.vertex_equilibria]


def test_float_five_state_weights_vanish_by_structure():
    # an LU of a transitory state's minor may round to 1e-16 instead of 0;
    # the class structure sets that weight to 0
    rng = make_rng(308)
    for _ in range(40):
        bands = [[float(x) for x in band]
                 for band in random_band_params(rng, 5, max_den=4)]
        res = closed_form_5(*flat(bands))
        exact = in_tree_weights(matrix_from_bands(
            [[F(x) for x in band] for band in bands]).p.tolist())
        for w, ref in zip(res.weights, exact):
            assert w == 0.0 if ref == 0 else abs(F(w) - ref) <= 1e-10 * ref


def test_float_five_state_weights_keep_relative_accuracy():
    # float weights come from the GTH kernel, not from LU determinants of
    # the banded minors, whose diagonals cancel against parameters 1e8
    # times smaller
    rng = make_rng(9)
    for _ in range(200):
        bands = [[float(x) * rng.choice((1.0, 1e-8)) for x in band]
                 for band in random_band_params(rng, 5)]
        res = closed_form_5(*flat(bands))
        exact = in_tree_weights(exact_rows_of(matrix_from_bands(bands).p))
        for w, ref in zip(res.weights, exact):
            assert w == 0.0 if ref == 0 else abs(F(w) - ref) <= 1e-12 * ref


def test_band_row_of_the_wrong_length_is_named():
    with pytest.raises(ValueError,
                       match="row 2 needs 1 off-diagonal parameters"):
        matrix_from_bands([[0.5], [0.25, 0.25]])


def test_exact_bands_from_floats_are_read_exactly():
    # each diagonal is the exact complement of the float parameters, not
    # the float 1 - 0.1 read afterwards
    p = matrix_from_bands([[0.1], [0.2]], mode="exact").p
    assert p.tolist() == [[1 - F(0.1), F(0.1)], [F(0.2), 1 - F(0.2)]]
    # the float 0.2 is twice the float 0.1 exactly
    assert list(stationary(p).pi) == [F(2, 3), F(1, 3)]
    # float and inferred modes keep the float diagonal
    for mode in (None, "float"):
        assert matrix_from_bands([[0.1], [0.2]], mode=mode).p.tolist() == [
            [1 - 0.1, 0.1], [0.2, 1 - 0.2]]
