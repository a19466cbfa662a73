from fractions import Fraction

import numpy as np
import pytest

from equilib import (
    communicating_classes,
    linear_solve_stationary,
    perturb,
    power_method,
    stationary,
    SingularSystemError,
    verify_equilibrium,
)
from support import (
    make_rng,
    random_stochastic_rows,
    random_structured_rows,
    stationary_reference,
)

F = Fraction


def random_positive_float(rng, n):
    m = rng.uniform(0.05, 1.0, size=(n, n))
    return m / m.sum(axis=1, keepdims=True)


# --- power_method -------------------------------------------------------------

def test_power_method_on_positive_matrix_matches_minors():
    rng = np.random.default_rng(11)
    m = random_positive_float(rng, 4)
    report = power_method(m, tol=1e-12)
    assert report.converged
    assert report.final_spread <= 1e-12
    pi = stationary(m).pi
    assert np.max(np.abs(report.pi_estimate - pi)) <= 1e-10


def test_power_method_swap_matrix_does_not_converge():
    report = power_method([[0.0, 1.0], [1.0, 0.0]])
    assert not report.converged
    assert report.final_spread == 1.0


def test_power_method_identity_does_not_converge():
    report = power_method(np.eye(3))
    assert not report.converged
    # squaring changes nothing, so the loop exits immediately
    assert report.iterations == 1
    assert report.pi_estimate == pytest.approx([1 / 3] * 3)


def test_power_method_rank_one_input_converges_instantly():
    pi = np.array([0.2, 0.3, 0.5])
    m = np.tile(pi, (3, 1))
    report = power_method(m)
    assert report.converged
    assert report.iterations == 0
    assert report.pi_estimate == pytest.approx(pi)


def test_power_method_counts_squarings():
    rng = np.random.default_rng(21)
    m = random_positive_float(rng, 6)
    report = power_method(m, tol=1e-12, max_squarings=60)
    assert 1 <= report.iterations <= 60


def test_power_method_exact_input_is_converted():
    rows = [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]
    report = power_method(rows)
    assert report.converged
    assert report.pi_estimate == pytest.approx([1 / 3, 2 / 3])


# --- perturb --------------------------------------------------------------------

def test_perturbed_identity_has_uniform_stationary():
    for n in (2, 3):
        identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for eps in (F(1, 100), F(1, 10000), F(1, 10 ** 6)):
            res = stationary(perturb(identity, eps))
            assert list(res.pi) == [F(1, n)] * n


def test_perturb_preserves_exact_row_sums():
    rng = make_rng(103)
    rows = random_stochastic_rows(rng, 4)
    mixed = perturb(rows, F(1, 37))
    assert mixed.mode == "exact"
    for row in mixed.p:
        assert sum(row) == 1
        assert all(x > 0 for x in row)


def test_perturb_rejects_out_of_range_epsilon():
    rows = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    for eps in (F(0), F(1), F(-1, 2), F(3, 2), 0.0, 1.0):
        with pytest.raises(ValueError):
            perturb(rows, eps)


def test_perturbation_shift_scales_linearly():
    rng = make_rng(107)
    rows = random_stochastic_rows(rng, 4, strictly_positive=True)
    base = stationary(rows).pi
    shifts = []
    for eps in (F(1, 1000), F(1, 10000)):
        moved = stationary(perturb(rows, eps)).pi
        shifts.append(max(abs(float(a - b)) for a, b in zip(moved, base)))
    assert shifts[1] < shifts[0]
    ratio = shifts[0] / shifts[1]
    assert 5 < ratio < 20


def test_power_method_on_perturbed_chain_always_converges():
    rng = make_rng(109)
    hard_cases = [
        np.eye(4),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float),
    ]
    for _ in range(5):
        n = rng.randint(2, 6)
        rows = random_stochastic_rows(rng, n)
        hard_cases.append(
            np.array([[float(x) for x in row] for row in rows]))
    for m in hard_cases:
        report = power_method(perturb(m, 1e-6), tol=1e-12, max_squarings=60)
        assert report.converged, f"failed on\n{m}"


# --- linear_solve_stationary ------------------------------------------------------

def test_linear_solve_two_state():
    rows = [[F(2, 3), F(1, 3)], [F(2, 3), F(1, 3)]]
    assert list(linear_solve_stationary(rows)) == [F(2, 3), F(1, 3)]


def test_linear_solve_uniform_four_state():
    rows = [[F(1, 4)] * 4 for _ in range(4)]
    assert list(linear_solve_stationary(rows)) == [F(1, 4)] * 4


def test_linear_solve_equals_minor_method_exactly():
    rng = make_rng(113)
    for _ in range(25):
        rows = random_stochastic_rows(rng, 6, strictly_positive=True)
        assert list(linear_solve_stationary(rows)) == list(stationary(rows).pi)
    # one closed class, with transitory states and zero entries: the
    # elimination meets zero pivots and swaps rows
    checked = 0
    while checked < 40:
        rows = random_structured_rows(rng, max_n=8)
        if communicating_classes(rows).n_closed == 1:
            assert list(linear_solve_stationary(rows)) == \
                stationary_reference(rows)
            checked += 1


def test_linear_solve_reducible_raises():
    with pytest.raises(SingularSystemError):
        linear_solve_stationary([[F(1), F(0)], [F(0), F(1)]])
    with pytest.raises(SingularSystemError):
        linear_solve_stationary(np.eye(3))
    # two closed classes, however the system rounds: 1 - 0.7 and 0.3
    # differ in the last bit, so LAPACK meets no zero pivot
    two = [[0.7, 0.3, 0], [0.1, 0.9, 0], [0, 0, 1.0]]
    for p in (np.array(two), np.array(two)[np.ix_([1, 0, 2], [1, 0, 2])],
              [[F(str(x)) for x in row] for row in two]):
        with pytest.raises(SingularSystemError, match="singular; the chain"):
            linear_solve_stationary(p)
    # one closed class, and state 0's exit is below half an ulp of 1: the
    # diagonal is the off-diagonal row sum, so the exit is kept
    chain = np.array([[1.0, 1e-17], [0.0, 1.0]])
    assert linear_solve_stationary(chain).tolist() == [0.0, 1.0]
    assert stationary(chain).pi.tolist() == [0.0, 1.0]
    # one closed class, and the system is nonsingular, but 0.25 + 1e-17
    # rounds to 0.25 in LU's elimination, which meets an exactly zero pivot
    with pytest.raises(SingularSystemError) as info:
        linear_solve_stationary(np.array([
            [0.5, 0.25, 0.25], [0.0, 1.0, 1e-17], [0.0, 0.0, 1.0]]))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert "reducible" not in str(info.value)
    # state 2 all but absorbing: its exit, 1 - p_22, rounded to a tiny
    # pivot, but the off-diagonal row sum gives LU a well-posed system
    chain = np.array([
        [4.719778182063751e-09, 0.9999999952802218, 0.0],
        [2.0315859794030694e-12, 0.9999999999979685, 0.0],
        [1.0060184137214467e-16, 0.0, 0.9999999999999999]])
    assert np.abs(linear_solve_stationary(chain)
                  - stationary(chain).pi).max() <= 1e-15
    # two blocks coupled at rate 1e-300: LU meets no zero pivot, and the
    # residual gives the ill-conditioned system away
    with pytest.raises(SingularSystemError,
                       match="numerically singular") as info:
        linear_solve_stationary(np.array([
            [0.25, 1e-300, 0.0, 0.75], [1e-300, 0.5, 0.5, 0.0],
            [0.0, 0.25, 0.75, 1e-300], [0.5, 1e-300, 1e-300, 0.5]]))
    assert "reducible" not in str(info.value)


def test_linear_solve_float_mode():
    rng = np.random.default_rng(31)
    m = random_positive_float(rng, 5)
    pi = linear_solve_stationary(m)
    assert verify_equilibrium(pi, m) <= 1e-14


# --- the three routes agree -------------------------------------------------------

def test_oracle_triangle_on_positive_matrices():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        m = random_positive_float(rng, n)
        pi_minor = stationary(m).pi
        pi_solve = linear_solve_stationary(m)
        report = power_method(m, tol=1e-12)
        assert report.converged
        assert np.max(np.abs(pi_minor - pi_solve)) <= 1e-9
        assert np.max(np.abs(pi_minor - report.pi_estimate)) <= 1e-9
        assert np.max(np.abs(pi_solve - report.pi_estimate)) <= 1e-9
