"""Tests for the inequality checkers and their equality-case detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.bounds import (
    coefficient_bound_kernel,
    fourth_coefficient_constraints,
    fourth_coefficient_kernel,
    harmonic_propagation,
    livingston_gap,
    livingston_kernel,
    make_report,
    pointwise_contraction,
    pointwise_contraction_kernel,
    power_bound_kernel,
    schwarz_coefficient_bounds,
    second_coefficient_bound,
    third_coefficient_bound,
)
from schwarzlab.families import (
    B2Extremal,
    HerglotzAtoms,
    MonomialRotation,
    cayley_from_schwarz,
    expand_caratheodory,
    expand_schwarz,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.series import TruncatedSeries


def all_twos(order):
    arr = np.full(order + 1, 2.0, dtype=complex)
    arr[0] = 1.0
    return TruncatedSeries(arr)


EXTREMAL_HALF_PI = TruncatedSeries(np.array([0.0, 0.5, -0.75, -0.375, -0.1875]))


class TestLivingstonGap:
    def test_all_twos_attains_equality_everywhere(self):
        p = all_twos(10)
        for s in range(2, 11):
            for t in range(1, s):
                rep = livingston_gap(p, s, t)
                assert rep.lhs == 2.0
                assert rep.equality and rep.satisfied

    def test_constant_one(self):
        p = TruncatedSeries.constant(1.0, 6)
        rep = livingston_gap(p, 3, 1)
        assert rep.lhs == 0.0 and rep.satisfied and not rep.equality

    def test_worked_cayley_example(self):
        p = cayley_from_schwarz(EXTREMAL_HALF_PI, 0.0)
        rep = livingston_gap(p, 2, 1)
        # c2 - c1^2 = -1 - 1 = -2
        assert abs(rep.lhs - 2.0) < 1e-14
        assert rep.equality

    def test_index_errors(self):
        p = all_twos(6)
        with pytest.raises(IndexError):
            livingston_gap(p, 2, 2)
        with pytest.raises(IndexError):
            livingston_gap(p, 7, 1)
        with pytest.raises(IndexError):
            livingston_gap(p, 2, 0)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            livingston_gap(TruncatedSeries.constant(2.0, 6), 2, 1)


class TestCoefficientBounds:
    def test_monomial_equality_at_its_power(self):
        w = expand_schwarz(MonomialRotation(k=4, theta=1.9), 8)
        reports = schwarz_coefficient_bounds(w)
        assert len(reports) == 8
        for rep, k in zip(reports, range(1, 9)):
            assert rep.satisfied
            assert rep.equality == (k == 4)
            if k != 4:
                assert rep.lhs == 0.0

    def test_zero_function(self):
        reports = schwarz_coefficient_bounds(TruncatedSeries.zero(5))
        assert all(r.lhs == 0.0 and r.satisfied for r in reports)

    def test_extremal_sequence(self):
        reports = schwarz_coefficient_bounds(EXTREMAL_HALF_PI)
        assert [round(r.lhs, 10) for r in reports] == [0.5, 0.75, 0.375, 0.1875]
        assert all(r.satisfied for r in reports)


class TestSecondCoefficientBound:
    def test_extremal_family_attains_equality(self):
        b1 = 0.5 * np.exp(1j * math.pi / 7)
        w = expand_schwarz(B2Extremal(b1=complex(b1), theta=math.pi / 3), 4)
        rep = second_coefficient_bound(w)
        assert abs(rep.lhs - 0.75) < 1e-12
        assert abs(rep.rhs - 0.75) < 1e-12
        assert rep.equality

    def test_rotation_degenerate_equality(self):
        w = TruncatedSeries.identity(4)
        rep = second_coefficient_bound(w)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.equality

    def test_random_corpus_positive_slack(self):
        for g in sample_schwarz(seed=7, count=100, max_degree=6):
            rep = second_coefficient_bound(expand_schwarz(g, 12))
            assert rep.satisfied


class TestThirdCoefficientBound:
    def test_cubed_rotation_equality(self):
        w = expand_schwarz(MonomialRotation(k=3, theta=0.4), 4)
        rep = third_coefficient_bound(w)
        assert abs(rep.lhs - 1.0) < 1e-15
        assert rep.rhs == 1.0
        assert rep.equality

    def test_extremal_strict(self):
        rep = third_coefficient_bound(EXTREMAL_HALF_PI)
        assert abs(rep.lhs - 0.375) < 1e-15
        assert abs(rep.rhs - 0.875) < 1e-15
        assert rep.satisfied and not rep.equality

    def test_rotation_degenerate_equality(self):
        rep = third_coefficient_bound(TruncatedSeries.identity(4))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.equality

    def test_random_corpus(self):
        for g in sample_schwarz(seed=7, count=100, max_degree=6):
            assert third_coefficient_bound(expand_schwarz(g, 12)).satisfied


class TestPointwiseContraction:
    def test_rotation_attains_equality_everywhere(self):
        reports = pointwise_contraction(MonomialRotation(k=1, theta=2.2), [0.3, 0.7], 8)
        assert len(reports) == 16
        assert all(r.equality for r in reports)

    def test_square_monomial(self):
        reports = pointwise_contraction(MonomialRotation(k=2, theta=0.0), [0.5], 4)
        for r in reports:
            assert abs(r.lhs - 0.25) < 1e-15
            assert r.rhs == 0.5

    def test_random_corpus_all_satisfied(self):
        radii = np.linspace(0.1, 0.9, 8)
        for g in sample_schwarz(seed=44, count=50, max_degree=6):
            reports = pointwise_contraction(g, radii, 16)
            assert all(r.satisfied for r in reports)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            pointwise_contraction(MonomialRotation(k=1, theta=0.0), [1.2], 4)


class TestHarmonicPropagation:
    def test_single_atom_boundary_function(self):
        theta = 2 * math.pi / 5
        p = expand_caratheodory(HerglotzAtoms(((1.0, theta),)), 12)
        reports = harmonic_propagation(p, 1)
        assert len(reports) == 12
        assert all(r.lhs < 1e-12 and r.satisfied for r in reports)

    def test_two_symmetric_atoms_even_harmonics(self):
        p = expand_caratheodory(HerglotzAtoms(((0.5, 0.0), (0.5, math.pi))), 12)
        reports = harmonic_propagation(p, 2)
        assert len(reports) == 6  # n k <= 12 for k = 2
        assert all(r.lhs < 1e-12 for r in reports)

    def test_interior_coefficient_not_applicable(self):
        p = expand_caratheodory(HerglotzAtoms(((0.5, 0.3), (0.5, 2.1))), 12)
        reports = harmonic_propagation(p, 1)
        assert len(reports) == 1
        assert "not_applicable" in reports[0].name
        assert reports[0].satisfied

    def test_index_validation(self):
        p = all_twos(6)
        with pytest.raises(IndexError):
            harmonic_propagation(p, 0)
        with pytest.raises(IndexError):
            harmonic_propagation(p, 7)


class TestFourthCoefficientConstraints:
    def test_worked_extremal_example(self):
        rep1, rep2 = fourth_coefficient_constraints(EXTREMAL_HALF_PI, 0.0)
        assert abs(rep1.lhs - 0.5) < 1e-14
        assert abs(rep2.lhs - 1.0) < 1e-14
        assert rep2.equality and rep1.satisfied

    def test_zero_function(self):
        rep1, rep2 = fourth_coefficient_constraints(TruncatedSeries.zero(4), 1.0)
        assert rep1.lhs == 0.0 and rep2.lhs == 0.0

    def test_rotation_forces_equality_for_every_theta(self):
        w = TruncatedSeries.identity(4)
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            rep1, rep2 = fourth_coefficient_constraints(w, float(theta))
            assert abs(rep1.lhs - 1.0) < 1e-15 and rep1.equality
            assert abs(rep2.lhs - 1.0) < 1e-15

    def test_sampled_corpus_satisfied_over_theta_grid(self):
        thetas = 2 * math.pi * np.arange(64) / 64
        for g in sample_schwarz(seed=21, count=40, max_degree=6):
            w = expand_schwarz(g, 12)
            for theta in thetas:
                rep1, rep2 = fourth_coefficient_constraints(w, float(theta))
                assert rep1.satisfied and rep2.satisfied


class TestLivingstonOverCorpora:
    def test_herglotz_corpus(self):
        for g in sample_herglotz(seed=8, count=100):
            p = expand_caratheodory(g, 12)
            for s in range(2, 11):
                for t in range(1, s):
                    assert livingston_gap(p, s, t).satisfied

    def test_theta_uniformity_of_cayley(self):
        # class membership is theta-independent: every rotation of a
        # Schwarz function produces a valid Caratheodory function
        for g in sample_schwarz(seed=9, count=25, max_degree=6):
            w = expand_schwarz(g, 12)
            for theta in (0.0, 1.0, 2.0, math.pi):
                p = cayley_from_schwarz(w, theta)
                for s in range(2, 11):
                    for t in range(1, s):
                        assert livingston_gap(p, s, t).satisfied


# --- array kernels ---------------------------------------------------------

KERNEL_THETAS = 2 * math.pi * np.arange(64) / 64
PAIRS = [(s, t) for s in range(2, 11) for t in range(1, s)]


@pytest.fixture(scope="module")
def corpus():
    gens = sample_schwarz(seed=31, count=24, max_degree=6)
    series = [expand_schwarz(g, 12) for g in gens]
    return gens, series, np.stack([w.coeffs for w in series])


class TestKernels:
    def test_rows_equal_one_function_at_a_time(self, corpus):
        gens, series, W = corpus
        radii = np.linspace(0.1, 0.9, 8)
        blocks = {
            "coef": coefficient_bound_kernel(W),
            "b2": power_bound_kernel(W, 2),
            "b3": power_bound_kernel(W, 3),
            "pointwise": pointwise_contraction_kernel(gens, radii, 16),
        }
        eq1, eq2 = fourth_coefficient_kernel(W, KERNEL_THETAS)
        for i, (g, w) in enumerate(zip(gens, series)):
            expected = {
                "coef": schwarz_coefficient_bounds(w),
                "b2": [second_coefficient_bound(w)],
                "b3": [third_coefficient_bound(w)],
                "pointwise": pointwise_contraction(g, radii, 16),
            }
            for key, reports in expected.items():
                assert blocks[key].slack[i].tolist() == [r.slack for r in reports], key
            reps = [fourth_coefficient_constraints(w, float(t)) for t in KERNEL_THETAS]
            assert eq1.slack[i].tolist() == [r1.slack for r1, _ in reps]
            assert eq2.slack[i].tolist() == [r2.slack for _, r2 in reps]

    def test_livingston_rows_over_leading_axes(self, corpus):
        _, series, _ = corpus
        thetas = (0.0, 1.0, 2.0, math.pi)
        P = np.stack([[cayley_from_schwarz(w, t).coeffs for t in thetas] for w in series])
        block = livingston_kernel(P, PAIRS)
        assert block.slack.shape == (len(series), len(thetas), len(PAIRS))
        i, j = 5, 2
        p = cayley_from_schwarz(series[i], thetas[j])
        assert block.lhs[i, j].tolist() == [livingston_gap(p, s, t).lhs for s, t in PAIRS]

    def test_python_complex_arithmetic_bit_for_bit(self, corpus):
        # the kernels' modulus, products and powers round exactly as plain
        # Python complex arithmetic does
        _, series, W = corpus
        eq1, eq2 = fourth_coefficient_kernel(W, KERNEL_THETAS)
        coef = coefficient_bound_kernel(W).lhs
        b3_rhs = power_bound_kernel(W, 3).rhs
        for i, w in enumerate(series):
            b1, b2, b3, b4 = w[1], w[2], w[3], w[4]
            assert coef[i].tolist() == [abs(w[k]) for k in range(1, 13)]
            assert b3_rhs[i, 0] == 1.0 - abs(b1) ** 3
            for j, theta in enumerate(KERNEL_THETAS.tolist()):
                e1, e2, e3 = np.exp(1j * theta), np.exp(2j * theta), np.exp(3j * theta)
                lhs1 = abs(b4 + e1 * b2**2 - e2 * b1**2 * b2 - e3 * b1**4)
                lhs2 = abs(b4 + 2 * e1 * b1 * b3 - e1 * b2**2 - e2 * b1**2 * b2
                           - e3 * b1**4)
                assert (eq1.lhs[i, j], eq2.lhs[i, j]) == (lhs1, lhs2)
            p = cayley_from_schwarz(w, 1.0)
            lhs = livingston_kernel(p.coeffs[None], PAIRS).lhs[0]
            assert lhs.tolist() == [abs(p[s] - p[t] * p[s - t]) for s, t in PAIRS]

    def test_block_validation(self, corpus):
        _, _, W = corpus
        with pytest.raises(ValueError):
            coefficient_bound_kernel(W[0])
        shifted = W.copy()
        shifted[3, 0] = 0.1
        with pytest.raises(ValueError):
            fourth_coefficient_kernel(shifted, [0.0])
        with pytest.raises(ValueError):
            power_bound_kernel(W[:, :3], 3)
        P = all_twos(4).coeffs[None]
        with pytest.raises(IndexError):
            livingston_kernel(P, [(2, 1), (5, 1)])
        with pytest.raises(ValueError):
            livingston_kernel(2 * P, [(2, 1)])


# --- algebraic gap identities -------------------------------------------
# The reduced forms of c2 - c1^2, c3 - c1 c2, c4 - c1 c3 and c4 - c2^2
# hold for arbitrary coefficient tuples, Schwarz or not: they exercise the
# series engine itself.

unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=150)
@given(unit_complex, unit_complex, unit_complex, unit_complex,
       st.floats(0.0, 2 * math.pi, allow_nan=False))
def test_gap_identities_arbitrary_tuples(b1, b2, b3, b4, theta):
    w = TruncatedSeries(np.array([0.0, b1, b2, b3, b4]))
    p = cayley_from_schwarz(w, theta)
    c1, c2, c3, c4 = p[1], p[2], p[3], p[4]
    e1 = np.exp(1j * theta)
    e2 = np.exp(2j * theta)
    e3 = np.exp(3j * theta)
    assert abs((c2 - c1**2) - 2 * e1 * (b2 - e1 * b1**2)) < 1e-12
    assert abs((c3 - c1 * c2) - 2 * e1 * (b3 - e2 * b1**3)) < 1e-12
    assert abs(
        (c4 - c1 * c3) - 2 * e1 * (b4 + e1 * b2**2 - e2 * b1**2 * b2 - e3 * b1**4)
    ) < 1e-12
    assert abs(
        (c4 - c2**2)
        - 2 * e1 * (b4 + 2 * e1 * b1 * b3 - e1 * b2**2 - e2 * b1**2 * b2 - e3 * b1**4)
    ) < 1e-12


@settings(deadline=None, max_examples=200)
@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(1e-12, 1e-6),
    st.floats(1e-12, 1e-6),
)
def test_report_flags_consistent(lhs, rhs, tol, eq_tol):
    rep = make_report("x", lhs, rhs, tol=tol, eq_tol=eq_tol)
    assert rep.slack == rep.rhs - rep.lhs
    assert rep.satisfied == (rep.slack >= -tol)
    if rep.equality:
        assert rep.satisfied
