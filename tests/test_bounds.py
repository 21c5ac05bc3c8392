"""Tests for the inequality kernels and their equality cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schwarz_slacks
from schwarzlab.bounds import (
    b4_gap_polynomials,
    coefficient_bound_kernel,
    fourth_coefficient_kernel,
    harmonic_propagation,
    livingston_kernel,
    pointwise_contraction_kernel,
    power_bound_kernel,
)
from schwarzlab.families import (
    FiniteBlaschke,
    HerglotzAtoms,
    InvalidGeneratorError,
    InverseCayley,
    b2_extremal,
    cayley_block,
    expand_blaschke,
    expand_caratheodory,
    expand_schwarz,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.series import CompositionDomainError


def all_twos(order):
    arr = np.full(order + 1, 2.0, dtype=complex)
    arr[0] = 1.0
    return arr


EXTREMAL_HALF_PI = np.array([0.0, 0.5, -0.75, -0.375, -0.1875], dtype=complex)
PAIRS = [(s, t) for s in range(2, 11) for t in range(1, s)]

#: verify's default tolerance; the pointwise checks are closed-form and hold
#: to roundoff, so they are held to 1e-12
TOL = 1e-9
POINTWISE = 1e-12


def holds(slack, tol=TOL):
    """Every check satisfied: slack >= -tol."""
    return bool(np.all(np.asarray(slack) >= -tol))


def attained(slack, tol=TOL):
    """Every check satisfied with equality: also |slack| <= 1e-8."""
    return holds(slack, tol) and bool(np.all(np.abs(slack) <= 1e-8))


def one_row(w):
    return np.array([w], dtype=complex)


def cayley(w, theta):
    """The Cayley transform of one Schwarz row at theta, as Python complex numbers."""
    return cayley_block([w], [theta])[0, 0].tolist()


class TestLivingstonGap:
    def test_all_twos_attains_equality_everywhere(self):
        block = livingston_kernel(one_row(all_twos(10)), PAIRS)
        assert (block.lhs == 2.0).all()
        assert attained(block.slack)

    def test_constant_one(self):
        block = livingston_kernel(one_row([1.0] + [0] * 6), [(3, 1)])
        assert block.lhs[0, 0] == 0.0
        assert holds(block.slack) and not attained(block.slack)

    def test_worked_cayley_example(self):
        p = cayley(EXTREMAL_HALF_PI, 0.0)
        block = livingston_kernel(one_row(p), [(2, 1)])
        # c2 - c1^2 = -1 - 1 = -2
        assert abs(block.lhs[0, 0] - 2.0) < 1e-14
        assert attained(block.slack)

    def test_index_errors(self):
        P = one_row(all_twos(6))
        for pair in ((2, 2), (7, 1), (2, 0)):
            with pytest.raises(IndexError):
                livingston_kernel(P, [pair])

    def test_requires_unit_constant(self):
        with pytest.raises(CompositionDomainError):
            livingston_kernel(one_row([2.0] + [0] * 6), [(2, 1)])


class TestCoefficientBounds:
    def test_monomial_equality_at_its_power(self):
        w = expand_schwarz(FiniteBlaschke(1.9, 4), 8)
        block = coefficient_bound_kernel(one_row(w))
        assert block.slack.shape == (1, 8)
        for k, lhs, slack in zip(range(1, 9), block.lhs[0], block.slack[0]):
            assert holds(slack)
            assert attained(slack) == (k == 4)
            if k != 4:
                assert lhs == 0.0

    def test_zero_function(self):
        block = coefficient_bound_kernel(one_row(np.zeros(6)))
        assert (block.lhs == 0.0).all() and holds(block.slack)

    def test_extremal_sequence(self):
        block = coefficient_bound_kernel(one_row(EXTREMAL_HALF_PI))
        assert [round(x, 10) for x in block.lhs[0].tolist()] == [0.5, 0.75, 0.375, 0.1875]
        assert holds(block.slack)


class TestSecondCoefficientBound:
    def test_extremal_family_attains_equality(self):
        b1 = 0.5 * np.exp(1j * math.pi / 7)
        w = expand_schwarz(b2_extremal(b1, math.pi / 3), 4)
        block = power_bound_kernel(one_row(w), 2)
        assert abs(block.lhs[0, 0] - 0.75) < 1e-12
        assert abs(block.rhs[0, 0] - 0.75) < 1e-12
        assert attained(block.slack)

    def test_rotation_degenerate_equality(self):
        block = power_bound_kernel(one_row([0, 1, 0, 0, 0]), 2)
        assert block.lhs[0, 0] == 0.0 and block.rhs[0, 0] == 0.0
        assert attained(block.slack)

    def test_random_corpus_positive_slack(self):
        W = expand_blaschke(sample_schwarz(seed=7, count=100, max_degree=6), 12)
        assert holds(power_bound_kernel(W, 2).slack)


class TestThirdCoefficientBound:
    def test_cubed_rotation_equality(self):
        w = expand_schwarz(FiniteBlaschke(0.4, 3), 4)
        block = power_bound_kernel(one_row(w), 3)
        assert abs(block.lhs[0, 0] - 1.0) < 1e-15
        assert block.rhs[0, 0] == 1.0
        assert attained(block.slack)

    def test_extremal_strict(self):
        block = power_bound_kernel(one_row(EXTREMAL_HALF_PI), 3)
        assert abs(block.lhs[0, 0] - 0.375) < 1e-15
        assert abs(block.rhs[0, 0] - 0.875) < 1e-15
        assert holds(block.slack) and not attained(block.slack)

    def test_rotation_degenerate_equality(self):
        block = power_bound_kernel(one_row([0, 1, 0, 0, 0]), 3)
        assert block.lhs[0, 0] == 0.0 and block.rhs[0, 0] == 0.0
        assert attained(block.slack)

    def test_random_corpus(self):
        W = expand_blaschke(sample_schwarz(seed=7, count=100, max_degree=6), 12)
        assert holds(power_bound_kernel(W, 3).slack)


class TestPointwiseContraction:
    def test_rotation_attains_equality_everywhere(self):
        gen = FiniteBlaschke(2.2, 1)
        block = pointwise_contraction_kernel([gen], [0.3, 0.7], 8)
        assert block.slack.shape == (1, 16)
        assert attained(block.slack, POINTWISE)

    def test_square_monomial(self):
        block = pointwise_contraction_kernel([FiniteBlaschke(0.0, 2)], [0.5], 4)
        assert np.all(np.abs(block.lhs - 0.25) < 1e-15)
        assert (block.rhs == 0.5).all()

    def test_random_corpus_all_satisfied(self):
        radii = np.linspace(0.1, 0.9, 8)
        gens = sample_schwarz(seed=44, count=50, max_degree=6)
        assert holds(pointwise_contraction_kernel(gens, radii, 16).slack, POINTWISE)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            pointwise_contraction_kernel([FiniteBlaschke(0.0, 1)], [1.2], 4)

    def test_rejects_a_non_blaschke_generator(self):
        gen = InverseCayley(HerglotzAtoms(((1.0, 0.0),)), 0.0)
        with pytest.raises(InvalidGeneratorError, match="^not a finite Blaschke product: InverseCayley$"):
            pointwise_contraction_kernel([FiniteBlaschke(0.0, 1), gen], [0.5], 4)


class TestHarmonicPropagation:
    def test_single_atom_boundary_function(self):
        theta = 2 * math.pi / 5
        p = expand_caratheodory(HerglotzAtoms(((1.0, theta),)), 12)
        block = harmonic_propagation(p, 1)
        assert block.lhs.shape == (1, 12)
        assert (block.lhs < 1e-12).all() and holds(block.slack)

    def test_two_symmetric_atoms_even_harmonics(self):
        p = expand_caratheodory(HerglotzAtoms(((0.5, 0.0), (0.5, math.pi))), 12)
        block = harmonic_propagation(p, 2)
        assert block.lhs.shape == (1, 6)  # n k <= 12 for k = 2
        assert (block.lhs < 1e-12).all()

    def test_interior_coefficient_not_applicable(self):
        # off the boundary the one column is |c_k| <= 2
        p = expand_caratheodory(HerglotzAtoms(((0.5, 0.3), (0.5, 2.1))), 12)
        block = harmonic_propagation(p, 1)
        assert block.lhs.tolist() == [[abs(p[1])]]
        assert block.rhs == 2.0
        assert holds(block.slack)

    def test_index_validation(self):
        p = all_twos(6)
        with pytest.raises(IndexError):
            harmonic_propagation(p, 0)
        with pytest.raises(IndexError):
            harmonic_propagation(p, 7)


class TestFourthCoefficientConstraints:
    def test_worked_extremal_example(self):
        eq1, eq2 = fourth_coefficient_kernel(one_row(EXTREMAL_HALF_PI), [0.0])
        assert abs(eq1.lhs[0, 0] - 0.5) < 1e-14
        assert abs(eq2.lhs[0, 0] - 1.0) < 1e-14
        assert attained(eq2.slack) and holds(eq1.slack)

    def test_zero_function(self):
        eq1, eq2 = fourth_coefficient_kernel(one_row(np.zeros(5)), [1.0])
        assert eq1.lhs[0, 0] == 0.0 and eq2.lhs[0, 0] == 0.0

    def test_rotation_forces_equality_for_every_theta(self):
        thetas = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        eq1, eq2 = fourth_coefficient_kernel(one_row([0, 1, 0, 0, 0]), thetas)
        assert np.all(np.abs(eq1.lhs - 1.0) < 1e-15) and attained(eq1.slack)
        assert np.all(np.abs(eq2.lhs - 1.0) < 1e-15)

    def test_sampled_corpus_satisfied_over_theta_grid(self):
        thetas = 2 * math.pi * np.arange(64) / 64
        W = expand_blaschke(sample_schwarz(seed=21, count=40, max_degree=6), 12)
        eq1, eq2 = fourth_coefficient_kernel(W, thetas)
        assert holds(eq1.slack) and holds(eq2.slack)


class TestLivingstonOverCorpora:
    def test_herglotz_corpus(self):
        gens = sample_herglotz(seed=8, count=100)
        P = np.stack([expand_caratheodory(g, 12) for g in gens])
        assert holds(livingston_kernel(P, PAIRS).slack)

    def test_theta_uniformity_of_cayley(self):
        # class membership is theta-independent: every rotation of a
        # Schwarz function produces a valid Caratheodory function
        W = expand_blaschke(sample_schwarz(seed=9, count=25, max_degree=6), 12)
        P = cayley_block(W, (0.0, 1.0, 2.0, math.pi))
        assert holds(livingston_kernel(P, PAIRS).slack)


# --- array kernels ---------------------------------------------------------

KERNEL_THETAS = 2 * math.pi * np.arange(64) / 64


@pytest.fixture(scope="module")
def corpus():
    gens = sample_schwarz(seed=31, count=24, max_degree=6)
    # rows as Python complex numbers, the arithmetic the kernels reproduce
    series = [expand_schwarz(g, 12).tolist() for g in gens]
    return gens, series, np.array(series)


class TestKernels:
    def test_rows_equal_one_function_at_a_time(self, corpus):
        # every column equals its plain-Python complex arithmetic reference
        gens, series, W = corpus
        radii = np.linspace(0.1, 0.9, 8)
        b2 = power_bound_kernel(W, 2)
        eq1, eq2 = fourth_coefficient_kernel(W, KERNEL_THETAS)
        blocks = {
            "coefficient_bound": coefficient_bound_kernel(W),
            "b2_bound": b2,
            "b3_bound": power_bound_kernel(W, 3),
            "pointwise_contraction": pointwise_contraction_kernel(gens, radii, 16),
            "b4_eq1": eq1,
            "b4_eq2": eq2,
        }
        for i, (g, w) in enumerate(zip(gens, series)):
            expected = schwarz_slacks(g, w, radii, 16, KERNEL_THETAS.tolist())
            assert expected.keys() == blocks.keys()
            for key, slacks in expected.items():
                assert blocks[key].slack[i].tolist() == slacks, key
            assert b2.rhs[i, 0] == 1.0 - abs(w[1]) ** 2

    def test_livingston_rows_over_leading_axes(self, corpus):
        _, series, _ = corpus
        thetas = (0.0, 1.0, 2.0, math.pi)
        P = np.array([[cayley(w, t) for t in thetas] for w in series])
        block = livingston_kernel(P, PAIRS)
        assert block.slack.shape == (len(series), len(thetas), len(PAIRS))
        i, j = 5, 2
        p = cayley(series[i], thetas[j])
        assert block.lhs[i, j].tolist() == [abs(p[s] - p[t] * p[s - t]) for s, t in PAIRS]

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
            b1sq = b1 * b1
            a2, a3 = -(b1sq * b2), -(b1sq * b1sq)
            a1_eq1, a1_eq2 = b2 * b2, 2 * (b1 * b3) - b2 * b2
            for j, theta in enumerate(KERNEL_THETAS.tolist()):
                z = complex(np.exp(1j * theta))
                lhs1 = abs(b4 + ((a3 * z + a2) * z + a1_eq1) * z)
                lhs2 = abs(b4 + ((a3 * z + a2) * z + a1_eq2) * z)
                assert (eq1.lhs[i, j], eq2.lhs[i, j]) == (lhs1, lhs2)
            p = cayley(w, 1.0)
            lhs = livingston_kernel(one_row(p), PAIRS).lhs[0]
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
        P = one_row(all_twos(4))
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
    p = cayley([0.0, b1, b2, b3, b4], theta)
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
    # the primitive at z = e^{i theta} is the gap divided by 2z, for t = 1, 2
    a = b4_gap_polynomials([[b1, b2, b3, b4]])[0]
    for f, t in enumerate((1, 2)):
        A = sum(a[f, k] * e1**k for k in range(4))
        assert abs(A - (c4 - p[t] * p[4 - t]) / (2 * e1)) < 1e-12
