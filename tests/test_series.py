"""Unit and property tests for the truncated-series ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.series import (
    NotInvertibleError,
    OrderMismatchError,
    TruncatedSeries,
    add_scaled,
    mul,
    reciprocal,
)

from oracles import convolve_oracle, random_series


def S(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=complex))


IDENT = np.zeros(13, dtype=complex)
IDENT[0] = 1.0


class TestAddScaled:
    def test_basic(self):
        out = add_scaled(S(1, 2), S(0, 1), 2.0)
        assert np.array_equal(out.coeffs, np.array([1, 4], dtype=complex))

    def test_cancellation_is_exact(self):
        rng = np.random.default_rng(3)
        f = TruncatedSeries(random_series(rng, 12))
        out = add_scaled(f, f, -1.0)
        assert np.array_equal(out.coeffs, np.zeros(13, dtype=complex))

    def test_disjoint_support(self):
        out = add_scaled(S(0, 1, 0), S(0, 0, 1), 1j)
        assert np.array_equal(out.coeffs, np.array([0, 1, 1j]))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            add_scaled(S(1, 2), S(1, 2, 3), 1.0)


class TestMul:
    def test_binomial_square(self):
        out = mul(S(1, 1, 0), S(1, 1, 0))
        assert np.array_equal(out.coeffs, np.array([1, 2, 1], dtype=complex))

    def test_truncation_drops_tail(self):
        # (1+2z+2z^2+2z^3)(1-z) = 1+z-2z^4; the z^4 term falls outside order 3
        out = mul(S(1, 2, 2, 2), S(1, -1, 0, 0))
        assert np.array_equal(out.coeffs, np.array([1, 1, 0, 0], dtype=complex))

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = random_series(rng, 12)
            g = random_series(rng, 12)
            got = mul(TruncatedSeries(f), TruncatedSeries(g)).coeffs
            want = convolve_oracle(f, g)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            mul(S(1, 2), S(1, 2, 3))

    def test_commutative_and_associative_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f = TruncatedSeries(random_series(rng, 12))
            g = TruncatedSeries(random_series(rng, 12))
            h = TruncatedSeries(random_series(rng, 12))
            comm = np.max(np.abs(mul(f, g).coeffs - mul(g, f).coeffs))
            assoc = np.max(np.abs(mul(mul(f, g), h).coeffs - mul(f, mul(g, h)).coeffs))
            assert comm < 1e-12
            assert assoc < 1e-12


class TestReciprocal:
    def test_geometric(self):
        out = reciprocal(S(1, -1, 0, 0))
        assert np.array_equal(out.coeffs, np.ones(4, dtype=complex))

    def test_alternating_geometric(self):
        out = reciprocal(S(1, 1, 0, 0))
        assert np.array_equal(out.coeffs, np.array([1, -1, 1, -1], dtype=complex))

    def test_multiply_back_random_unit_constant(self):
        # seeded draws with f0 = 1, |fk| <= 1; roundtrip residual < 1e-12
        rng = np.random.default_rng(23)
        for _ in range(100):
            f = TruncatedSeries(random_series(rng, 12, magnitude=1.0, fixed_constant=1.0))
            res = np.max(np.abs(mul(f, reciprocal(f)).coeffs - IDENT))
            assert res < 1e-12

    def test_multiply_back_larger_coefficients(self):
        # with |fk| <= 2 the reciprocal coefficients can reach ~1e5 and the
        # cancellation in the multiply-back loses ~5 digits; envelope 1e-10
        rng = np.random.default_rng(23)
        for _ in range(100):
            f = TruncatedSeries(random_series(rng, 12, magnitude=2.0, fixed_constant=1.0))
            res = np.max(np.abs(mul(f, reciprocal(f)).coeffs - IDENT))
            assert res < 1e-10

    def test_zero_constant_rejected(self):
        with pytest.raises(NotInvertibleError):
            reciprocal(S(0, 1, 0))


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            S(1, float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            S(complex(0, float("inf")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(np.array([], dtype=complex))

    def test_coeffs_read_only(self):
        f = S(1, 2, 3)
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_order_and_indexing(self):
        f = S(1, 2, 3)
        assert f.order == 2
        assert len(f) == 3
        assert f[1] == 2.0 + 0j


# Hypothesis properties: exact algebraic facts that hold coefficientwise
# with no tolerance at all.

finite_complex = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
series_coeffs = st.lists(finite_complex, min_size=13, max_size=13)


@settings(deadline=None)
@given(series_coeffs)
def test_self_cancellation_exact(coeffs):
    f = TruncatedSeries(np.array(coeffs))
    assert np.array_equal(add_scaled(f, f, -1.0).coeffs, np.zeros(13, dtype=complex))


@settings(deadline=None)
@given(series_coeffs, series_coeffs)
def test_mul_by_zero_is_zero(coeffs, other):
    z = TruncatedSeries.zero(12)
    f = TruncatedSeries(np.array(coeffs))
    g = TruncatedSeries(np.array(other))
    assert np.array_equal(mul(f, z).coeffs, z.coeffs)
    assert np.array_equal(mul(z, g).coeffs, z.coeffs)
