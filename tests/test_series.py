"""Unit tests for the series input rules: every coefficient input is checked
by :mod:`schwarzlab.series`, whichever kernel or one-row view receives it;
and for :func:`schwarzlab.series.circle_max` against a 50-digit oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import circle_max_mp

import schwarzlab
from schwarzlab.bounds import (
    coefficient_bound_kernel,
    fourth_coefficient_kernel,
    harmonic_propagation,
    livingston_kernel,
    power_bound_kernel,
)
from schwarzlab.families import (
    CayleyOfSchwarz,
    FiniteBlaschke,
    HerglotzAtoms,
    InverseCayley,
    b2_extremal,
    cayley_block,
    expand_caratheodory,
    expand_schwarz,
    inverse_cayley,
)
from schwarzlab.series import (
    CompositionDomainError,
    circle_max,
    coefficient_block,
    require_finite,
    require_order,
)


class TestCoefficientBlock:
    def test_returns_a_complex_block(self):
        Z = coefficient_block([[0, 1, 2]], 0)
        assert Z.dtype == np.complex128 and Z.shape == (1, 3)

    def test_rank(self):
        with pytest.raises(ValueError, match="rank 2"):
            coefficient_block([0, 1, 2], 0)
        with pytest.raises(ValueError, match="rank 1"):
            coefficient_block([[1, 2]], 1, ndim=1)
        assert coefficient_block(np.ones((2, 3, 4)), 1, ndim=None).shape == (2, 3, 4)
        with pytest.raises(ValueError, match="rank >= 1"):
            coefficient_block(1.0, 1, ndim=None)

    @pytest.mark.parametrize("constant, row", [(0, [1e-300, 1.0]), (1, [1 + 1e-16j, 2.0])])
    def test_constant_term_is_exact(self, constant, row):
        with pytest.raises(CompositionDomainError, match=f"constant term exactly {constant}"):
            coefficient_block([[constant, 0.0], row], constant)

    def test_a_wrong_constant_is_a_value_error(self):
        assert issubclass(CompositionDomainError, ValueError)

    def test_order_floor(self):
        with pytest.raises(ValueError, match="need order >= 4"):
            coefficient_block(np.zeros((3, 4)), 0, min_order=4)
        assert coefficient_block(np.zeros((3, 5)), 0, min_order=4).shape == (3, 5)

    def test_finiteness_is_not_required(self):
        # the kernels report a non-finite row as a failing slack
        assert np.isnan(coefficient_block([[0, math.nan]], 0)[0, 1])


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            require_finite(np.array([1, math.nan], dtype=complex))

    def test_inf_rejected(self):
        assert require_finite(np.ones(3)).shape == (3,)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            require_finite(np.array([complex(0, -math.inf)]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="need order >= 1"):
            coefficient_block(np.zeros((3, 0)), 0)
        with pytest.raises(ValueError, match="need order >= 1"):
            require_order(0)
        require_order(4, 4)


# every entry point that reads a coefficient block, with a valid input and
# the class constant it requires
SCHWARZ_ROW = [0, 0.5, 0.25, 0.125, 0.0625]
CARATHEODORY_ROW = [1, 0.5, 0.25, 0.125, 0.0625]
ENTRIES = {
    "cayley_block": (lambda Z: cayley_block(Z, [0.3]), [SCHWARZ_ROW]),
    "inverse_cayley": (lambda Z: inverse_cayley(Z, 0.3), CARATHEODORY_ROW),
    "livingston_kernel": (lambda Z: livingston_kernel(Z, [(2, 1)]), [CARATHEODORY_ROW]),
    "coefficient_bound_kernel": (coefficient_bound_kernel, [SCHWARZ_ROW]),
    "power_bound_kernel": (lambda Z: power_bound_kernel(Z, 3), [SCHWARZ_ROW]),
    "fourth_coefficient_kernel": (lambda Z: fourth_coefficient_kernel(Z, [0.3]), [SCHWARZ_ROW]),
    "harmonic_propagation": (lambda Z: harmonic_propagation(Z, 1), CARATHEODORY_ROW),
}


@pytest.mark.parametrize("name", ENTRIES)
class TestEntryPoints:
    def test_accepts_its_class(self, name):
        entry, Z = ENTRIES[name]
        entry(np.array(Z, dtype=complex))

    def test_refuses_a_wrong_constant_term(self, name):
        entry, Z = ENTRIES[name]
        Z = np.array(Z, dtype=complex)
        Z[..., 0] += 0.5
        with pytest.raises(CompositionDomainError, match="constant term exactly"):
            entry(Z)

    def test_refuses_a_too_short_row(self, name):
        entry, Z = ENTRIES[name]
        with pytest.raises(ValueError, match="need order >="):
            entry(np.array(Z, dtype=complex)[..., :1])


@pytest.mark.parametrize(
    "expand, build, message",
    [
        # every generator, the Cayley wrappers too, refuses a non-finite
        # angle when it is built, so no view computes on one
        (expand_schwarz, lambda: FiniteBlaschke(math.inf, 1), "phi must be finite"),
        (expand_schwarz, lambda: b2_extremal(0.5, math.inf), "theta must be finite"),
        (expand_schwarz, lambda: InverseCayley(HerglotzAtoms(((1.0, 0.5),)), math.inf),
         "theta must be finite"),
        (expand_caratheodory, lambda: CayleyOfSchwarz(FiniteBlaschke(0.0, 1), math.inf),
         "theta must be finite"),
    ],
    ids=["monomial", "extremal", "invcayley", "cayley"],
)
def test_one_row_views_refuse_non_finite_output(expand, build, message):
    with pytest.raises(ValueError, match=message):
        expand(build(), 6)


def test_one_row_views_return_coefficient_arrays():
    w = expand_schwarz(FiniteBlaschke(0.0, 2), 4)
    p = expand_caratheodory(CayleyOfSchwarz(FiniteBlaschke(0.0, 1), 0.0), 4)
    assert w.shape == p.shape == (5,)
    assert w.dtype == p.dtype == np.complex128


def test_every_public_name_resolves():
    missing = [name for name in schwarzlab.__all__ if not hasattr(schwarzlab, name)]
    assert missing == []
    assert len(set(schwarzlab.__all__)) == len(schwarzlab.__all__)


def _dense_max(a, points=2**16):
    """max |A| over ``points`` uniform angles, by Horner's rule."""
    z = np.exp(2j * math.pi * np.arange(points) / points)
    return float(np.abs(np.polyval(np.asarray(a)[::-1], z)).max())


class TestCircleMax:
    """max |A(z)| on |z| = 1 against the 50-digit oracle and a dense grid."""

    #: error bound per unit of sum |a_k|; measured: at most 4.6e-16 of the
    #: maximum over 20 complex, real and Im ~ 1e-16 rows at each degree 1-6
    #: and numpy seeds 3-7
    ENVELOPE = 2e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_50_digit_oracle(self, n):
        # complex rows; real rows, where G'(0) = G'(pi) = 0 and the turn keeps
        # P's degree; and real rows with imaginary parts far below roundoff
        rng = np.random.default_rng(n)
        real = rng.uniform(-1, 1, (30, n + 1))
        size = np.repeat([1.0, 0, 1e-16, 1e-40, 1e-300], 6)[:, None]
        rows = real + 1j * size * rng.uniform(-1, 1, real.shape)
        want = np.array([float(circle_max_mp(r)) for r in rows.tolist()])
        err = np.abs(circle_max(rows) - want)
        assert (err <= self.ENVELOPE * np.abs(rows).sum(axis=1)).all(), err.max()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=2, max_size=7))
    def test_between_dense_grid_and_oracle(self, a):
        got = float(circle_max([a])[0])
        scale = float(np.abs(a).sum())
        # the grid's Horner values round by at most 2n u sum |a_k|
        assert got >= _dense_max(a) - 2 * len(a) * 2.0**-53 * scale
        assert got <= float(circle_max_mp(a)) + self.ENVELOPE * scale

    @pytest.mark.parametrize("power", [-600, 600])
    def test_scaling_by_a_power_of_two_is_exact(self, power):
        rng = np.random.default_rng(1)
        rows = rng.uniform(-1, 1, (20, 5)) + 1j * rng.uniform(-1, 1, (20, 5))
        assert np.array_equal(circle_max(rows * 2.0**power), circle_max(rows) * 2.0**power)

    def test_constant_modulus_and_shapes(self):
        assert circle_max([[0, 0, 0.6 - 0.8j]]).tolist() == [1.0]
        assert circle_max([[3 - 4j]]).tolist() == [5.0]
        assert circle_max(np.ones((2, 3, 5))).shape == (2, 3)
        assert circle_max(np.ones((2, 3, 5)))[0, 0] == 5.0

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(-1, 1, (40, 6)) + 1j * rng.uniform(-1, 1, (40, 6))
        rows[::3, 3:] = 0  # lower top degrees in the same batch
        rows[1::4] = rows[1::4].real
        batch = circle_max(rows)
        assert all(np.array_equal(circle_max(r[None]), batch[k, None]) for k, r in enumerate(rows))

    def test_non_finite_rows_stay_non_finite(self):
        rows = np.array([[0.5, math.nan, 0.1], [0.5, math.inf, 0.1], [0.5, 0.2, 0.1]])
        got = circle_max(rows)
        assert math.isnan(got[0]) and not math.isfinite(got[1])
        assert got[2] == circle_max(rows[2:])[0]
