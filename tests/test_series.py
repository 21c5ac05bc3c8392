"""Unit tests for the series input rules: every coefficient input is checked
by :mod:`schwarzlab.series`, whichever kernel or one-row view receives it."""

import math

import numpy as np
import pytest

import schwarzlab
from schwarzlab.bounds import (
    coefficient_bound_kernel,
    fourth_coefficient_kernel,
    harmonic_propagation,
    livingston_kernel,
    power_bound_kernel,
)
from schwarzlab.families import (
    B2Extremal,
    CayleyOfSchwarz,
    HerglotzAtoms,
    InverseCayley,
    MonomialRotation,
    cayley_block,
    expand_caratheodory,
    expand_schwarz,
    inverse_cayley,
)
from schwarzlab.series import (
    CompositionDomainError,
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
        # a generator refuses a non-finite parameter when it is built
        (expand_schwarz, lambda: MonomialRotation(1, math.inf), "theta must be finite"),
        (expand_schwarz, lambda: B2Extremal(0.5, math.inf), "theta must be finite"),
        # a Cayley wrapper's angle reaches the output, which is refused
        (expand_schwarz, lambda: InverseCayley(HerglotzAtoms(((1.0, 0.5),)), math.inf),
         "coefficients must be finite"),
        (expand_caratheodory, lambda: CayleyOfSchwarz(MonomialRotation(1, 0.0), math.inf),
         "coefficients must be finite"),
    ],
    ids=["monomial", "extremal", "invcayley", "cayley"],
)
def test_one_row_views_refuse_non_finite_output(expand, build, message):
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            expand(build(), 6)


def test_one_row_views_return_coefficient_arrays():
    w = expand_schwarz(MonomialRotation(2, 0.0), 4)
    p = expand_caratheodory(CayleyOfSchwarz(MonomialRotation(1, 0.0), 0.0), 4)
    assert w.shape == p.shape == (5,)
    assert w.dtype == p.dtype == np.complex128


def test_every_public_name_resolves():
    missing = [name for name in schwarzlab.__all__ if not hasattr(schwarzlab, name)]
    assert missing == []
    assert len(set(schwarzlab.__all__)) == len(schwarzlab.__all__)
