"""Unit tests for the truncated-series value type."""

import numpy as np
import pytest

from schwarzlab.series import TruncatedSeries


def S(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=complex))


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
