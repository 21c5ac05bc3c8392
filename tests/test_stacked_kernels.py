"""Tests for the stacked kernels: expand_blaschke, cayley_block, herglotz_block,
evaluate_blaschke and stacked_mul.

A row of a stacked kernel must equal, bit for bit, what the kernel gives
for that row alone, so batched and one-at-a-time runs report the same
numbers; herglotz_block and evaluate_blaschke rows also equal, bit for
bit, the per-function formulas they replaced.  The 50-digit mpmath references bound the float error of both
kernels; each bound rests on the worst error measured over 200 seeds of
the test's corpus.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwarzlab.cli as cli
from schwarzlab.families import (
    B2Extremal,
    FiniteBlaschke,
    HerglotzAtoms,
    InvalidGeneratorError,
    MonomialRotation,
    cayley_block,
    evaluate_blaschke,
    evaluate_schwarz,
    expand_blaschke,
    expand_caratheodory,
    expand_schwarz,
    herglotz_block,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.series import (
    CompositionDomainError,
    OrderMismatchError,
    from_pairs,
    stacked_mul,
    to_pairs,
)

from oracles import blaschke_mp, cayley_mp, convolve_oracle, max_abs_error

CAYLEY_THETAS = (0.0, 1.0, 2.0, math.pi)


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def on_cap(theta: float) -> complex:
    """A zero of modulus 0.95, the validation cap, rounded inward until it passes."""
    a = 0.95 * cmath.exp(1j * theta)
    while True:
        try:
            FiniteBlaschke(0.0, 1, (a,))
            return a
        except InvalidGeneratorError:
            a = complex(np.nextafter(a.real, 0.0), np.nextafter(a.imag, 0.0))


angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)
inner_zeros = st.builds(
    lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.94), angles
)
# zeros and rotations on the axes make exact zero parts, whose signs must
# not depend on the batch either
axis_zeros = st.builds(
    lambda x, zero, swap: complex(zero, x) if swap else complex(x, zero),
    st.floats(-0.94, 0.94),
    st.sampled_from([0.0, -0.0]),
    st.booleans(),
)
zeros = st.one_of(
    inner_zeros,
    axis_zeros,
    st.just(0j),
    angles.map(on_cap),
    st.sampled_from([0.95, -0.95, 0.95j, -0.95j]).map(complex),
)
blaschke = st.builds(
    FiniteBlaschke,
    phi=st.one_of(angles, st.sampled_from([0.0, math.pi / 2, math.pi])),
    m=st.integers(1, 22),
    zeros=st.lists(zeros, max_size=5).map(tuple),
)


class TestRowsMatchOneRowCalls:
    @settings(deadline=None, max_examples=80)
    @given(st.lists(blaschke, min_size=1, max_size=40), st.integers(1, 20))
    def test_expand_blaschke(self, gens, order):
        W = expand_blaschke(gens, order)
        assert W.shape == (len(gens), order + 1)
        for i, g in enumerate(gens):
            assert np.array_equal(bits(W[i]), bits(expand_blaschke([g], order)[0]))
            assert np.array_equal(bits(W[i]), bits(expand_schwarz(g, order)))

    def test_short_row_is_not_multiplied_by_one(self):
        # multiplying the one-zero row by the series 1 in the second factor
        # slot would turn some of its -0.0 parts into +0.0
        short = FiniteBlaschke(phi=0.0, m=1, zeros=(complex(0.2, -0.0),))
        longer = FiniteBlaschke(phi=0.3, m=1, zeros=(0.5, 0.2j, -0.3))
        W = expand_blaschke([short, longer], 6)
        assert np.array_equal(bits(W[0]), bits(expand_blaschke([short], 6)[0]))

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(blaschke, min_size=1, max_size=40),
        st.integers(1, 20),
        st.lists(angles, min_size=1, max_size=4),
    )
    def test_cayley_block(self, gens, order, thetas):
        W = expand_blaschke(gens, order)
        P = cayley_block(W, thetas)
        assert P.shape == (len(gens), len(thetas), order + 1)
        for i in range(len(gens)):
            for j, theta in enumerate(thetas):
                assert np.array_equal(bits(P[i, j]), bits(cayley_block(W[i : i + 1], [theta])[0, 0]))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 20), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_stacked_mul(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        B = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        # exact zeros of either sign, as truncated series carry them
        A[rng.random(size=A.shape) < 0.2] = -0.0
        B[rng.random(size=B.shape) < 0.2] = 0.0
        C = from_pairs(stacked_mul(to_pairs(A), to_pairs(B)))
        for r in range(rows):
            one = from_pairs(stacked_mul(to_pairs(A[r : r + 1]), to_pairs(B[r : r + 1])))
            assert np.array_equal(bits(C[r]), bits(one[0]))
            assert np.max(np.abs(C[r] - convolve_oracle(A[r], B[r]))) < 1e-14 * n

    def test_strided_operands(self):
        # views that are not contiguous along the rows give the same bits
        rng = np.random.default_rng(5)
        a = rng.normal(size=(9, 2, 12))
        b = rng.normal(size=(9, 2, 12))
        whole = stacked_mul(a, b)
        for r in range(12):
            assert np.array_equal(bits(stacked_mul(a[..., r : r + 1], b[..., r : r + 1])[..., 0]),
                                  bits(whole[..., r]))


class TestBatchValidation:
    @pytest.mark.parametrize("position", [0, 7, 15])
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: FiniteBlaschke(phi=0.0, m=0, zeros=()),
            lambda: FiniteBlaschke(phi=0.0, m=1, zeros=(0.2, 0.96)),
            lambda: MonomialRotation(k=2, theta=0.0),
            lambda: B2Extremal(b1=0.3, theta=0.0),
        ],
        ids=["m0", "zero_beyond_cap", "monomial", "extremal"],
    )
    def test_one_invalid_generator_rejects_the_batch(self, position, bad):
        # an invalid Blaschke product is refused when built, another family
        # by expand_blaschke
        gens = list(sample_schwarz(3, 16, 6))
        with pytest.raises(InvalidGeneratorError):
            gens[position] = bad()
            expand_blaschke(gens, 12)

    def test_order_below_one(self):
        with pytest.raises(ValueError):
            expand_blaschke(sample_schwarz(3, 4, 6), 0)

    def test_non_finite_zero(self):
        with pytest.raises(ValueError, match="finite"):
            gens = [*sample_schwarz(3, 4, 6), FiniteBlaschke(0.0, 1, (complex(math.nan, 0.0),))]
            expand_blaschke(gens, 6)

    def test_empty_batch(self):
        assert expand_blaschke([], 5).shape == (0, 6)

    def test_cayley_needs_vanishing_constant_in_every_row(self):
        W = expand_blaschke(sample_schwarz(4, 10, 6), 8)
        W[6, 0] = 1e-300
        with pytest.raises(CompositionDomainError):
            cayley_block(W, CAYLEY_THETAS)

    def test_cayley_constant_is_exactly_one(self):
        P = cayley_block(expand_blaschke(sample_schwarz(4, 10, 6), 8), CAYLEY_THETAS)
        assert np.array_equal(P[..., 0], np.ones(P.shape[:2], dtype=complex))

    def test_cayley_rejects_non_finite_and_low_order(self):
        W = expand_blaschke(sample_schwarz(4, 3, 6), 5)
        W[1, 3] = math.inf
        with pytest.raises(ValueError, match="finite"):
            cayley_block(W, [0.5])
        with pytest.raises(ValueError, match="order"):
            cayley_block(np.zeros((2, 1), dtype=complex), [0.5])

    def test_stacked_mul_shapes_must_match(self):
        with pytest.raises(OrderMismatchError):
            stacked_mul(np.zeros((3, 2, 4)), np.zeros((4, 2, 4)))


def _corpus(seed: int, count: int) -> list[FiniteBlaschke]:
    """Sampled products plus ``count // 2`` with 1 to 4 zeros on the 0.95 cap."""
    rng = np.random.default_rng(seed)
    gens = list(sample_schwarz(seed, count, 6))
    for i in range(count // 2):
        k = int(rng.integers(1, 5))
        cap = tuple(on_cap(float(t)) for t in rng.uniform(0.0, 2.0 * math.pi, size=k))
        if i % 3 == 0:
            cap = cap + (0j,)
        gens.append(FiniteBlaschke(float(rng.uniform(0.0, 2.0 * math.pi)),
                                   int(rng.integers(1, 3)), cap))
    return gens


#: 1.25 times the worst error over ``_corpus(seed, count)`` for seeds 0-199,
#: rounded up: 5.09e-16, 5.32e-16, 4.65e-16 for Blaschke products and
#: 1.47e-15, 4.33e-15, 1.41e-14 for the Cayley transform at orders 4, 12, 40.
#: One seed is no envelope: at order 40, 109 of the 200 exceed 6.9e-15.
BLASCHKE_BOUND = {4: 6.4e-16, 12: 6.7e-16, 40: 5.9e-16}
CAYLEY_BOUND = {4: 1.9e-15, 12: 5.5e-15, 40: 1.8e-14}


@pytest.mark.parametrize("order, count", [(4, 40), (12, 40), (40, 12)])
def test_error_against_50_digit_reference(order, count):
    pytest.importorskip("mpmath")
    gens = _corpus(order, count)
    W = expand_blaschke(gens, order)
    P = cayley_block(W, CAYLEY_THETAS)
    blaschke_err = max(
        max_abs_error(W[i], blaschke_mp(g.phi, g.m, g.zeros, order))
        for i, g in enumerate(gens)
    )
    cayley_err = max(
        max_abs_error(P[i, j], cayley_mp(W[i], theta))
        for i in range(len(gens))
        for j, theta in enumerate(CAYLEY_THETAS)
    )
    assert blaschke_err <= BLASCHKE_BOUND[order]
    assert cayley_err <= CAYLEY_BOUND[order]


# ---------------------------------------------------------------------------
# herglotz_block and evaluate_blaschke
# ---------------------------------------------------------------------------

def herglotz_per_function(g: HerglotzAtoms, order: int) -> np.ndarray:
    """c_0 = 1, c_k = 2 (weights @ e^{i k alpha}): one product per function."""
    weights = np.array([w for w, _ in g.atoms])
    angles = np.array([a for _, a in g.atoms])
    out = np.ones(order + 1, dtype=np.complex128)
    out[1:] = 2.0 * (weights @ np.exp(1j * np.outer(angles, np.arange(1, order + 1))))
    return out


def blaschke_per_function(g: FiniteBlaschke, z: np.ndarray) -> np.ndarray:
    """e^{i phi} z^m times each factor in turn, ((acc * unit) * (a - z)) / (1 - conj(a) z)."""
    acc = np.exp(1j * g.phi) * z**g.m
    for a in g.zeros:
        a = complex(a)
        if a == 0:
            acc = acc * z
        else:
            acc = acc * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
    return acc


#: The pointwise grid of ``verify``: 8 radii, 16 angles each.
VERIFY_GRID = (np.array(cli.VERIFY_RADII)[:, None]
               * np.exp(2j * math.pi * np.arange(16) / 16)).ravel()

atom_angles = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, -math.pi, 2.0 * math.pi]),
)
herglotz = st.lists(
    st.tuples(st.floats(1e-3, 1.0), atom_angles), min_size=1, max_size=8
).map(lambda atoms: HerglotzAtoms(tuple(
    (w / math.fsum(w for w, _ in atoms), a) for w, a in atoms
)))
blaschke_m6 = st.builds(
    FiniteBlaschke,
    phi=st.one_of(angles, st.sampled_from([0.0, -0.0, math.pi / 2, math.pi])),
    m=st.integers(1, 6),
    zeros=st.lists(zeros, max_size=6).map(tuple),
)
disk_points = st.lists(
    st.one_of(
        st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.99), angles),
        axis_zeros,
        st.just(0j),
    ),
    min_size=1, max_size=24,
).map(lambda zs: np.array(zs, dtype=np.complex128))


class TestHerglotzBlock:
    @settings(deadline=None, max_examples=80)
    @given(st.lists(herglotz, min_size=1, max_size=40), st.integers(1, 40))
    def test_rows_match_one_row_calls(self, gens, order):
        P = herglotz_block(gens, order)
        assert P.shape == (len(gens), order + 1)
        for i, g in enumerate(gens):
            assert np.array_equal(bits(P[i]), bits(herglotz_block([g], order)[0]))
            assert np.array_equal(bits(P[i]), bits(expand_caratheodory(g, order)))
            assert np.array_equal(bits(P[i]), bits(herglotz_per_function(g, order)))

    @pytest.mark.parametrize("order", [4, 12, 40])
    def test_sampled_corpus_keeps_the_per_function_bits(self, order):
        # 1 to 8 atoms mixed in one block, as verify stacks them
        gens = sample_herglotz(order, 400)
        assert {len(g.atoms) for g in gens} == set(range(1, 9))
        P = herglotz_block(gens, order)
        for i, g in enumerate(gens):
            assert np.array_equal(bits(P[i]), bits(herglotz_per_function(g, order)))

    def test_validation(self):
        assert herglotz_block([], 5).shape == (0, 6)
        with pytest.raises(ValueError, match="order"):
            herglotz_block(sample_herglotz(1, 3), 0)
        with pytest.raises(InvalidGeneratorError, match="Herglotz"):
            herglotz_block([*sample_herglotz(1, 3), MonomialRotation(1, 0.0)], 4)
        with pytest.raises(ValueError, match="finite"):
            herglotz_block([HerglotzAtoms(((1.0, math.inf),))], 4)


class TestEvaluateBlaschke:
    @settings(deadline=None, max_examples=80)
    @given(st.lists(blaschke_m6, min_size=1, max_size=40), disk_points)
    def test_rows_match_one_row_calls(self, gens, z):
        values = evaluate_blaschke(gens, z)
        assert values.shape == (len(gens), len(z))
        for i, g in enumerate(gens):
            assert np.array_equal(bits(values[i]), bits(evaluate_blaschke([g], z)[0]))
            assert np.array_equal(bits(values[i]), bits(evaluate_schwarz(g, z)))
            assert np.array_equal(bits(values[i]), bits(blaschke_per_function(g, z)))

    @pytest.mark.parametrize("seed", [0, 42, 1001])
    def test_verify_corpus_keeps_the_per_function_bits(self, seed):
        gens = _corpus(seed, 200)
        values = evaluate_blaschke(gens, VERIFY_GRID)
        for i, g in enumerate(gens):
            assert np.array_equal(bits(values[i]), bits(blaschke_per_function(g, VERIFY_GRID)))

    def test_one_function_at_one_point(self):
        # numpy rounds a complex product of one-element operands with no
        # stride unfused, so a 1 x 1 block must not be computed as one
        gens = [FiniteBlaschke(0.0, 1, (0j, 0j)), *_corpus(7, 40)]
        for t in np.linspace(0.0, 2.0 * math.pi, 9):
            z = np.array([0.5 * cmath.exp(1j * t)])
            for g in gens:
                one = evaluate_blaschke([g], z)
                assert one.shape == (1, 1)
                assert np.array_equal(bits(one[0]), bits(blaschke_per_function(g, z)))

    def test_one_row_view_keeps_the_shape_of_z(self):
        g = FiniteBlaschke(0.3, 2, (0.5j, 0j))
        z = VERIFY_GRID.reshape(8, 16)
        assert evaluate_schwarz(g, z).shape == (8, 16)
        assert np.array_equal(bits(evaluate_schwarz(g, z)),
                              bits(blaschke_per_function(g, VERIFY_GRID).reshape(8, 16)))
        assert evaluate_schwarz(g, 0.25).shape == ()

    def test_validation(self):
        assert evaluate_blaschke([], VERIFY_GRID).shape == (0, len(VERIFY_GRID))
        with pytest.raises(InvalidGeneratorError, match="Blaschke"):
            evaluate_blaschke([B2Extremal(0.3, 0.0)], VERIFY_GRID)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--samples", "37", "--seed", "5"],
        ["verify", "--samples", "37", "--seed", "42", "--tol", "1e-17"],
        ["verify", "--samples", "20", "--seed", "11", "--order", "4", "--format", "csv"],
        ["verify", "--samples", "20", "--seed", "1001", "--order", "40"],
    ],
    ids=["default", "failing", "order4_csv", "order40"],
)
def test_verify_report_does_not_depend_on_the_block_size(capsys, monkeypatch, argv):
    def report():
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    default = report()
    samples = int(argv[argv.index("--samples") + 1])
    for rows in (1, 7, samples, 3 * samples):
        monkeypatch.setattr(cli, "_verify_block", lambda order, rows=rows: (rows, 0))
        assert report() == default
