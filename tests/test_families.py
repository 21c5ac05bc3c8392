"""Tests for generator families, expansions, evaluation, and the Cayley bridge."""

import cmath
import math

import numpy as np
import pytest

import schwarzlab.families as families
from schwarzlab.families import (
    B1_UNIT_TOL,
    CaratheodoryGenerator,
    CayleyOfSchwarz,
    FiniteBlaschke,
    HerglotzAtoms,
    InvalidGeneratorError,
    InverseCayley,
    SchwarzGenerator,
    b2_extremal,
    cayley_block,
    evaluate_caratheodory,
    evaluate_schwarz,
    expand_caratheodory,
    expand_schwarz,
    harmonic_boundary_atoms,
    inverse_cayley,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.grammar import parse_generator
from schwarzlab.series import CompositionDomainError

from oracles import (
    blaschke_mp,
    cayley_oracle,
    chain_mp,
    division_oracle,
    extremal_oracle,
    herglotz_mp,
    inverse_cayley_mp,
    max_abs_error,
)

# Hand-derived expansion of (0.5 z - z^2)/(1 - 0.5 z): multiply the
# numerator by the geometric series in 0.5 z.
EXTREMAL_HALF_PI = np.array([0.0, 0.5, -0.75, -0.375, -0.1875])


def test_cayley_of_rotation_is_all_twos():
    p = cayley_block([[0, 1] + [0] * 5], [0.0])[0, 0]
    assert np.allclose(p, [1, 2, 2, 2, 2, 2, 2], atol=1e-15)


def test_cayley_of_zero_is_one():
    p = cayley_block(np.zeros((1, 6)), [1.3])[0, 0]
    assert np.array_equal(p, np.array([1.0] + [0] * 5, dtype=complex))


def test_cayley_worked_example_against_division_oracle():
    p = cayley_block([EXTREMAL_HALF_PI], [0.0])[0, 0]
    want = cayley_oracle(EXTREMAL_HALF_PI, 0.0)
    assert np.max(np.abs(p - want)) < 1e-14
    assert np.allclose(p, [1, 1, -1, -2, -1], atol=1e-14)


def test_cayley_rejects_nonzero_constant():
    with pytest.raises(CompositionDomainError):
        cayley_block([[0.5] + [0] * 4], [0.0])


def test_inverse_cayley_of_all_twos_is_z():
    p = cayley_block([[0, 1] + [0] * 7], [0.0])[0, 0]
    w = inverse_cayley(p, 0.0)
    assert np.allclose(w, [0, 1] + [0] * 7, atol=1e-14)


def test_inverse_cayley_of_constant_one_is_zero():
    w = inverse_cayley([1.0] + [0] * 6, 0.7)
    assert np.max(np.abs(w)) < 1e-15


def test_inverse_cayley_requires_unit_constant():
    with pytest.raises(CompositionDomainError):
        inverse_cayley([2.0] + [0] * 4, 0.0)


@pytest.mark.parametrize("theta", [0.0, 1.0, 2.0, math.pi])
def test_cayley_roundtrip_random_schwarz(theta):
    for idx, g in enumerate(sample_schwarz(seed=99, count=40, max_degree=6)):
        w = expand_schwarz(g, 12)
        back = inverse_cayley(cayley_block([w], [theta])[0, 0], theta)
        assert np.max(np.abs(back - w)) < 1e-12, f"sample {idx}"


class TestExpandSchwarz:
    def test_extremal_half_hand_expansion(self):
        w = expand_schwarz(b2_extremal(0.5, math.pi), 4)
        assert np.max(np.abs(w - EXTREMAL_HALF_PI)) < 1e-15

    def test_extremal_matches_division_oracle(self):
        b1 = 0.3 - 0.4j
        theta = 1.1
        rot = np.exp(1j * theta)
        num = np.array([0.0, b1, rot, 0.0, 0.0, 0.0])
        den = np.array([1.0, rot * np.conj(b1), 0.0, 0.0, 0.0, 0.0])
        want = division_oracle(num, den)
        got = expand_schwarz(b2_extremal(b1, theta), 5)
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("order", [4, 12, 40])
    def test_extremal_is_a_one_zero_blaschke_product(self, order):
        # (b1 z + e^{i theta} z^2)/(1 + e^{i theta} conj(b1) z) equals
        # e^{i arg b1} z (|a|/a)(a - z)/(1 - conj(a) z) with a = -b1 e^{-i theta}
        rng = np.random.default_rng(order)
        radii = 0.95 * np.sqrt(rng.uniform(0.01, 1.0, 40))
        b1s = radii * np.exp(2j * np.pi * rng.uniform(size=40))
        b1s[0] = 0.95j
        thetas = rng.uniform(0.0, 2.0 * np.pi, 40)
        for b1, t in zip(b1s.tolist(), thetas.tolist()):
            g = b2_extremal(b1, t)
            assert (g.m, len(g.zeros)) == (1, 1)
            assert math.isclose(abs(g.zeros[0]), abs(b1), rel_tol=1e-15)
            got = expand_schwarz(g, order)
            assert np.max(np.abs(got - extremal_oracle(b1, t, order))) <= 2e-15

    def test_extremal_unit_modulus_branch(self):
        b1 = np.exp(0.9j)
        w = expand_schwarz(b2_extremal(b1, 0.3), 4)
        want = np.zeros(5, dtype=complex)
        want[1] = b1 / abs(b1)
        assert np.max(np.abs(w - want)) < 1e-15

    def test_extremal_zero_b1_collapses_to_z_squared(self):
        w = expand_schwarz(b2_extremal(0.0, 0.0), 4)
        assert np.array_equal(w, np.array([0, 0, 1, 0, 0], dtype=complex))

    def test_monomial(self):
        w = expand_schwarz(FiniteBlaschke(0.0, 3), 5)
        assert np.array_equal(w, np.array([0, 0, 0, 1, 0, 0], dtype=complex))

    def test_monomial_beyond_order_is_zero(self):
        w = expand_schwarz(FiniteBlaschke(0.4, 7), 5)
        assert np.array_equal(w, np.zeros(6, dtype=complex))

    def test_blaschke_equals_extremal_up_to_sign_convention(self):
        # z * (|a|/a)(a - z)/(1 - conj(a) z) at a = 0.5 is exactly the
        # b1 = 0.5, theta = pi member of the extremal family
        w = expand_schwarz(FiniteBlaschke(phi=0.0, m=1, zeros=(0.5,)), 4)
        assert np.max(np.abs(w - EXTREMAL_HALF_PI)) < 1e-15

    def test_blaschke_zero_at_origin_is_extra_power(self):
        w1 = expand_schwarz(FiniteBlaschke(phi=0.2, m=2, zeros=()), 6)
        w2 = expand_schwarz(FiniteBlaschke(phi=0.2, m=1, zeros=(0.0,)), 6)
        assert np.array_equal(w1, w2)

    def test_constant_term_exactly_zero(self):
        for g in sample_schwarz(seed=5, count=50, max_degree=6):
            assert expand_schwarz(g, 12)[0] == 0

    def test_rotation_covariance(self):
        from schwarzlab.bounds import power_bound_kernel

        g = FiniteBlaschke(phi=0.7, m=1, zeros=(0.3 + 0.2j, -0.5j))
        delta = 1.9
        shifted = FiniteBlaschke(phi=g.phi + delta, m=g.m, zeros=g.zeros)
        w = expand_schwarz(g, 10)
        ws = expand_schwarz(shifted, 10)
        assert np.max(np.abs(ws - np.exp(1j * delta) * w)) < 1e-12
        # modulus-based checks are blind to the rotation
        for k in (2, 3):
            slack = power_bound_kernel(np.stack([w, ws]), k).slack
            assert abs(slack[0, 0] - slack[1, 0]) < 1e-12


class TestExpandCaratheodory:
    def test_single_atom_rotated(self):
        theta = 2 * math.pi / 5
        p = expand_caratheodory(HerglotzAtoms(((1.0, theta),)), 3)
        ks = np.arange(4)
        want = 2.0 * np.exp(1j * ks * theta)
        want[0] = 1.0
        assert np.max(np.abs(p - want)) < 1e-14

    def test_single_atom_at_zero_is_all_twos(self):
        p = expand_caratheodory(HerglotzAtoms(((1.0, 0.0),)), 6)
        assert np.allclose(p, [1, 2, 2, 2, 2, 2, 2], atol=1e-15)

    def test_two_symmetric_atoms(self):
        p = expand_caratheodory(HerglotzAtoms(((0.5, 0.0), (0.5, math.pi))), 4)
        # oracle: (1 + z^2)/(1 - z^2) expanded by long division
        want = division_oracle([1, 0, 1, 0, 0], [1, 0, -1, 0, 0])
        assert np.max(np.abs(p - want)) < 1e-14
        assert np.allclose(p, [1, 0, 2, 0, 2], atol=1e-14)

    def test_cayley_of_schwarz_generator(self):
        g = CayleyOfSchwarz(inner=FiniteBlaschke(0.0, 1), theta=0.0)
        p = expand_caratheodory(g, 5)
        assert np.allclose(p, [1, 2, 2, 2, 2, 2], atol=1e-14)

    def test_constant_term_exactly_one_and_bounded(self):
        for g in sample_herglotz(seed=17, count=60):
            p = expand_caratheodory(g, 12)
            assert p[0] == 1
            assert np.max(np.abs(p[1:])) <= 2.0 + 1e-12


#: Twice the worst errors measured against the 50-digit references on the
#: corpora below: Herglotz expansion 2.90e-15, 1.41e-14, 2.62e-14 and the
#: inverse Cayley transform 1.65e-16, 2.19e-16, 2.73e-16 at orders 4, 12,
#: 40.  The Herglotz error grows with k because k * alpha is rounded
#: before the exponential.  As a stacked quotient whose dividend carries
#: the rotation, the inverse transform measured 2.29e-16, 2.98e-16 and
#: 2.92e-16.
HERGLOTZ_BOUND = {4: 5.8e-15, 12: 2.9e-14, 40: 5.3e-14}
INVERSE_CAYLEY_BOUND = {4: 3.3e-16, 12: 4.4e-16, 40: 5.5e-16}
ENVELOPE_THETAS = (0.0, 1.0, 2.0, math.pi)


class TestFiftyDigitEnvelopes:
    @staticmethod
    def caratheodory_corpus(order, count):
        atoms = list(sample_herglotz(order, count))
        atoms += [harmonic_boundary_atoms(k, 0.7) for k in (1, 2, 3, 5)]
        cayleys = [
            cayley_block([expand_schwarz(g, order)], [0.4])[0, 0]
            for g in sample_schwarz(order + 100, count // 2, 6)
        ]
        return atoms, cayleys

    @pytest.mark.parametrize("order, count", [(4, 40), (12, 40), (40, 12)])
    def test_herglotz_expansion(self, order, count):
        pytest.importorskip("mpmath")
        atoms, _ = self.caratheodory_corpus(order, count)
        err = max(
            max_abs_error(expand_caratheodory(g, order), herglotz_mp(g.atoms, order))
            for g in atoms
        )
        assert err <= HERGLOTZ_BOUND[order]

    @pytest.mark.parametrize("order, count", [(4, 40), (12, 40), (40, 12)])
    def test_inverse_cayley(self, order, count):
        pytest.importorskip("mpmath")
        atoms, cayleys = self.caratheodory_corpus(order, count)
        series = [expand_caratheodory(g, order) for g in atoms] + cayleys
        err = max(
            max_abs_error(inverse_cayley(p, theta), inverse_cayley_mp(p, theta))
            for p in series
            for theta in ENVELOPE_THETAS
        )
        assert err <= INVERSE_CAYLEY_BOUND[order]


def random_chain(seed: int, depth: int, leaf: str):
    """``depth`` Cayley and inverse Cayley nodes at angles uniform in [0, 2 pi)
    over the first function of ``sample_schwarz(seed, 1, 6)`` (leaf
    "blaschke") or of ``sample_herglotz(seed, 1)`` (leaf "herglotz")."""
    rng = np.random.default_rng(seed)
    g = sample_schwarz(seed, 1, 6)[0] if leaf == "blaschke" else sample_herglotz(seed, 1)[0]
    for theta in rng.uniform(0.0, 2.0 * math.pi, depth).tolist():
        g = (CayleyOfSchwarz if isinstance(g, SchwarzGenerator) else InverseCayley)(g, theta)
    return g


def expand_any(g, order: int) -> np.ndarray:
    expand = expand_caratheodory if isinstance(g, CaratheodoryGenerator) else expand_schwarz
    return expand(g, order)


#: 1.25 times the worst error against the 50-digit composition over
#: ``random_chain(1000 order + s, 1 + s % 15, leaf)``, s = 0..149, rounded
#: up.  Measured at orders 12, 40, 64: 6.41e-15, 3.30e-14, 4.87e-14 over
#: Blaschke leaves and 1.35e-13, 3.18e-12, 6.88e-12 over Herglotz leaves,
#: whose expansion error the chain carries (a transform per node measured
#: 8.15e-15, 5.00e-14, 1.63e-13 and 1.42e-13, 3.26e-12, 7.08e-12).
CHAIN_BOUND = {
    ("blaschke", 12): 8.1e-15, ("blaschke", 40): 4.2e-14, ("blaschke", 64): 6.1e-14,
    ("herglotz", 12): 1.7e-13, ("herglotz", 40): 4.0e-12, ("herglotz", 64): 8.6e-12,
}
#: The chains each test draws: depths 1-15 at every order.
CHAIN_DRAWS = {12: 30, 40: 15, 64: 15}

#: Per pair count, 1.25 times the worst |expansion - rotated leaf| at order
#: 64 and |value - rotated leaf value| at 16 points of radius 0.9 over the
#: chains at numpy seeds 0-199, rounded up: 4.28e-15 and 4.58e-15 for 600
#: pairs, 5.89e-15 and 6.37e-15 for 1200 (with the recursion limit raised,
#: a recursive expansion per node measured 7.03e-15 and 8.32e-15 for 600
#: pairs at seeds 0-19).
DEEP_BOUND = {600: (5.4e-15, 5.8e-15), 1200: (7.4e-15, 8.0e-15)}


class TestCayleyChains:
    """A chain of Cayley and inverse Cayley nodes is one Moebius map of its leaf."""

    @pytest.mark.parametrize("leaf", ["blaschke", "herglotz"])
    @pytest.mark.parametrize("order", [12, 40, 64])
    def test_against_50_digit_composition(self, order, leaf):
        pytest.importorskip("mpmath")
        err = max(
            max_abs_error(expand_any(g, order), chain_mp(g, order))
            for g in (random_chain(1000 * order + s, 1 + s % 15, leaf)
                      for s in range(CHAIN_DRAWS[order]))
        )
        assert err <= CHAIN_BOUND[leaf, order]

    @pytest.mark.parametrize("pairs", [600, 1200])
    def test_pairs_collapse_to_a_rotation(self, pairs):
        # invcayley(t1, cayley(t2, w)) = e^{i (t2 - t1)} w: built through the
        # dataclasses, the pairs nest deeper than the parser allows, and each
        # pair doubles the chain's matrix, past the float range at 1200
        # pairs but for its scaling
        mpmath = pytest.importorskip("mpmath")
        leaf = FiniteBlaschke(1.0, 1, (0.3 + 0.4j, -0.5 + 0.1j, 0.95, 0))
        angles = np.random.default_rng(pairs).uniform(0.0, 2.0 * math.pi, (pairs, 2)).tolist()
        g = leaf
        for inner, outer in angles:
            g = InverseCayley(CayleyOfSchwarz(g, inner), outer)
        with mpmath.workdps(50):
            turn = mpmath.fsum(mpmath.mpf(t2) - mpmath.mpf(t1) for t2, t1 in angles)
            rot = complex(mpmath.expj(turn))
        z = 0.9 * np.exp(2j * math.pi * np.arange(16) / 16)
        series_err = np.max(np.abs(expand_schwarz(g, 64) - rot * expand_schwarz(leaf, 64)))
        value_err = np.max(np.abs(evaluate_schwarz(g, z) - rot * evaluate_schwarz(leaf, z)))
        series_bound, value_bound = DEEP_BOUND[pairs]
        assert series_err <= series_bound
        assert value_err <= value_bound



#: |b1| = |a| of the extremal's zero, up to 1e-6 from the unit circle, then
#: on both sides of 1 - B1_UNIT_TOL, where the extremal becomes the rotation
EXTREMAL_MODULI = (0.0, 0.5, 0.95, 0.97, 0.999, 1.0 - 1e-6,
                   1.0 - 2.0 * B1_UNIT_TOL, 1.0 - 0.5 * B1_UNIT_TOL, 1.0 + 0.5 * B1_UNIT_TOL)
#: 1.25 times the worst error over ``extremal_errors(seed, order)`` for
#: seeds 0-199 at orders 12, 24 and 64, rounded up: 2.85e-16 against the
#: Blaschke product's 50-digit expansion and 4.61e-16 against the
#: extremal's hand expansion, at every order alike.
EXTREMAL_MP_BOUND = 3.6e-16
EXTREMAL_HAND_BOUND = 5.8e-16


def extremal_errors(seed: int, order: int) -> tuple[float, float]:
    """Worst errors of ``b2_extremal``'s expansion over 8 random
    (arg b1, theta) per modulus of :data:`EXTREMAL_MODULI`: against the
    50-digit expansion of the Blaschke product it builds, and against
    :func:`oracles.extremal_oracle`."""
    rng = np.random.default_rng(seed)
    mp_err = hand_err = 0.0
    for r in EXTREMAL_MODULI:
        for arg, theta in rng.uniform(0.0, 2.0 * math.pi, (8, 2)).tolist():
            b1 = r * cmath.exp(1j * arg)
            g = b2_extremal(b1, theta)
            w = expand_schwarz(g, order)
            mp_err = max(mp_err, float(max_abs_error(w, blaschke_mp(g.phi, g.m, g.zeros, order))))
            hand_err = max(hand_err, float(np.max(np.abs(w - extremal_oracle(b1, theta, order)))))
    return mp_err, hand_err


class TestSecondCoefficientExtremal:
    @pytest.mark.parametrize("order", [12, 24, 64])
    def test_error_envelope(self, order):
        pytest.importorskip("mpmath")
        mp_err, hand_err = extremal_errors(order, order)
        assert mp_err <= EXTREMAL_MP_BOUND
        assert hand_err <= EXTREMAL_HAND_BOUND

    def test_branches(self):
        assert b2_extremal(0.0, 0.7) == FiniteBlaschke(0.7, 2)
        for r in (1.0 - 0.5 * B1_UNIT_TOL, 1.0, 1.0 + 0.5 * B1_UNIT_TOL):
            assert b2_extremal(r * 1j, 0.7) == FiniteBlaschke(math.pi / 2, 1)
        g = b2_extremal((1.0 - 2.0 * B1_UNIT_TOL) * 1j, 0.7)
        assert (g.phi, g.m) == (math.pi / 2, 1) and abs(g.zeros[0]) < 1.0
        with pytest.raises(InvalidGeneratorError, match=r"^\|b1\| must be <= 1$"):
            b2_extremal((1.0 + 2.0 * B1_UNIT_TOL) * 1j, 0.7)


class TestValidation:
    """Each generator checks its invariants when it is built."""

    def test_monomial_k_zero(self):
        # the monomial head checks its power before it builds FiniteBlaschke(theta, k)
        with pytest.raises(InvalidGeneratorError, match="^monomial power k must be >= 1$"):
            parse_generator("monomial(k=0, theta=0)")

    def test_extremal_b1_too_large(self):
        with pytest.raises(InvalidGeneratorError, match=r"\|b1\| must be <= 1"):
            b2_extremal(1.5, 0.0)

    def test_blaschke_m_zero(self):
        with pytest.raises(InvalidGeneratorError, match="m >= 1"):
            FiniteBlaschke(phi=0.0, m=0, zeros=())

    def test_blaschke_zero_too_close_to_boundary(self):
        # a zero needs only |a| < 1: 0.96 and 0.99 are Blaschke zeros, 1 is not
        FiniteBlaschke(phi=0.0, m=1, zeros=(0.96, 0.99j))
        with pytest.raises(InvalidGeneratorError, match=r"open unit disk, \|a\| < 1"):
            FiniteBlaschke(phi=0.0, m=1, zeros=(0.99, 1.0))

    def test_herglotz_empty(self):
        with pytest.raises(InvalidGeneratorError, match="non-empty"):
            HerglotzAtoms(())

    def test_herglotz_bad_weight_sum(self):
        with pytest.raises(InvalidGeneratorError, match="sum to 1"):
            HerglotzAtoms(((0.5, 0.0), (0.6, 1.0)))

    def test_herglotz_nonpositive_weight(self):
        with pytest.raises(InvalidGeneratorError, match="positive"):
            HerglotzAtoms(((1.2, 0.0), (-0.2, 1.0)))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: InverseCayley(HerglotzAtoms(((1.0, 0.5),)), math.inf), "theta must be finite"),
            (lambda: CayleyOfSchwarz(FiniteBlaschke(0.0, 1), math.nan), "theta must be finite"),
            (lambda: b2_extremal(0.5, math.inf), "b1 and theta must be finite"),
            (lambda: b2_extremal(complex(math.nan, 0.0), 0.0), "b1 and theta must be finite"),
            (lambda: FiniteBlaschke(math.nan, 1, ()), "phi must be finite"),
            (lambda: FiniteBlaschke(0.0, 1, (0.5, complex(math.nan, 0.1))), "zeros must be finite"),
            (lambda: FiniteBlaschke(0.0, 1, (complex(0.0, math.inf),)), "zeros must be finite"),
            (lambda: HerglotzAtoms(((1.0, math.inf),)), "weights and angles must be finite"),
            (lambda: HerglotzAtoms(((math.nan, 0.0), (1.0, 0.5))), "weights and angles must be finite"),
        ],
    )
    def test_non_finite_parameter(self, build, message):
        # a nan passes every order comparison, so each is refused by name
        with pytest.raises(InvalidGeneratorError, match=message):
            build()

    def test_cayley_of_a_caratheodory_generator(self):
        with pytest.raises(InvalidGeneratorError, match="not a Schwarz generator"):
            CayleyOfSchwarz(inner=HerglotzAtoms(((1.0, 0.0),)), theta=0)

    def test_inverse_cayley_of_a_schwarz_generator(self):
        with pytest.raises(InvalidGeneratorError, match="not a Caratheodory generator"):
            InverseCayley(inner=FiniteBlaschke(0.0, 1), theta=0)

    def test_nested_wrong_family_is_named_by_its_kind(self):
        # the repr of 200 nested pairs would overflow the stack
        p = HerglotzAtoms(((1.0, 0.0),))
        for _ in range(200):
            p = CayleyOfSchwarz(inner=InverseCayley(inner=p, theta=0.0), theta=0.0)
        with pytest.raises(InvalidGeneratorError, match="^not a Schwarz generator: CayleyOfSchwarz$"):
            CayleyOfSchwarz(inner=p, theta=0.0)

    @pytest.mark.parametrize(
        "entry, arg, cls",
        [
            (expand_schwarz, 4, "Schwarz"),
            (evaluate_schwarz, 0.5, "Schwarz"),
            (expand_caratheodory, 4, "Caratheodory"),
            (evaluate_caratheodory, 0.5, "Caratheodory"),
        ],
        ids=["expand_schwarz", "evaluate_schwarz", "expand_caratheodory",
             "evaluate_caratheodory"],
    )
    def test_entry_points_refuse_the_other_class(self, entry, arg, cls):
        others = (
            [HerglotzAtoms(((1.0, 0.0),)), CayleyOfSchwarz(FiniteBlaschke(0.0, 1), 0.0)]
            if cls == "Schwarz"
            else [FiniteBlaschke(0.0, 1), InverseCayley(HerglotzAtoms(((1.0, 0.0),)), 0.0)]
        )
        for g in others:
            with pytest.raises(InvalidGeneratorError, match=f"not a {cls} generator"):
                entry(g, arg)


class TestEvaluation:
    def test_monomial_closed_form(self):
        g = FiniteBlaschke(0.0, 2)
        z = np.array([0.5, 0.25j])
        assert np.allclose(evaluate_schwarz(g, z), z**2)

    def test_blaschke_evaluation_matches_series_tail(self):
        # closed form agrees with the order-12 expansion well inside the disk
        for g in sample_schwarz(seed=31, count=20, max_degree=4):
            w = expand_schwarz(g, 12)
            z = 0.1 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 7, endpoint=False))
            direct = evaluate_schwarz(g, z)
            horner = np.polyval(w[::-1], z)
            assert np.max(np.abs(direct - horner)) < 1e-12

    def test_schwarz_modulus_contraction_on_grid(self):
        radii = np.linspace(0.1, 0.9, 8)
        angles = np.exp(1j * np.linspace(0.0, 2 * math.pi, 8, endpoint=False))
        z = np.outer(radii, angles).ravel()
        for g in sample_schwarz(seed=13, count=60, max_degree=6):
            w = evaluate_schwarz(g, z)
            assert np.all(np.abs(w) <= np.abs(z) + 1e-9)

    def test_caratheodory_positive_real_part(self):
        z = 0.8 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 16, endpoint=False))
        for g in sample_herglotz(seed=29, count=40):
            p = evaluate_caratheodory(g, z)
            assert np.all(p.real > 0)

    def test_inverse_cayley_generator_evaluates_into_disk(self):
        inner = HerglotzAtoms(((0.4, 0.1), (0.6, 2.0)))
        g = InverseCayley(inner=inner, theta=0.8)
        z = 0.7 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 16, endpoint=False))
        w = evaluate_schwarz(g, z)
        assert np.all(np.abs(w) <= np.abs(z) + 1e-12)
        # the expansion agrees with the closed form at small radius
        series = expand_schwarz(g, 12)
        zs = 0.05 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 5, endpoint=False))
        horner = np.polyval(series[::-1], zs)
        assert np.max(np.abs(horner - evaluate_schwarz(g, zs))) < 1e-13


class TestSampling:
    def test_schwarz_determinism(self):
        a = sample_schwarz(seed=1, count=10, max_degree=5)
        b = sample_schwarz(seed=1, count=10, max_degree=5)
        assert a == b

    def test_schwarz_policy(self):
        gens = sample_schwarz(seed=2, count=1000, max_degree=6)
        assert len(gens) == 1000
        for g in gens:
            assert g.m in (1, 2)
            assert g.m + len(g.zeros) <= 6
            assert all(abs(a) <= 0.9 for a in g.zeros)
        # every m and zero count occurs
        assert {(g.m, len(g.zeros)) for g in gens} == {(m, k) for m in (1, 2) for k in range(7 - m)}
        assert {g.m for g in sample_schwarz(seed=2, count=50, max_degree=1)} == {1}

    def test_schwarz_coefficients_bounded(self):
        from schwarzlab.bounds import coefficient_bound_kernel

        gens = sample_schwarz(seed=3, count=100, max_degree=6)
        W = np.stack([expand_schwarz(g, 12) for g in gens])
        assert (coefficient_bound_kernel(W).slack >= -1e-9).all()

    def test_herglotz_determinism_and_validity(self):
        a = sample_herglotz(seed=4, count=50)
        b = sample_herglotz(seed=4, count=50)
        assert a == b
        for g in a:
            assert 1 <= len(g.atoms) <= 8
            total = sum(w for w, _ in g.atoms)
            assert abs(total - 1.0) <= 1e-12


def _ks_uniform(u) -> float:
    """Kolmogorov-Smirnov distance of a sample from the uniform law on [0, 1]."""
    u = np.sort(np.asarray(u))
    n = len(u)
    return max((np.arange(1, n + 1) / n - u).max(), (u - np.arange(n) / n).max())


class TestSamplingStream:
    """Row i of a corpus reads uniforms [i W, (i + 1) W) of default_rng(seed)."""

    @pytest.mark.parametrize("seed", [0, 42, 1001])
    def test_rows_read_their_own_stretch_of_the_stream(self, seed):
        for sample, rows, width in [
            (lambda n: sample_schwarz(seed, n, 6), families._blaschke_rows, 13),
            (lambda n: sample_herglotz(seed, n), families._herglotz_rows, 17),
        ]:
            stream = np.random.default_rng(seed).random(40 * width)
            corpus = sample(40)
            for i in (0, 1, 39):
                assert rows(stream[i * width : (i + 1) * width][None]) == corpus[i : i + 1]

    @pytest.mark.parametrize("n", [1, 2, 17, 99, 255])
    def test_a_shorter_corpus_is_a_prefix(self, n):
        for degree in (1, 4, 6):
            assert sample_schwarz(7, n, degree) == sample_schwarz(7, 256, degree)[:n]
        for cap in (1, 3, 8):
            assert sample_herglotz(7, n, cap) == sample_herglotz(7, 256, cap)[:n]

    def test_every_atom_count_occurs_and_weights_are_positive(self):
        gens = sample_herglotz(seed=6, count=2000)
        assert {len(g.atoms) for g in gens} == set(range(1, 9))
        for g in gens:
            weights = [w for w, _ in g.atoms]
            assert min(weights) > 0.0
            assert abs(math.fsum(weights) - 1.0) <= families.WEIGHT_SUM_TOL

    def test_laws_of_the_docstrings(self):
        # area-uniform zeros: (|a| / 0.9)^2 is uniform; Dirichlet(1, .., 1) weights:
        # 1 - (1 - w_1)^(n - 1) is uniform for n atoms; angles and phi uniform.
        # The bound is the 1% critical distance of the KS test, 1.63 / sqrt(N).
        gens = sample_schwarz(seed=8, count=4000, max_degree=6)
        zeros = np.array([a for g in gens for a in g.zeros])
        atoms = [g.atoms for g in sample_herglotz(seed=8, count=4000) if len(g.atoms) > 1]
        first = np.array([1.0 - (1.0 - a[0][0]) ** (len(a) - 1) for a in atoms])
        angles = np.array([t for a in atoms for _, t in a])
        for u in (
            (np.abs(zeros) / families.SAMPLING_ZERO_RADIUS) ** 2,
            np.angle(zeros) / (2 * math.pi) % 1.0,
            np.array([g.phi for g in gens]) / (2 * math.pi),
            first,
            angles / (2 * math.pi),
        ):
            assert _ks_uniform(u) < 1.63 / math.sqrt(len(u))

    @pytest.mark.parametrize("u", [0.0, float(np.nextafter(1.0, 0.0))])
    def test_extreme_rows_give_valid_generators(self, u):
        # an all-zero Herglotz row has zero exponentials: the floor keeps it off 0/0
        with np.errstate(all="raise"):
            [blaschke] = families._blaschke_rows(np.full((1, 13), u))
            [atoms] = families._herglotz_rows(np.full((1, 17), u))
        if u == 0.0:
            assert blaschke == FiniteBlaschke(phi=0.0, m=1, zeros=())
            assert atoms == HerglotzAtoms(((1.0, 0.0),))
        else:
            assert (blaschke.m, len(blaschke.zeros)) == (2, 4)
            assert all(abs(a) <= families.SAMPLING_ZERO_RADIUS for a in blaschke.zeros)
            assert len(atoms.atoms) == 8 and all(w == atoms.atoms[0][0] for w, _ in atoms.atoms)
            assert blaschke.phi < 2 * math.pi and atoms.atoms[0][1] < 2 * math.pi


class TestHarmonicBoundaryAtoms:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("theta", [0.0, 2 * math.pi / 5])
    def test_harmonics_hit_the_boundary(self, k, theta):
        p = expand_caratheodory(harmonic_boundary_atoms(k, theta), 12)
        for j in range(1, 13):
            if j % k == 0:
                n = j // k
                assert abs(p[j] - 2 * np.exp(1j * n * theta)) < 1e-12
            else:
                assert abs(p[j]) < 1e-12
