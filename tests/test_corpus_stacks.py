"""Tests for the corpus stacks: BlaschkeStack and HerglotzStack.

A stack checks its family's invariants once, by the definition the
generator dataclass runs on its one row, so both refuse the same rows with
the same message.  The slots past a row's count are padding: whatever they
hold, validation passes and every kernel returns the clean stack's bits.
"""

import math

import numpy as np
import pytest

import schwarzlab.cli as cli
from schwarzlab.families import (
    BlaschkeStack,
    FiniteBlaschke,
    HerglotzAtoms,
    HerglotzStack,
    InvalidGeneratorError,
    InverseCayley,
    evaluate_blaschke,
    expand_blaschke,
    harmonic_boundary_atoms,
    harmonic_boundary_stack,
    herglotz_block,
    sample_herglotz,
    sample_schwarz,
)
from schwarzlab.regions import attainability_scan

VERIFY_GRID = (np.array(cli.VERIFY_RADII)[:, None]
               * np.exp(2j * math.pi * np.arange(16) / 16)).ravel()
SEEDS = (0, 42, 1001)


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def unused(stack, padded):
    return np.arange(padded.shape[1]) >= stack.counts[:, None]


def refusal(build) -> str:
    with pytest.raises(InvalidGeneratorError) as info:
        build()
    return str(info.value)


class TestPadding:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf, 5.0, -3.0])
    def test_padding_never_leaks(self, seed, fill):
        schwarz, herglotz = sample_schwarz(seed, 100, 6), sample_herglotz(seed, 100)
        zeros = np.array(schwarz.zeros)
        zeros[unused(schwarz, zeros)] = complex(fill, fill)
        weights, angles = np.array(herglotz.weights), np.array(herglotz.angles)
        weights[unused(herglotz, weights)] = fill
        angles[unused(herglotz, angles)] = fill
        with np.errstate(all="raise"):
            dirty = BlaschkeStack(schwarz.phi, schwarz.m, schwarz.counts, zeros)
            atoms = HerglotzStack(herglotz.counts, weights, angles)
            for order in (4, 12):
                assert np.array_equal(bits(expand_blaschke(dirty, order)),
                                      bits(expand_blaschke(schwarz, order)))
                assert np.array_equal(bits(herglotz_block(atoms, order)),
                                      bits(herglotz_block(herglotz, order)))
            assert np.array_equal(bits(evaluate_blaschke(dirty, VERIFY_GRID)),
                                  bits(evaluate_blaschke(schwarz, VERIFY_GRID)))
        assert dirty == schwarz and atoms == herglotz
        assert list(dirty) == list(schwarz) and list(atoms) == list(herglotz)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_of_a_list_reproduces_the_used_slots(self, seed):
        for stack, padded in [(sample_schwarz(seed, 60, 6), "zeros"),
                              (sample_herglotz(seed, 60), "weights")]:
            again = type(stack).of(list(stack))
            assert again == stack
            assert np.array_equal(again.counts, stack.counts)
            assert getattr(again, padded).shape[1] == stack.counts.max()
            for name in ("phi", "m", "zeros", "weights", "angles"):
                if not hasattr(stack, name):
                    continue
                a, b = getattr(stack, name), getattr(again, name)
                if a.ndim == 2:
                    a = a[~unused(stack, a)]
                    b = b[~unused(again, b)]
                assert np.array_equal(bits(a), bits(b)), name

    def test_a_stack_is_its_own_stack(self):
        stack = sample_schwarz(3, 10, 6)
        assert BlaschkeStack.of(stack) is stack


class TestSequence:
    def test_rows_are_the_generators(self):
        stack = sample_schwarz(5, 30, 6)
        for i, g in enumerate(stack):
            k = int(stack.counts[i])
            assert g == FiniteBlaschke(float(stack.phi[i]), int(stack.m[i]),
                                       tuple(stack.zeros[i, :k].tolist()))
            assert type(g.phi) is float and type(g.m) is int
            assert all(type(a) is complex for a in g.zeros)
        assert stack[-1] == stack[len(stack) - 1]
        with pytest.raises(IndexError):
            stack[len(stack)]
        atoms = sample_herglotz(5, 30)
        assert atoms[2].atoms == tuple(
            zip(atoms.weights[2, : atoms.counts[2]].tolist(),
                atoms.angles[2, : atoms.counts[2]].tolist())
        )

    def test_a_slice_is_a_stack_of_those_rows(self):
        for stack in (sample_schwarz(6, 40, 6), sample_herglotz(6, 40)):
            part = stack[5:17]
            assert type(part) is type(stack) and len(part) == 12
            assert list(part) == list(stack)[5:17]

    def test_arrays_are_read_only(self):
        stack = sample_schwarz(7, 10, 6)
        for part in (stack, stack[2:5], BlaschkeStack.of(list(stack))):
            with pytest.raises(ValueError):
                part.zeros[0, 0] = 0.0
            with pytest.raises(ValueError):
                part.m[0] = 0
        atoms = sample_herglotz(7, 10)
        with pytest.raises(ValueError):
            atoms.weights[0, 0] = 1.0

    def test_the_caller_keeps_its_arrays(self):
        zeros = np.zeros((2, 1), dtype=complex)
        stack = BlaschkeStack([0.0, 1.0], [1, 2], [1, 0], zeros)
        zeros[0, 0] = 0.5
        assert stack.zeros[0, 0] == 0 and zeros.flags.writeable

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="one row per function"):
            BlaschkeStack([0.0], [1, 1], [0, 0], np.zeros((2, 1)))
        with pytest.raises(ValueError, match="counts must lie in 0 .. 1"):
            BlaschkeStack([0.0], [1], [2], np.zeros((1, 1)))
        with pytest.raises(ValueError, match="one shape"):
            HerglotzStack([1], [[1.0]], [[0.0, 0.0]])


class TestValidation:
    """A stack refuses a bad row with the message of the generator's own check."""

    def test_power_below_one(self):
        stack = sample_schwarz(8, 20, 6)
        m = np.array(stack.m)
        m[13] = 0
        assert refusal(lambda: BlaschkeStack(stack.phi, m, stack.counts, stack.zeros)) == (
            refusal(lambda: FiniteBlaschke(phi=0.0, m=0))
        )

    def test_zero_beyond_the_cap(self):
        # the cap on a zero's modulus is the unit circle: |a| < 1
        stack = sample_schwarz(8, 20, 6)
        row = int(np.flatnonzero(stack.counts >= 2)[0])
        zeros = np.array(stack.zeros)
        for modulus in (1.0, 1.5):
            zeros[row, 1] = modulus
            message = refusal(lambda: FiniteBlaschke(phi=0.0, m=1, zeros=(0.2, modulus)))
            assert message == "Blaschke zeros must lie in the open unit disk, |a| < 1"
            assert refusal(lambda: BlaschkeStack(stack.phi, stack.m, stack.counts, zeros)) == message
        zeros[row, 1] = 0.99
        BlaschkeStack(stack.phi, stack.m, stack.counts, zeros)
        FiniteBlaschke(phi=0.0, m=1, zeros=(0.2, 0.99))

    @pytest.mark.parametrize(
        "atoms",
        [((0.5, 0.0), (0.5, 1.0), (0.0, 2.0)), ((1.2, 0.0), (-0.2, 1.0)),
         ((0.5, 0.0), (0.6, 1.0)), ()],
        ids=["zero_weight", "negative_weight", "sum_above_one", "empty"],
    )
    def test_herglotz_rows(self, atoms):
        stack = sample_herglotz(9, 20)
        counts, weights, angles = (np.array(a) for a in (stack.counts, stack.weights, stack.angles))
        counts[11] = len(atoms)
        weights[11, : len(atoms)] = [w for w, _ in atoms]
        angles[11, : len(atoms)] = [t for _, t in atoms]
        assert refusal(lambda: HerglotzStack(counts, weights, angles)) == (
            refusal(lambda: HerglotzAtoms(atoms))
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_used_slots(self, value):
        stack = sample_schwarz(8, 20, 6)
        row = int(np.flatnonzero(stack.counts >= 2)[0])
        phi, zeros = np.array(stack.phi), np.array(stack.zeros)
        phi[row] = value
        assert refusal(lambda: BlaschkeStack(phi, stack.m, stack.counts, stack.zeros)) == (
            refusal(lambda: FiniteBlaschke(value, 1))
        )
        zeros[row, 1] = complex(0.1, value)
        assert refusal(lambda: BlaschkeStack(stack.phi, stack.m, stack.counts, zeros)) == (
            refusal(lambda: FiniteBlaschke(0.0, 1, (0.2, complex(0.1, value))))
        )
        atoms = sample_herglotz(9, 20)
        for column in ("weights", "angles"):
            arrays = {name: np.array(getattr(atoms, name)) for name in ("weights", "angles")}
            arrays[column][11, 0] = value
            pair = (value, 0.0) if column == "weights" else (1.0, value)
            assert refusal(lambda: HerglotzStack(atoms.counts, **arrays)) == (
                refusal(lambda: HerglotzAtoms((pair,)))
            )

    def test_another_family_in_a_list(self):
        gens = [*sample_schwarz(3, 4, 6), InverseCayley(HerglotzAtoms(((1.0, 0.0),)), 0.0)]
        for convert in (BlaschkeStack.of, lambda g: expand_blaschke(g, 6),
                        lambda g: evaluate_blaschke(g, VERIFY_GRID)):
            with pytest.raises(InvalidGeneratorError,
                               match="^not a finite Blaschke product: InverseCayley$"):
                convert(gens)
        with pytest.raises(InvalidGeneratorError, match="^not a Herglotz atom sum: FiniteBlaschke$"):
            HerglotzStack.of([*sample_herglotz(3, 2), FiniteBlaschke(0.0, 1)])

    def test_harmonic_boundary_rows(self):
        stack = harmonic_boundary_stack([(1, 0.0), (3, 0.4)])
        assert list(stack) == [harmonic_boundary_atoms(1, 0.0), harmonic_boundary_atoms(3, 0.4)]
        with pytest.raises(ValueError, match="k must be >= 1"):
            harmonic_boundary_stack([(2, 0.0), (0, 0.0)])


def test_verify_and_scan_build_no_generator(monkeypatch):
    """verify and scan run on the stack arrays alone: building a generator would raise."""
    config = cli.RunConfig(command="verify", samples=40, seed=5)
    want = cli.run(config), attainability_scan(5, 60)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built on the corpus path")

    monkeypatch.setattr(FiniteBlaschke, "__post_init__", refuse)
    monkeypatch.setattr(HerglotzAtoms, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        FiniteBlaschke(0.0, 1)
    got = cli.run(config), attainability_scan(5, 60)
    assert got[0] == want[0]
    assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
