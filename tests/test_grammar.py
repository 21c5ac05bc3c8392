"""Tests for the generator expression grammar."""

import math

import pytest

from schwarzlab.families import (
    InvalidGeneratorError,
    CayleyOfSchwarz,
    FiniteBlaschke,
    HerglotzAtoms,
    InverseCayley,
    b2_extremal,
)
from schwarzlab.grammar import GeneratorParseError, parse_generator


def test_monomial():
    g = parse_generator("monomial(k=3, theta=0.5)")
    assert g == FiniteBlaschke(phi=0.5, m=3)


def test_pi_and_arithmetic():
    g = parse_generator("monomial(k=2, theta=2*pi/5)")
    assert g.phi == pytest.approx(2 * math.pi / 5)


def test_extremal_complex_literal_with_i_suffix():
    g = parse_generator("extremal1(b1=0.5+0.25i, theta=-pi/3)")
    assert g == b2_extremal(0.5 + 0.25j, -math.pi / 3)


def test_j_suffix_and_bare_unit():
    g = parse_generator("blaschke(phi=0, m=1, zeros=[0.25j, 0.5*i, -0.1])")
    assert g.zeros == (0.25j, 0.5j, -0.1 + 0j)


def test_blaschke_worked_example():
    g = parse_generator("blaschke(phi=pi, m=1, zeros=[0.5])")
    assert isinstance(g, FiniteBlaschke)
    assert g.phi == pytest.approx(math.pi)
    assert g.m == 1 and g.zeros == (0.5 + 0j,)


def test_herglotz_atoms():
    g = parse_generator("herglotz(atoms=[(0.5, 0), (0.5, pi)])")
    assert isinstance(g, HerglotzAtoms)
    assert g.atoms[0] == (0.5, 0.0)
    assert g.atoms[1][1] == pytest.approx(math.pi)


def test_nested_cayley_positional_inner():
    g = parse_generator("cayley(theta=0, blaschke(phi=pi, m=1, zeros=[0.5]))")
    assert isinstance(g, CayleyOfSchwarz)
    assert isinstance(g.inner, FiniteBlaschke)


def test_nested_invcayley_keyword_inner():
    g = parse_generator("invcayley(theta=1.0, inner=herglotz(atoms=[(1, 0.3)]))")
    assert isinstance(g, InverseCayley)
    assert isinstance(g.inner, HerglotzAtoms)


def test_deep_nesting():
    g = parse_generator(
        "invcayley(theta=0.2, cayley(theta=0.1, monomial(k=1, theta=0)))"
    )
    assert isinstance(g.inner, CayleyOfSchwarz)
    assert g.inner.inner == FiniteBlaschke(phi=0.0, m=1)


@pytest.mark.parametrize(
    "text",
    [
        "invcayley(theta=0, cayley(theta=0, " * 400 + "blaschke(phi=0, m=1)" + "))" * 400,
        "monomial(k=1, theta=" + "(" * 2000 + "0" + ")" * 2000 + ")",
    ],
    ids=["400-invcayley-cayley-pairs", "2000-parentheses"],
)
def test_too_deep_nesting_is_a_parse_error(text):
    # the interpreter's recursion limit is left as it is
    with pytest.raises(GeneratorParseError, match="^expression nests too deeply$"):
        parse_generator(text)


def test_nested_value_is_named_by_its_kind():
    # 200 pairs parse, but their repr would overflow the stack
    inner = "invcayley(theta=0, cayley(theta=0, " * 200 + "blaschke(phi=0, m=1)" + "))" * 200
    with pytest.raises(GeneratorParseError, match="^k must be a number, got InverseCayley$"):
        parse_generator(f"monomial(k={inner}, theta=0)")
    with pytest.raises(GeneratorParseError, match="^zero must be a number, got list$"):
        parse_generator("blaschke(phi=0, m=1, zeros=[[0.5]])")


#: every numeric parameter of every head, with a slot for its value
PARAMETER_SLOTS = [
    ("monomial(k={}, theta=0)", "k"),
    ("monomial(k=1, theta={})", "theta"),
    ("extremal1(b1={}, theta=0)", "b1"),
    ("extremal1(b1=0.5, theta={})", "theta"),
    ("blaschke(phi={}, m=1)", "phi"),
    ("blaschke(phi=0, m={})", "m"),
    ("blaschke(phi=0, m=1, zeros=[0.5, {}])", "zero"),
    ("herglotz(atoms=[({}, 0)])", "weight"),
    ("herglotz(atoms=[(1, {})])", "angle"),
    ("cayley(theta={}, monomial(k=1, theta=0))", "theta"),
    ("invcayley(theta={}, herglotz(atoms=[(1, 0)]))", "theta"),
]
#: an overflowing literal, an overflowing product and inf - inf (nan)
NON_FINITE = ["1e400", "1e200*1e200", "1e400-1e400"]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("template, name", PARAMETER_SLOTS, ids=[t for t, _ in PARAMETER_SLOTS])
def test_non_finite_parameter_is_refused_by_name(template, name, value):
    with pytest.raises(GeneratorParseError, match=f"^{name} must be finite$"):
        parse_generator(template.format(value))


@pytest.mark.parametrize(
    "text, name",
    [("monomial(k=1e30, theta=0)", "k"), ("blaschke(phi=0, m=1e19)", "m"),
     ("blaschke(phi=0, m=-1e19)", "m")],
)
def test_integer_parameter_beyond_int64_is_refused_by_name(text, name):
    with pytest.raises(GeneratorParseError, match=f"^{name} must fit in 64 bits"):
        parse_generator(text)


def test_non_finite_imaginary_part_is_refused():
    with pytest.raises(GeneratorParseError, match="^b1 must be finite$"):
        parse_generator("extremal1(b1=0.5+1e400i, theta=0)")


def test_power_operator_and_parens():
    g = parse_generator("monomial(k=1, theta=(1+1)**2/4)")
    assert g.phi == pytest.approx(1.0)


@pytest.mark.parametrize(
    "text",
    [
        "bogus(k=1)",
        "monomial(k=1",
        "monomial(k=1, theta=0) trailing",
        "monomial(k=0.5, theta=0)",
        "monomial(theta=0)",
        "extremal1(b1=0.5, theta=i)",
        "cayley(theta=0, herglotz(atoms=[(1,0)]))",
        "invcayley(theta=0, monomial(k=1, theta=0))",
        "herglotz(atoms=[(1, 0, 3)])",
        "herglotz(atoms=0.5)",
        "monomial(k=1, theta=1/0)",
        "monomial(k=1, theta=0, extra=2)",
        "0.5 + 2",
        "monomial(k=1, k=2, theta=0)",
        "blaschke(phi=0, m=1, zeros=0.5)",
        # a positional value next to zeros= is extra, not dropped
        "blaschke(phi=0, m=1, zeros=[0.5], 7)",
        "blaschke(0, 1, 7, zeros=[0.5])",
    ],
)
def test_rejects_malformed(text):
    with pytest.raises(GeneratorParseError):
        parse_generator(text)


def test_blaschke_zeros_by_position_or_keyword():
    # a positional value is the zeros only when no keyword gives them
    assert parse_generator("blaschke(0, 1, [0.5])") == parse_generator(
        "blaschke(phi=0, m=1, zeros=[0.5])"
    )
    with pytest.raises(GeneratorParseError, match="too many arguments to 'blaschke'"):
        parse_generator("blaschke(0, 1, 7, zeros=[0.5])")


@pytest.mark.parametrize(
    "text, message",
    [
        ("blaschke(phi=0, m=0)", "m >= 1"),
        ("monomial(k=0, theta=0)", "k must be >= 1"),
        ("extremal1(b1=1.5, theta=0)", "must be <= 1"),
        ("herglotz(atoms=[(0.5, 0)])", "sum to 1"),
        # the inner generator is refused when it is built, at any depth
        ("cayley(theta=0, invcayley(theta=1, herglotz(atoms=[(-1, 0), (2, 1)])))", "positive"),
    ],
)
def test_out_of_family_parameters_are_refused_when_built(text, message):
    with pytest.raises(InvalidGeneratorError, match=message):
        parse_generator(text)


def test_class_partition():
    schwarz = [
        "monomial(k=1, theta=0)",
        "extremal1(b1=0.1, theta=0)",
        "blaschke(phi=0, m=2, zeros=[])",
        "invcayley(theta=0, herglotz(atoms=[(1, 0)]))",
    ]
    cara = [
        "herglotz(atoms=[(1, 0)])",
        "cayley(theta=0, monomial(k=1, theta=0))",
    ]
    for text in schwarz:
        g = parse_generator(text)
        assert isinstance(g, (FiniteBlaschke, InverseCayley))
    for text in cara:
        g = parse_generator(text)
        assert isinstance(g, (HerglotzAtoms, CayleyOfSchwarz))
