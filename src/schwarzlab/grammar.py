"""Mini-grammar for generator expressions used by the CLI.

Supported constructions::

    monomial(k=INT, theta=REAL)
    extremal1(b1=COMPLEX, theta=REAL)
    blaschke(phi=REAL, m=INT, zeros=[COMPLEX, ...])
    herglotz(atoms=[(REAL, REAL), ...])
    cayley(theta=REAL, SCHWARZ_EXPR)
    invcayley(theta=REAL, CARA_EXPR)

Scalars are arithmetic expressions over numbers, ``pi`` and the imaginary
unit (``i`` or ``j``, also usable as a numeric suffix: ``0.5+0.25i``),
with ``+ - * / **`` and parentheses; a parameter whose value is not
finite (``1e400``, ``1e400-1e400``) is refused by name.  Angles are
radians.  The inner function of ``cayley``/``invcayley`` may be given
positionally or as ``inner=...``.  ``monomial`` and ``extremal1`` build
finite Blaschke products: ``FiniteBlaschke(theta, k)`` and
:func:`~schwarzlab.families.b2_extremal`.
"""

from __future__ import annotations

import cmath
import math
import re

from schwarzlab.families import (
    CaratheodoryGenerator,
    CayleyOfSchwarz,
    FiniteBlaschke,
    HerglotzAtoms,
    InvalidGeneratorError,
    InverseCayley,
    SchwarzGenerator,
    b2_extremal,
)


class GeneratorParseError(ValueError):
    """Generator expression does not match the grammar."""


_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[ij]?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[()\[\],=+\-*/])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_SCHWARZ_HEADS = {"monomial", "extremal1", "blaschke", "invcayley"}
_CARA_HEADS = {"herglotz", "cayley"}
_HEADS = _SCHWARZ_HEADS | _CARA_HEADS


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise GeneratorParseError(
                f"unexpected character {m.group()!r} at position {m.start()}"
            )
        out.append((kind, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise GeneratorParseError(
                f"expected {value!r} at position {at}, found {val or 'end of input'!r}"
            )

    def fail(self, message: str):
        _, val, at = self.peek()
        raise GeneratorParseError(
            f"{message} at position {at} (near {val or 'end of input'!r})"
        )

    # value := generator call | list | scalar expression
    def parse_value(self):
        kind, val, _ = self.peek()
        if kind == "name" and val in _HEADS and self.peek(1)[1] == "(":
            return self.parse_call()
        if val == "[":
            return self.parse_list()
        return self.parse_expr()

    def parse_call(self):
        _, head, _ = self.next()
        self.expect("(")
        kwargs: dict[str, object] = {}
        positional: list[object] = []
        if self.peek()[1] != ")":
            while True:
                if (
                    self.peek()[0] == "name"
                    and self.peek()[1] not in _HEADS
                    and self.peek(1)[1] == "="
                ):
                    _, key, _ = self.next()
                    self.next()  # '='
                    if key in kwargs:
                        self.fail(f"duplicate argument {key!r}")
                    kwargs[key] = self.parse_value()
                else:
                    positional.append(self.parse_value())
                if self.peek()[1] == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        return _build(head, positional, kwargs, self)

    def parse_list(self):
        self.expect("[")
        items = []
        if self.peek()[1] != "]":
            while True:
                if self.peek()[1] == "(":
                    items.append(self.parse_parenthesized())
                else:
                    items.append(self.parse_value())
                if self.peek()[1] == ",":
                    self.next()
                    continue
                break
        self.expect("]")
        return items

    def parse_parenthesized(self):
        # inside a list, "(a, b, ...)" is a tuple; "(expr)" a grouped scalar
        self.expect("(")
        items = [self.parse_expr()]
        while self.peek()[1] == ",":
            self.next()
            items.append(self.parse_expr())
        self.expect(")")
        return items[0] if len(items) == 1 else tuple(items)

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> complex:
        value = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> complex:
        value = self.parse_power()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.parse_power()
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0:
                    self.fail("division by zero")
                value = value / rhs
        return value

    def parse_power(self) -> complex:
        base = self.parse_unary()
        if self.peek()[1] == "**":
            self.next()
            return base ** self.parse_power()
        return base

    def parse_unary(self) -> complex:
        if self.peek()[1] == "-":
            self.next()
            return -self.parse_unary()
        if self.peek()[1] == "+":
            self.next()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self) -> complex:
        kind, val, at = self.peek()
        if val == "(":
            self.next()
            value = self.parse_expr()
            self.expect(")")
            return value
        if kind == "num":
            self.next()
            if val[-1] in "ij":
                return complex(0.0, float(val[:-1]))
            return complex(float(val), 0.0)
        if kind == "name":
            if val == "pi":
                self.next()
                return complex(math.pi, 0.0)
            if val in ("i", "j"):
                self.next()
                return 1j
            if val in _HEADS:
                raise GeneratorParseError(
                    f"generator {val!r} not allowed inside arithmetic at position {at}"
                )
            raise GeneratorParseError(f"unknown name {val!r} at position {at}")
        raise GeneratorParseError(
            f"expected a value at position {at}, found {val or 'end of input'!r}"
        )


def _as_scalar(value, what: str) -> complex:
    if not isinstance(value, complex):
        # named by its kind: the repr of a deeply nested generator overflows the stack
        raise GeneratorParseError(f"{what} must be a number, got {type(value).__name__}")
    if not cmath.isfinite(value):
        raise GeneratorParseError(f"{what} must be finite")
    return value


def _as_real(value, what: str) -> float:
    z = _as_scalar(value, what)
    if abs(z.imag) > 1e-12:
        raise GeneratorParseError(f"{what} must be real, got {z!r}")
    return z.real


def _as_int(value, what: str) -> int:
    x = _as_real(value, what)
    if abs(x - round(x)) > 1e-9:
        raise GeneratorParseError(f"{what} must be an integer, got {x!r}")
    n = int(round(x))
    if not -(2**63) <= n < 2**63:  # the generators hold integers as int64
        raise GeneratorParseError(f"{what} must fit in 64 bits, got {x!r}")
    return n


def _take(kwargs: dict, positional: list, key: str, parser: _Parser):
    if key in kwargs:
        return kwargs.pop(key)
    if positional:
        return positional.pop(0)
    parser.fail(f"missing argument {key!r}")


def _build(head: str, positional: list, kwargs: dict, parser: _Parser):
    if head == "monomial":
        k = _as_int(_take(kwargs, positional, "k", parser), "k")
        theta = _as_real(_take(kwargs, positional, "theta", parser), "theta")
        if k < 1:
            raise InvalidGeneratorError("monomial power k must be >= 1")
        gen = FiniteBlaschke(phi=theta, m=k)
    elif head == "extremal1":
        b1 = _as_scalar(_take(kwargs, positional, "b1", parser), "b1")
        theta = _as_real(_take(kwargs, positional, "theta", parser), "theta")
        gen = b2_extremal(b1, theta)
    elif head == "blaschke":
        phi = _as_real(_take(kwargs, positional, "phi", parser), "phi")
        m = _as_int(_take(kwargs, positional, "m", parser), "m")
        # optional; a positional value is taken only when no keyword gives it
        has_zeros = "zeros" in kwargs or positional
        zeros = _take(kwargs, positional, "zeros", parser) if has_zeros else []
        if not isinstance(zeros, list):
            raise GeneratorParseError("zeros must be a list")
        gen = FiniteBlaschke(
            phi=phi, m=m, zeros=tuple(_as_scalar(z, "zero") for z in zeros)
        )
    elif head == "herglotz":
        atoms = _take(kwargs, positional, "atoms", parser)
        if not isinstance(atoms, list):
            raise GeneratorParseError("atoms must be a list of (weight, angle) pairs")
        pairs = []
        for item in atoms:
            if not isinstance(item, tuple) or len(item) != 2:
                raise GeneratorParseError(
                    "each atom must be a (weight, angle) pair"
                )
            pairs.append((_as_real(item[0], "weight"), _as_real(item[1], "angle")))
        gen = HerglotzAtoms(tuple(pairs))
    elif head in ("cayley", "invcayley"):
        theta = _as_real(_take(kwargs, positional, "theta", parser), "theta")
        inner = _take(kwargs, positional, "inner", parser)
        if head == "cayley":
            if not isinstance(inner, SchwarzGenerator):
                raise GeneratorParseError("cayley needs a Schwarz-class inner function")
            gen = CayleyOfSchwarz(inner=inner, theta=theta)
        else:
            if not isinstance(inner, CaratheodoryGenerator):
                raise GeneratorParseError(
                    "invcayley needs a Caratheodory-class inner function"
                )
            gen = InverseCayley(inner=inner, theta=theta)
    else:  # pragma: no cover - heads are filtered before dispatch
        raise GeneratorParseError(f"unknown generator {head!r}")
    if positional:
        raise GeneratorParseError(f"too many arguments to {head!r}")
    if kwargs:
        raise GeneratorParseError(
            f"unknown arguments to {head!r}: {sorted(kwargs)}"
        )
    return gen


def parse_generator(text: str) -> SchwarzGenerator | CaratheodoryGenerator:
    """Parse a generator expression.

    Raises GeneratorParseError on input outside the grammar or nested too
    deeply, and InvalidGeneratorError (from the generator's constructor) on
    parameters outside its family, such as ``blaschke(phi=0, m=0)``.
    """
    parser = _Parser(text)
    try:
        value = parser.parse_value()
    except RecursionError:  # the parser takes a few frames per nesting level
        raise GeneratorParseError("expression nests too deeply") from None
    kind, val, at = parser.peek()
    if kind != "end":
        raise GeneratorParseError(f"trailing input at position {at}: {val!r}")
    if not isinstance(value, (SchwarzGenerator, CaratheodoryGenerator)):
        raise GeneratorParseError("expression is a bare number, not a generator")
    return value
