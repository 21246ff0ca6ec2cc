"""Finite sums of rational multiples of integer powers of a parameter t.

This tiny grammar is what edge length families and block scale functions
are written in: c1*t^k1 + c2*t^k2 + ... with every coefficient a positive
rational and every exponent an integer.  Positivity of the coefficients
means no cancellation, so the behaviour as t -> 0+ is read off the
smallest exponent; limits computed here are exact.

Evaluation is the one place that takes exact powers of t, and it works
in integers: with t = p/q, the terms (a_i/b_i) t^k_i are summed as
integers over the one common denominator B p^-k_min q^k_max, for B the
lcm of the b_i, k_min the smallest exponent or 0 and k_max the largest
or 0, and the value is built as one Fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import FamilyError

_TERM = re.compile(
    r"""^\s*
    (?:(?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*)?)?
    (?:t(?:\^(?P<exp>-?\d+))?)?
    \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class ScaleFunction:
    """A sum of terms coeff * t^exponent with positive rational coeffs."""

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise FamilyError("a scale function needs at least one term")
        merged: dict[int, Fraction] = {}
        for k, c in self.terms:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            merged[k] = merged[k] + c if k in merged else c
        for k, c in merged.items():
            if c.numerator <= 0:
                raise FamilyError(f"coefficient of t^{k} must be positive, got {c}")
        object.__setattr__(self, "terms", tuple(sorted(merged.items())))

    @classmethod
    def power(cls, exponent: int, coeff=1) -> "ScaleFunction":
        return cls(terms=((exponent, Fraction(coeff)),))

    @property
    def dominant_exponent(self) -> int:
        """Exponent governing the behaviour as t -> 0+."""
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> Fraction:
        return self.terms[0][1]

    def coefficient_at(self, exponent: int) -> Fraction:
        for k, c in self.terms:
            if k == exponent:
                return c
        return Fraction(0)

    def evaluate(self, t: Fraction) -> Fraction:
        t = t if isinstance(t, Fraction) else Fraction(t)
        p, q = t.numerator, t.denominator
        if p <= 0:
            raise FamilyError("scale functions are evaluated at t > 0")
        low, high = min(self.terms[0][0], 0), max(self.terms[-1][0], 0)
        base = lcm(*[c.denominator for _, c in self.terms])
        num = sum(
            base // c.denominator * c.numerator * p ** (k - low) * q ** (high - k)
            for k, c in self.terms
        )
        return Fraction(num, base * p**-low * q**high)

    def scaled(self, factor) -> "ScaleFunction":
        f = Fraction(factor)
        return ScaleFunction(terms=tuple((k, c * f) for k, c in self.terms))


def parse_scale(text: str) -> ScaleFunction:
    """Parse strings like ``1/2*t + 3*t^2`` or ``1`` or ``t^-2``.

    Every term needs a positive rational coefficient (implicitly 1 when
    only a power of t is written) and an integer exponent (implicitly 1
    for a bare t, 0 for a bare coefficient).
    """
    terms: list[tuple[int, Fraction]] = []
    for piece in str(text).split("+"):
        m = _TERM.match(piece)
        if not m or (m.group("coeff") is None and "t" not in piece):
            raise FamilyError(f"cannot parse term {piece.strip()!r}")
        try:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        except ZeroDivisionError:
            raise FamilyError(f"zero denominator in term {piece.strip()!r}") from None
        if "t" in piece:
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        else:
            exp = 0
        terms.append((exp, coeff))
    return ScaleFunction(terms=tuple(terms))


def ratio_limit(numerator: ScaleFunction, denominator: ScaleFunction) -> Fraction:
    """Exact limit of numerator/denominator as t -> 0+.

    Zero when the numerator vanishes faster; the ratio of leading
    coefficients when they match; an error when the ratio diverges.
    """
    dn = numerator.dominant_exponent
    dd = denominator.dominant_exponent
    if dn > dd:
        return Fraction(0)
    if dn == dd:
        return numerator.leading_coefficient / denominator.leading_coefficient
    raise FamilyError("ratio diverges as t -> 0")


def geometric_grid(first_exp: int = 1, last_exp: int = 6) -> tuple[Fraction, ...]:
    """Sample points 10^-k, base fixed at 10, for k from first_exp to last_exp."""
    if first_exp > last_exp or first_exp < 1:
        raise FamilyError("grid exponents must satisfy 1 <= first <= last")
    return tuple(Fraction(1, 10**k) for k in range(first_exp, last_exp + 1))


def validate_grid(grid: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """A sample grid as exact rationals: nonempty, positive, strictly decreasing."""
    pts = tuple(Fraction(t) for t in grid)
    if not pts:
        raise FamilyError("empty grid")
    if any(t <= 0 for t in pts):
        raise FamilyError("grid points must be positive")
    if any(b >= a for a, b in zip(pts, pts[1:])):
        raise FamilyError("grid must be strictly decreasing")
    return pts


def product(factors: Iterable[ScaleFunction]) -> ScaleFunction:
    """Product of scale functions, each term of the product so far times
    each term of the next factor; the empty product is 1."""
    out = ScaleFunction.power(0)
    for f in factors:
        out = ScaleFunction(
            terms=tuple((k1 + k2, c1 * c2) for k1, c1 in out.terms for k2, c2 in f.terms)
        )
    return out
