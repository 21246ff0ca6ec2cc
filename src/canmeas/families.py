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
or 0.  :meth:`ScaleFunction.evaluate_pair` returns that integer pair,
which the exact lane reduces and the period lane divides into a double;
:meth:`ScaleFunction.pair_digits` bounds its digits without building it.

Exact rationals are read from text under one bound, ``RATIONAL_DIGITS``
decimal digits in the numerator and in the denominator:
:func:`oversized_rational` reads the digit counts off the text, before
any int is built, so an input such as ``1e-2000000`` is refused at once
instead of being expanded.  Reports print every exact value in full,
and Python refuses to print an int of more than 4,300 digits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, lcm, log10
from typing import Iterable

from .errors import FamilyError, excerpt

# The most decimal digits that the numerator or the denominator of an
# exact rational read from text may have: document lengths, targets and
# scale coefficients, and `--grid` points.
RATIONAL_DIGITS = 4_000

# The grammar of Fraction(str): p/q, or a decimal with an optional
# exponent, underscores allowed between digits.  Few texts need it, so
# re compiles it on first use, not on import.
_RATIONAL = (
    r"\s*[-+]?(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)"
    r"(?:/(?P<den>\d+(?:_\d+)*)"
    r"|(?:\.(?P<frac>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*"
)
# Exponents with more digits than this are over any digit bound.
_EXPONENT_DIGITS = len(str(RATIONAL_DIGITS)) + 1


def _significant(digits: str) -> str:
    return digits.replace("_", "").lstrip("0")


def oversized_rational(text: str) -> bool:
    """Whether Fraction(text), before it is reduced, has a numerator or a
    denominator of more than RATIONAL_DIGITS digits, read off the text
    without building an int.

    Without an exponent a rational has no more digits than its text.  A
    decimal m.f e x with D significant mantissa digits is the integer
    mantissa times 10^(x - len(f)): its numerator has at most D plus the
    positive part of that exponent digits, and 10^-n, the denominator for
    a negative one, has n + 1.  A text that is no rational is not
    oversized; Fraction refuses it.
    """
    if len(text) <= RATIONAL_DIGITS and "e" not in text and "E" not in text:
        return False
    m = re.fullmatch(_RATIONAL, text)
    if m is None:
        return False
    num = len(_significant(m.group("num")))
    if m.group("den") is not None:
        return max(num, len(_significant(m.group("den")))) > RATIONAL_DIGITS
    frac = (m.group("frac") or "").replace("_", "")
    exp_text = (m.group("exp") or "0").replace("_", "")
    exp_digits = exp_text.lstrip("+-").lstrip("0") or "0"
    if len(exp_digits) > _EXPONENT_DIGITS:
        return True
    exp = (-1 if exp_text[0] == "-" else 1) * int(exp_digits) - len(frac)
    mantissa = len(_significant(m.group("num") + frac))
    return max(mantissa + max(exp, 0), 1 - min(exp, 0)) > RATIONAL_DIGITS


_TERM = re.compile(
    r"""^\s*
    (?:(?P<coeff>(?P<num>\d+)(?:/(?P<den>\d+))?)\s*(?:\*\s*)?)?
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

    @cached_property
    def _integer_terms(self) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
        # (k_min or 0, k_max or 0, B, ((k_i, a_i B / b_i), ...)), read once.
        base = lcm(*[c.denominator for _, c in self.terms])
        scaled = tuple((k, base // c.denominator * c.numerator) for k, c in self.terms)
        return min(self.terms[0][0], 0), max(self.terms[-1][0], 0), base, scaled

    def evaluate_pair(self, t: Fraction) -> tuple[int, int]:
        """The value at t as integers (num, den), den > 0, over the common
        denominator B p^-k_min q^k_max; not reduced."""
        t = t if isinstance(t, Fraction) else Fraction(t)
        p, q = t.numerator, t.denominator
        if p <= 0:
            raise FamilyError("scale functions are evaluated at t > 0")
        low, high, base, scaled = self._integer_terms
        num = sum(a * p ** (k - low) * q ** (high - k) for k, a in scaled)
        return num, base * p**-low * q**high

    def pair_digits(self, t: Fraction) -> int:
        """An upper bound, from logarithms and before any power is taken, on
        the decimal digits of :meth:`evaluate_pair` at t > 0, numerator and
        denominator together: log10 of the denominator B p^-k_min q^k_max,
        plus log10 of n times the largest of the n scaled terms that the
        numerator sums, plus a digit for each.  OverflowError when an
        exponent is beyond binary64."""
        lp, lq = log10(t.numerator), log10(t.denominator)
        low, high, base, scaled = self._integer_terms
        largest = max(log10(a) + (k - low) * lp + (high - k) * lq for k, a in scaled)
        return ceil(log10(base) - low * lp + high * lq + log10(len(scaled)) + largest + 2)

    def scaled(self, factor) -> "ScaleFunction":
        f = Fraction(factor)
        return ScaleFunction(terms=tuple((k, c * f) for k, c in self.terms))


def parse_scale(text: str) -> ScaleFunction:
    """Parse strings like ``1/2*t + 3*t^2`` or ``1`` or ``t^-2``.

    Every term needs a positive rational coefficient (implicitly 1 when
    only a power of t is written) and an integer exponent (implicitly 1
    for a bare t, 0 for a bare coefficient).  A coefficient's numerator
    or denominator, or an exponent, of more than RATIONAL_DIGITS digits
    is refused before it is converted.
    """
    terms: list[tuple[int, Fraction]] = []
    for piece in str(text).split("+"):
        m = _TERM.match(piece)
        if not m or (m.group("coeff") is None and "t" not in piece):
            raise FamilyError(f"cannot parse term {excerpt(piece.strip(), quote=True)}")
        coeff_text, exp_text = m.group("coeff"), m.group("exp")
        if (coeff_text and oversized_rational(coeff_text)) or (
            exp_text and len(exp_text.lstrip("-")) > RATIONAL_DIGITS
        ):
            raise FamilyError(
                f"a term has a coefficient or exponent of more than {RATIONAL_DIGITS} digits"
            )
        try:
            coeff = Fraction(int(m.group("num") or 1), int(m.group("den") or 1))
        except ZeroDivisionError:
            raise FamilyError(
                f"zero denominator in term {excerpt(piece.strip(), quote=True)}"
            ) from None
        if "t" in piece:
            exp = int(exp_text) if exp_text is not None else 1
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
