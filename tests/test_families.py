import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canmeas import FamilyError, ScaleFunction, geometric_grid, parse_scale, ratio_limit
from canmeas.families import RATIONAL_DIGITS, oversized_rational, product
from canmeas.periods import _binary64_value

F = Fraction

rationals = st.fractions(
    min_value=F(1, 1000), max_value=F(1000), max_denominator=1000
)
exponents = st.integers(min_value=-6, max_value=6)
# Coefficients with numerators and denominators of up to 40 digits, and
# sample points on both sides of 1.
big_coefficients = st.fractions(
    min_value=F(1, 10**40), max_value=F(10**40), max_denominator=10**40
)
wide_terms = st.lists(
    st.tuples(st.integers(min_value=-12, max_value=12), big_coefficients),
    min_size=1,
    max_size=5,
)
points = st.one_of(
    st.fractions(min_value=F(1, 10**9), max_value=F(99, 100), max_denominator=10**9),
    st.fractions(min_value=F(101, 100), max_value=F(10**9), max_denominator=10**9),
)

# Numerators and denominators of up to 12 digits: with exponents up to 60
# in size, every pair prints within Python's 4,300-digit limit.
twelve_digits = st.integers(min_value=1, max_value=10**12 - 1)


def fn(*terms):
    return ScaleFunction(terms=tuple((k, F(c)) for k, c in terms))


class TestScaleFunction:
    def test_terms_merge_and_sort(self):
        f = fn((2, 1), (0, 3), (2, 2))
        assert f.terms == ((0, F(3)), (2, F(3)))

    def test_zero_function_rejected(self):
        with pytest.raises(FamilyError, match="at least one term"):
            ScaleFunction(terms=())

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(FamilyError):
            fn((1, 0))
        with pytest.raises(FamilyError):
            fn((1, -2))

    def test_dominant_exponent_and_leading_coefficient(self):
        f = fn((3, 5), (1, F(1, 2)))
        assert f.dominant_exponent == 1
        assert f.leading_coefficient == F(1, 2)

    def test_evaluate(self):
        f = fn((0, 1), (2, 4))
        assert F(*f.evaluate_pair(F(1, 2))) == 2
        with pytest.raises(FamilyError):
            f.evaluate_pair(F(0))

    def test_negative_exponents_evaluate(self):
        f = fn((-2, 1))
        assert F(*f.evaluate_pair(F(1, 10))) == 100

    @given(wide_terms, points)
    @settings(max_examples=200, deadline=None)
    def test_evaluate_is_the_exact_sum(self, terms, t):
        reference = sum(c * t**k for k, c in terms)
        assert F(*fn(*terms).evaluate_pair(t)) == reference

    @given(wide_terms, points)
    @settings(max_examples=100, deadline=None)
    def test_evaluate_pair_holds_the_exact_sum(self, terms, t):
        num, den = fn(*terms).evaluate_pair(t)
        assert den > 0
        assert F(num, den) == sum(c * t**k for k, c in terms)

    @given(wide_terms, st.fractions(max_value=0, max_denominator=10**9))
    @settings(max_examples=50, deadline=None)
    def test_evaluate_needs_a_positive_point(self, terms, t):
        with pytest.raises(FamilyError, match="t > 0"):
            fn(*terms).evaluate_pair(t)

    @given(
        st.sampled_from([F(1, 10), F(10), F(2, 3), F(7, 2)]),
        st.integers(min_value=-330, max_value=312),
        big_coefficients,
        st.lists(st.tuples(exponents, big_coefficients), max_size=2),
    )
    @example(F(1, 10), 308, F(17, 10), [])  # 1.7e308, just below the largest double
    @example(F(1, 10), 308, F(18, 10), [])  # 1.8e308 overflows
    @example(F(1, 10), -320, F(3), [(0, F(1, 10**330))])  # subnormal
    @example(F(1, 10), -324, F(24, 10), [])  # rounds down to zero
    @settings(max_examples=300, deadline=None)
    def test_binary64_value_rounds_the_exact_sum(self, t, decade, coeff, small_terms):
        # One term near 10^decade, from the subnormal range to past the
        # largest double, plus terms of moderate size.
        k = round(decade / math.log10(t))
        terms = [(k, coeff), *small_terms]
        reference = sum(c * t**k for k, c in terms)
        try:
            want = float(reference)
        except OverflowError:
            with pytest.raises(OverflowError):
                _binary64_value(fn(*terms), t)
        else:
            assert _binary64_value(fn(*terms), t) == want

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-60, max_value=60),
                st.builds(F, twelve_digits, twelve_digits),
            ),
            min_size=1,
            max_size=5,
        ),
        st.builds(F, twelve_digits, twelve_digits),
    )
    @example([(0, F(1)), (1000, F(1))], F(1, 10))  # 1 + t^1000: 2,002 digits
    @settings(max_examples=200, deadline=None)
    def test_pair_digits_bound_the_digits_of_the_pair(self, terms, t):
        num, den = fn(*terms).evaluate_pair(t)
        assert fn(*terms).pair_digits(t) >= len(str(num)) + len(str(den))

    def test_arithmetic(self):
        a, b = fn((1, 2)), fn((0, 3), (1, 1))
        assert product([a, b]).terms == ((1, F(6)), (2, F(2)))
        assert a.scaled(F(1, 2)).terms == ((1, F(1)),)

    def test_constant_and_power(self):
        assert ScaleFunction.power(-2, F(1, 2)).terms == ((-2, F(1, 2)),)


class TestParseRender:
    def test_simple_forms(self):
        assert parse_scale("1").terms == ((0, F(1)),)
        assert parse_scale("t").terms == ((1, F(1)),)
        assert parse_scale("t^3").terms == ((3, F(1)),)
        assert parse_scale("t^-2").terms == ((-2, F(1)),)
        assert parse_scale("2/3*t").terms == ((1, F(2, 3)),)
        assert parse_scale("5 t^2").terms == ((2, F(5)),)

    def test_sums(self):
        assert parse_scale("1 + 1/2*t + t^2").terms == (
            (0, F(1)),
            (1, F(1, 2)),
            (2, F(1)),
        )

    def test_garbage_rejected(self):
        for bad in ("", "x", "t^", "2t^1.5", "-t", "1 - t", "t*t"):
            with pytest.raises(FamilyError):
                parse_scale(bad)

    def test_zero_denominator_rejected(self):
        with pytest.raises(FamilyError, match="zero denominator"):
            parse_scale("1/0*t")

    @pytest.mark.parametrize(
        "text",
        [
            "1" + "0" * RATIONAL_DIGITS + "*t",
            "1/1" + "0" * RATIONAL_DIGITS + "*t",
            "t^" + "9" * (RATIONAL_DIGITS + 1),
            "t^-" + "9" * 5000,
        ],
    )
    def test_numbers_of_too_many_digits_rejected(self, text):
        with pytest.raises(FamilyError, match=f"more than {RATIONAL_DIGITS} digits"):
            parse_scale(text)

    def test_numbers_at_the_digit_bound_accepted(self):
        coeff = "9" * RATIONAL_DIGITS
        assert parse_scale(f"{coeff}/7*t").terms == ((1, F(int(coeff), 7)),)
        assert parse_scale("t^" + "9" * RATIONAL_DIGITS).dominant_exponent == int("9" * 4000)

    @given(
        st.from_regex(r"[0-9]{1,60}", fullmatch=True),
        st.none() | st.from_regex(r"[0-9]{1,60}", fullmatch=True),
        st.sampled_from([("", 0), ("*t", 1), (" * t^-3", -3), (" t^2", 2)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_coefficients_read_as_fraction_reads_them(self, num, den, power):
        # Digit strings with leading zeros, unreduced, zero or not: the
        # coefficient is Fraction(text) of its text, and where Fraction
        # refuses (zero denominator) or gives 0, parse_scale refuses.
        coeff = num if den is None else f"{num}/{den}"
        text, exponent = coeff + power[0], power[1]
        try:
            expected = Fraction(coeff)
        except ZeroDivisionError:
            with pytest.raises(FamilyError, match="zero denominator"):
                parse_scale(text)
            return
        if expected == 0:
            with pytest.raises(FamilyError, match="must be positive"):
                parse_scale(text)
            return
        assert parse_scale(text).terms == ((exponent, expected),)

    @given(
        st.lists(
            st.tuples(exponents, rationals), min_size=1, max_size=4
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_render_round_trips(self, terms):
        text = " + ".join(f"{c}*t^{k}" for k, c in terms)
        assert parse_scale(text) == ScaleFunction(terms=tuple(terms))


class TestOversizedRational:
    @pytest.mark.parametrize(
        "text, oversized",
        [
            ("7", False),
            (" -12/345 ", False),
            ("9" * 4000 + "/7", False),
            ("9" * 4001 + "/7", True),
            ("7/" + "9" * 4001, True),
            ("0" * 5000 + "1/2", False),
            ("1_000e3996", False),
            ("1_000e3997", True),
            ("1e3999", False),
            ("1e4000", True),
            ("1e-3999", False),
            ("1e-4000", True),
            ("10e-3999", False),
            # .25e-3998 is 1/(4 10^3998), but its text has 10^4000 below.
            (".25e-3997", False),
            (".25e-3998", True),
            ("0." + "0" * 5000 + "1e5001", False),
            ("1e200000", True),
            ("1e-2000000", True),
            ("1e" + "9" * 5000, True),
            ("1e-" + "9" * 5000, True),
            ("1e-" + "0" * 5000 + "5", False),
            # Not rationals: Fraction refuses them.
            ("1.d", False),
            ("1e", False),
            ("e" * 5000, False),
        ],
    )
    def test_digits_read_off_the_text(self, text, oversized):
        assert oversized_rational(text) is oversized

    @given(
        st.integers(min_value=0, max_value=10**30),
        st.text("0123456789", max_size=12),
        st.integers(min_value=-4100, max_value=4100),
    )
    @settings(max_examples=200, deadline=None)
    def test_refuses_every_rational_over_the_bound(self, whole, frac, exp):
        # Fraction reduces, so the text may refuse a little more than the
        # bound, but never less.
        text = f"{whole}.{frac}e{exp}"
        x = F(text)
        if max(x.numerator, x.denominator) >= 10**RATIONAL_DIGITS:
            assert oversized_rational(text)


class TestRatioLimit:
    def test_vanishing_numerator(self):
        assert ratio_limit(fn((2, 7)), fn((1, 3))) == 0

    def test_matching_exponents(self):
        assert ratio_limit(fn((1, 3), (2, 9)), fn((1, 4))) == F(3, 4)

    def test_divergent_ratio_rejected(self):
        with pytest.raises(FamilyError, match="diverges"):
            ratio_limit(fn((0, 1)), fn((1, 1)))

    @given(st.tuples(exponents, rationals), st.tuples(exponents, rationals))
    @settings(max_examples=80, deadline=None)
    def test_limit_agrees_with_monomial_arithmetic(self, a, b):
        num, den = fn(a), fn(b)
        if num.dominant_exponent < den.dominant_exponent:
            return
        want = ratio_limit(num, den)
        t = F(1, 10**9)
        got = F(*num.evaluate_pair(t)) / F(*den.evaluate_pair(t))
        if num.dominant_exponent == den.dominant_exponent:
            assert got == want
        else:
            assert want == 0
            assert 0 < got <= num.leading_coefficient / den.leading_coefficient * t


class TestGrid:
    def test_default(self):
        assert geometric_grid(1, 3) == (F(1, 10), F(1, 100), F(1, 1000))

    def test_bad_range_rejected(self):
        with pytest.raises(FamilyError):
            geometric_grid(3, 1)
        with pytest.raises(FamilyError):
            geometric_grid(0, 2)
