from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import FamilyError, ScaleFunction, geometric_grid, parse_scale, ratio_limit

F = Fraction

rationals = st.fractions(
    min_value=F(1, 1000), max_value=F(1000), max_denominator=1000
)
exponents = st.integers(min_value=-6, max_value=6)


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
        assert f.coefficient_at(3) == 5
        assert f.coefficient_at(7) == 0

    def test_evaluate(self):
        f = fn((0, 1), (2, 4))
        assert f.evaluate(F(1, 2)) == 2
        with pytest.raises(FamilyError):
            f.evaluate(F(0))

    def test_negative_exponents_evaluate(self):
        f = fn((-2, 1))
        assert f.evaluate(F(1, 10)) == 100

    def test_arithmetic(self):
        a, b = fn((1, 2)), fn((0, 3), (1, 1))
        assert (a * b).terms == ((1, F(6)), (2, F(2)))
        assert a.scaled(F(1, 2)).terms == ((1, F(1)),)

    def test_constant_and_power(self):
        assert ScaleFunction.constant(F(5, 3)).terms == ((0, F(5, 3)),)
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

    @given(
        st.lists(
            st.tuples(exponents, rationals), min_size=1, max_size=4
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_render_round_trips(self, terms):
        text = " + ".join(f"{c}*t^{k}" for k, c in terms)
        assert parse_scale(text) == ScaleFunction(terms=tuple(terms))


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
        got = num.evaluate(t) / den.evaluate(t)
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
