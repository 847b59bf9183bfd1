import decimal
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import betahole.numberfield as numberfield
from betahole.numberfield import (
    NEG,
    POS,
    ZERO,
    BetaContext,
    BetaKind,
    FieldElement,
    eval_eventually_periodic,
    eval_periodic,
    make_context,
)
from betahole.survivor import theorem_word
from betahole.words import PeriodicSeq, lex_min_rotation, primitive_representatives, rotations

ALL_KINDS = list(BetaKind)


def random_element(ctx, rng):
    coeffs = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ctx.degree)
    )
    return FieldElement(ctx, coeffs)


class TestContexts:
    def test_minimal_polynomials(self):
        assert make_context("2").minpoly == (-2, 1)
        assert make_context("golden").minpoly == (-1, -1, 1)
        assert make_context("tribonacci").minpoly == (-1, -1, -1, 1)

    def test_deltas(self):
        assert make_context("2").delta == PeriodicSeq.pure("1")
        assert make_context("golden").delta == PeriodicSeq.pure("10")
        assert make_context("tribonacci").delta == PeriodicSeq.pure("110")

    def test_root_decimals(self):
        assert make_context("golden").beta().decimal(5) == "1.6180"
        assert make_context("tribonacci").beta().decimal(5) == "1.8393"
        assert make_context("2").beta().serialize() == "2"

    def test_interval_brackets_root(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            at = lambda t, s: sum(c * Fraction(t, 1 << s) ** i for i, c in enumerate(ctx.minpoly))
            for s in (64, 128, 256):
                L = ctx.beta_floor_scaled(s)
                if kind is BetaKind.BASE2:
                    assert at(L, s) < 0 == at(L + 1, s) and L == (2 << s) - 1
                else:  # an irrational root lies strictly inside
                    assert at(L, s) < 0 < at(L + 1, s)

    def test_contexts_are_cached(self):
        assert make_context("golden") is make_context(BetaKind.GOLDEN)


class TestArithmetic:
    def test_minpoly_identities(self):
        b = make_context("golden").beta()
        assert (b * b).coeffs == (Fraction(1), Fraction(1))  # b^2 = b + 1
        t = make_context("tribonacci").beta()
        assert (t * t * t).coeffs == (Fraction(1), Fraction(1), Fraction(1))

    def test_golden_inverse_example(self):
        ctx = make_context("golden")
        b = ctx.beta()
        inv = (b * b - 1).inverse()
        assert inv == b - 1
        assert b * (b - 1) == ctx.one()

    def test_division_by_zero(self):
        ctx = make_context("tribonacci")
        with pytest.raises(ZeroDivisionError):
            ctx.one() / ctx.zero()

    def test_mixed_contexts_rejected(self):
        with pytest.raises(ValueError):
            make_context("golden").beta() + make_context("tribonacci").beta()

    def test_pow_and_rational_coercion(self):
        ctx = make_context("golden")
        b = ctx.beta()
        assert b**5 == b * b * b * b * b
        assert b ** (-2) == (b * b).inverse()
        assert 1 + b - b * b == ctx.zero()
        assert (Fraction(1, 2) * b) * 2 == b

    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", Decimal("0.5")])
    def test_exact_constructors_reject_inexact_input(self, bad):
        # a float would silently become its binary fraction, 0.1 -> 3602879701896397/2**55
        ctx = make_context("golden")
        with pytest.raises(TypeError, match=f"must be int or Fraction, not {type(bad).__name__}"):
            ctx.from_rational(bad)
        with pytest.raises(TypeError, match=f"must be int or Fraction, not {type(bad).__name__}"):
            FieldElement(ctx, (bad, 0))
        with pytest.raises(TypeError, match=f"must be int or Fraction, not {type(bad).__name__}"):
            FieldElement(ctx, (1, bad))

    def test_exact_constructors_take_int_and_fraction(self):
        ctx = make_context("golden")
        assert ctx.from_rational(Fraction(1, 3)).coeffs == (Fraction(1, 3), 0)
        assert FieldElement(ctx, (1, Fraction(1, 2))) == 1 + ctx.beta() / 2

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_field_axioms_random(self, kind):
        ctx = make_context(kind)
        rng = random.Random(f"axioms-{kind.value}")
        for _ in range(100):
            a, b, c = (random_element(ctx, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == ctx.one()


class TestRepresentation:
    """Integer numerators over one positive denominator, in lowest terms."""

    @staticmethod
    def assert_same(x, y):
        assert x == y and hash(x) == hash(y)
        assert (x.nums, x.den) == (y.nums, y.den)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equal_values_from_different_paths(self, kind):
        ctx = make_context(kind)
        zeros = (Fraction(0),) * (ctx.degree - 1)
        half = ctx.from_rational(Fraction(1, 2))
        self.assert_same(FieldElement(ctx, (Fraction(2, 4),) + zeros), half)
        self.assert_same(FieldElement.from_int_coeffs(ctx, (3,) + (0,) * (ctx.degree - 1), 6), half)
        common = FieldElement.from_int_coeffs(ctx, tuple(range(4, 4 + 2 * ctx.degree, 2)), 10)
        assert common.den == 5 and common.nums == tuple(range(2, 2 + ctx.degree))
        rng = random.Random(f"repr-{kind.value}")
        for _ in range(200):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            derived = [a, -a, a - b, a * b]
            if not b.is_zero():
                self.assert_same((a / b) * b, a)
                derived.append(b.inverse())
            self.assert_same(FieldElement(ctx, a.coeffs), a)
            for x in derived:
                assert x.den > 0
                assert math.gcd(x.den, *x.nums) == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("q", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
    def test_rational_element_hashes_like_its_rational(self, kind, q):
        # x == q holds, so sets and dicts must find either by the other
        x = make_context(kind).from_rational(q)
        assert x == q
        assert hash(x) == hash(q)
        assert q in {x}
        assert x in {q}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("den", [0, -1])
    def test_rejects_a_denominator_below_one(self, kind, den):
        # den = -1 once stored 1/-1: sign() said 1 for the value -1, == -1 was
        # False, and decimal() searched for the exponent forever
        ctx = make_context(kind)
        with pytest.raises(ValueError, match="denominator"):
            FieldElement.from_int_coeffs(ctx, (1,) + (0,) * (ctx.degree - 1), den)

    def test_inverse_with_negative_norm(self):
        # N(beta) = -1 for golden, so Cramer's determinant is negative
        ctx = make_context("golden")
        inv = ctx.beta().inverse()
        assert inv.den > 0
        self.assert_same(inv, ctx.beta() - 1)
        self.assert_same(ctx.beta_pow(-1), inv)


class TestSign:
    def test_examples(self):
        ctx = make_context("golden")
        b = ctx.beta()
        assert ctx.zero().sign() == ZERO
        assert (b - 1).sign() == POS
        assert (1 + b - b * b).sign() == ZERO
        assert (1 - b).sign() == NEG

    def test_close_calls_are_exact(self):
        # beta^2 vs beta + 1 differ by zero; beta^2 vs beta + 1 + tiny does not
        ctx = make_context("tribonacci")
        b = ctx.beta()
        x = b**3 - (b**2 + b + 1)
        assert x.sign() == ZERO
        assert (x + Fraction(1, 10**30)).sign() == POS
        assert (x - Fraction(1, 10**30)).sign() == NEG

    def test_scale_cap_raises(self, monkeypatch):
        # F(n)*b - F(n+1) = -(-1/b)**n for golden b: its numerators are about
        # b**n, and its value b**-n shrinks, so deciding it takes about 1.4n bits
        fib = [0, 1]
        while len(fib) < 62:
            fib.append(fib[-1] + fib[-2])
        ctx = make_context("golden")
        b = ctx.beta()
        deep, shallow = fib[60] * b - fib[61], fib[40] * b - fib[41]
        assert deep == -ctx.beta_pow(-60)
        assert deep.sign() == NEG  # at the real cap
        monkeypatch.setattr(numberfield, "_MAX_SCALE_BITS", 64)  # small stand-in
        assert shallow.sign() == NEG  # one 64-bit bracket is enough
        with pytest.raises(RuntimeError):
            deep.sign()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sign_matches_20_digit_decimal(self, kind):
        ctx = make_context(kind)
        rng = random.Random(f"sign-{kind.value}")
        for _ in range(1000):
            a = random_element(ctx, rng)
            s = a.sign()
            text = a.decimal(20)
            if s == ZERO:
                assert text == "0"
            elif s == POS:
                assert not text.startswith("-") and text != "0"
            else:
                assert text.startswith("-")


def reference_int_sign(ctx, coeffs):
    """The bracketing loop that recomputes L**k on every call, as a reference."""
    if all(c == 0 for c in coeffs):
        return ZERO
    if ctx.degree == 1 or all(c == 0 for c in coeffs[1:]):
        return POS if coeffs[0] > 0 else NEG
    s = 64
    while True:
        L = ctx.beta_floor_scaled(s)
        lo = hi = 0
        for k, c in enumerate(coeffs):
            scale = 1 << (s * (ctx.degree - 1 - k))
            a, b = c * L**k * scale, c * (L + 1) ** k * scale
            lo, hi = lo + min(a, b), hi + max(a, b)
        if lo > 0:
            return POS
        if hi < 0:
            return NEG
        s *= 2


small_ints = st.integers(min_value=-10**6, max_value=10**6)


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(data=st.data())
def test_int_sign_matches_reference_and_ordering(kind, data):
    ctx = make_context(kind)
    zero = (0,) * ctx.degree
    coeffs = data.draw(st.one_of(st.just(zero), st.tuples(*[small_ints] * ctx.degree)))
    sign = ctx.int_sign(coeffs)
    assert sign == reference_int_sign(ctx, coeffs)
    x = FieldElement.from_int_coeffs(ctx, coeffs)
    assert sign == (x > 0) - (x < 0)


@pytest.mark.parametrize("kind", ["golden", "tribonacci"])
def test_int_sign_deep_refinement_matches_reference(kind):
    # beta**-n is tiny but has integer coefficients that grow with n
    ctx = make_context(kind)
    for n in range(0, 300, 13):
        coeffs = tuple(int(c) for c in ctx.beta_pow(-n).coeffs)
        negated = tuple(-c for c in coeffs)
        assert ctx.int_sign(coeffs) == reference_int_sign(ctx, coeffs) == POS
        assert ctx.int_sign(negated) == reference_int_sign(ctx, negated) == NEG


def leibniz_det(rows):
    """Determinant as the signed sum over permutations, independent of Laplace expansion."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        total += (-1) ** inversions * math.prod(row[c] for row, c in zip(rows, perm))
    return total


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_int_horner_matches_horner_by_int_mul_beta(kind):
    # base 2 reads the word as a binary numeral and the other kinds sum power
    # columns; both must equal Horner's rule, one multiplication by beta per digit
    ctx = make_context(kind)
    rng = random.Random(f"horner-{kind.value}")
    words = [format(v, f"0{n}b") for n in range(1, 9) for v in range(1 << n)]
    words += ["".join(rng.choice("01") for _ in range(n)) for n in (64, 299, 1000)]
    for w in words:
        num = (0,) * ctx.degree
        for c in w:
            num = ctx.int_mul_beta(num)
            if c == "1":
                num = (num[0] + 1, *num[1:])
        assert ctx.int_horner(w) == num, w


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("word", ["", "2", "102", "1_0", " 1", "0b1", "1\n", "é"])
def test_int_horner_rejects_a_word_that_is_not_binary(kind, word):
    # golden int_horner("2") once returned (1, 0), the numerator of "1"
    with pytest.raises(ValueError):
        make_context(kind).int_horner(word)


class TestQuotientKernel:
    """One cofactor solve and one gcd form every quotient a / b."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cofactors_and_det_match_leibniz(self, n):
        rng = random.Random(f"leibniz-{n}")
        for _ in range(4):
            rows = [tuple(rng.getrandbits(900) - (1 << 899) for _ in range(n)) for _ in range(n)]
            expected = [
                (-1) ** k * leibniz_det([r[:k] + r[k + 1 :] for r in rows[1:]]) for k in range(n)
            ]
            assert numberfield._cofactors(rows) == expected
            assert numberfield._det(rows) == leibniz_det(rows)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", [1, 2, 3, 50, 299, 1000])
    def test_periodic_value_times_beta_p_minus_one_is_the_numerator(self, kind, p):
        ctx = make_context(kind)
        rng = random.Random(f"periodic-{kind.value}-{p}")
        word = "".join(rng.choice("01") for _ in range(p - 1)) + "1"
        signed = tuple(rng.randint(-(2**p), 2**p) for _ in range(ctx.degree))
        for num in (ctx.int_horner(word), signed):
            x = ctx.periodic_value(num, p)
            assert x * (ctx.beta_pow(p) - 1) == FieldElement.from_int_coeffs(ctx, num)
            assert x.den > 0
            assert math.gcd(x.den, *x.nums) == 1

    def test_golden_quotients_inverses_and_negative_powers(self):
        ctx = make_context("golden")
        b = ctx.beta()
        assert (b * b - 1).inverse() == b - 1  # as in TestArithmetic
        assert 1 / (b * b - 1) == b - 1
        assert b / (b * b) == b - 1
        assert b ** (-1) == ctx.beta_pow(-1) == b - 1
        assert b ** (-2) == (b * b).inverse() == 2 - b
        assert ctx.one() / ctx.beta_pow(-5) == b**5

    def test_tribonacci_quotients_inverses_and_negative_powers(self):
        ctx = make_context("tribonacci")
        t = ctx.beta()
        inv = t * t - t - 1  # t^3 = t^2 + t + 1, so t (t^2 - t - 1) = 1
        assert t.inverse() == 1 / t == t ** (-1) == ctx.beta_pow(-1) == inv
        assert t ** (-3) == ctx.beta_pow(-3) == inv**3
        assert eval_periodic("001", ctx) == 1 / (t**3 - 1)  # as in TestEval
        assert Fraction(1, 2) / t == inv / 2
        a, b = t + Fraction(1, 3), t - Fraction(2, 5)
        assert a / b * b == a

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", [0, -1])
    def test_periodic_value_rejects_a_period_below_one(self, kind, p):
        ctx = make_context(kind)
        with pytest.raises(ValueError, match="period must be >= 1"):
            ctx.periodic_value(ctx.int_beta_pow(0), p)

    def test_int_beta_pow_rejects_a_negative_power(self):
        ctx = make_context("golden")
        assert ctx.int_beta_pow(5) == (3, 5)
        with pytest.raises(ValueError, match="power must be >= 0"):
            ctx.int_beta_pow(-1)  # it returned the last cached power, beta**5

    @pytest.mark.parametrize("k", [True, 1.0, "1", Fraction(1)])
    def test_int_beta_pow_rejects_a_power_that_is_not_an_int(self, k):
        with pytest.raises(TypeError, match="power must be an int"):
            make_context("tribonacci").int_beta_pow(k)


class TestDecimal:
    def test_examples(self):
        ctx = make_context("2")
        assert ctx.from_rational(Fraction(3, 7)).decimal(5) == "0.42857"
        assert ctx.from_rational(Fraction(1, 2)).decimal(5) == "0.50000"
        assert ctx.zero().decimal(5) == "0"
        assert ctx.from_rational(10).decimal(3) == "10.0"
        assert ctx.from_rational(Fraction(-3, 7)).decimal(3) == "-0.429"

    def test_digits_bound(self):
        b = make_context("golden").beta()
        with pytest.raises(ValueError, match="digits must be between 1 and 1000"):
            b.decimal(5000)
        with pytest.raises(ValueError, match="digits must be between 1 and 1000"):
            b.decimal(0)
        text = b.decimal(numberfield.MAX_DIGITS)
        assert text.startswith("1.6180339887") and len(text) == 1 + numberfield.MAX_DIGITS

    @pytest.mark.parametrize("digits", [2.5, True, "3"])
    def test_rejects_a_digit_count_that_is_not_an_int(self, digits):
        # 2.5 once rendered "0.105.0", and True the one digit "0.3"
        x = make_context("golden").from_rational(Fraction(1, 3))
        with pytest.raises(TypeError):
            x.decimal(digits)

    def test_scale_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numberfield, "_MAX_SCALE_BITS", 64)  # small stand-in
        b = make_context("golden").beta()
        assert b.decimal(10) == "1.618033989"  # one 64-bit bracket is enough
        with pytest.raises(RuntimeError):
            b.decimal(40)

    def test_ten_digit_default_scale(self):
        b = make_context("golden").beta()
        assert b.decimal(10) == "1.618033989"
        assert (b * b).decimal(10) == "2.618033989"

    def test_serialize_format(self):
        ctx = make_context("tribonacci")
        e = FieldElement(ctx, (Fraction(1, 2), Fraction(3, 7), Fraction(0)))
        assert e.serialize() == "1/2 + 3/7*b"
        e = FieldElement(ctx, (Fraction(-1), Fraction(0), Fraction(2, 3)))
        assert e.serialize() == "-1 + 2/3*b^2"
        assert ctx.zero().serialize() == "0"


def _reference_context(digits: int) -> decimal.Context:
    # ROUND_HALF_UP rounds ties away from zero; the exponent range is unbounded in practice
    return decimal.Context(
        prec=digits, rounding=decimal.ROUND_HALF_UP, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX
    )


def _reference_format(rounded: Decimal, digits: int) -> str:
    """Positional notation with exactly `digits` significant digits."""
    if not rounded:
        return "0"
    sign, digs, exp = rounded.as_tuple()
    pad = digits - len(digs)  # an exact quotient drops the trailing zeros the output keeps
    return format(Decimal((sign, digs + (0,) * pad, exp - pad)), "f")


def reference_decimal(n: int, d: int, digits: int) -> str:
    """n/d to `digits` significant digits, by stdlib decimal's correctly rounded division."""
    return _reference_format(_reference_context(digits).divide(Decimal(n), Decimal(d)), digits)


def reference_golden_power(k: int, digits: int) -> str:
    """golden**k with 40 guard digits, then rounded to `digits`."""
    work = _reference_context(digits + 40)
    beta = work.divide(1 + work.sqrt(Decimal(5)), 2)
    return _reference_format(_reference_context(digits).plus(work.power(beta, k)), digits)


def reference_element_decimal(x, digits: int) -> str:
    """x to `digits` significant digits: the root of the minimal polynomial by
    bisection in stdlib decimal, with guard digits past the numerators' size."""
    with decimal.localcontext(_reference_context(digits + 40 + len(str(max(map(abs, x.nums)))))):
        lo, hi = Decimal(1), Decimal(2)
        for _ in range(4 * decimal.getcontext().prec):
            mid = (lo + hi) / 2
            if sum(c * mid**i for i, c in enumerate(x.ctx.minpoly)) <= 0:
                lo = mid
            else:
                hi = mid
        value = sum(n * lo**k for k, n in enumerate(x.nums)) / x.den
    return _reference_format(_reference_context(digits).plus(value), digits)


class TestDecimalAgainstReference:
    @pytest.mark.parametrize(
        "n, d, digits",
        [
            (1, 2**1100, 5),  # 7.3622e-332
            (1, 2**1100 - 1, 5),
            (99999, 10**325, 5),  # 9.9999e-321
            (1, 10**400, 3),
            (-7, 3**1500, 12),
            (9995, 10000, 3),  # rounds up to the next power of ten
            (-9995, 10000, 3),
            (99995, 10**330, 4),
            (10**400 + 7, 3, 20),  # above 1e308
            (-(3**700), 7, 10),
            *((10**k + j, 1, 5) for k in (0, 1, 4, 5, 6, 308, 309) for j in (-1, 0, 1)),
            *((1, 10**k + j, 5) for k in (1, 5, 307, 308, 330) for j in (-1, 0, 1)),
            *((10**k + j, 10**(2 * k), 3) for k in (2, 200) for j in (-1, 0, 1)),
        ],
    )
    def test_ratio_examples(self, n, d, digits):
        expected = reference_decimal(n, d, digits)
        assert numberfield._decimal_of_ratio(n, d, digits) == expected
        for kind in ALL_KINDS:  # rational elements go through the same rendering
            x = make_context(kind).from_rational(Fraction(n, d))
            assert x.decimal(digits) == expected

    @given(
        n=st.integers(min_value=-(2**3000), max_value=2**3000).filter(bool),
        d=st.integers(min_value=1, max_value=2**3000),
        digits=st.integers(min_value=1, max_value=300),
    )
    def test_ratio_matches_reference(self, n, d, digits):
        assert numberfield._decimal_of_ratio(n, d, digits) == reference_decimal(n, d, digits)

    @pytest.mark.parametrize("kind", ["golden", "tribonacci"])
    @given(
        n=st.integers(min_value=-(10**40), max_value=10**40),
        d=st.integers(min_value=1, max_value=10**40),
        digits=st.integers(min_value=1, max_value=60),
    )
    def test_rational_elements_of_irrational_fields(self, kind, n, d, digits):
        x = make_context(kind).from_rational(Fraction(n, d))
        assert x.decimal(digits) == reference_decimal(n, d, digits)

    @pytest.mark.parametrize("kind", ["golden", "tribonacci"])
    def test_30_digits_take_one_bracket(self, monkeypatch, kind):
        ctx = make_context(kind)
        x = eval_periodic("0010110111" * 5, ctx)
        calls = []
        bracket = numberfield.BetaContext.bracket

        def spy(self, ints, s):
            calls.append(s)
            return bracket(self, ints, s)

        monkeypatch.setattr(numberfield.BetaContext, "bracket", spy)
        text = x.decimal(30)
        assert len(calls) == 1
        for digits in range(1, 41):
            assert x.decimal(digits) == reference_element_decimal(x, digits)
        assert text == reference_element_decimal(x, 30)

    def test_tiny_values(self):
        two = make_context("2")
        assert two.beta_pow(-1100).decimal(5) == reference_decimal(1, 2**1100, 5)
        assert two.beta_pow(-1100).decimal(5).endswith("73622")
        x = eval_periodic("0" * 1099 + "1", two)
        assert x.decimal(5) == reference_decimal(1, 2**1100 - 1, 5)
        golden = make_context("golden")
        for k in (-2000, -1500, 1500):
            assert golden.beta_pow(k).decimal(8) == reference_golden_power(k, 8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float_is_the_17_digit_decimal(self, kind):
        ctx = make_context(kind)
        rng = random.Random(f"float-{kind.value}")
        elements = [ctx.beta(), ctx.beta_pow(-1100), ctx.beta_pow(300), eval_periodic("001", ctx)]
        elements += [random_element(ctx, rng) for _ in range(20)]
        for x in elements:
            assert float(x) == float(Fraction(x.decimal(17)))


class TestEval:
    def test_base2_theorem_values(self):
        ctx = make_context("2")
        for p in (1, 2, 3, 5, 8, 13):
            w = "0" + "1" * (p - 1)
            expected = Fraction(2 ** (p - 1) - 1, 2**p - 1)
            assert eval_periodic(w, ctx) == ctx.from_rational(expected)

    def test_zero_word(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            assert eval_periodic("0", ctx).is_zero()

    def test_tribonacci_001_against_float_series(self):
        ctx = make_context("tribonacci")
        value = eval_periodic("001", ctx)
        beta = 1.8392867552141612
        series = sum(
            int(d) / beta**i for i, d in enumerate(("001" * 40)[:100], start=1)
        )
        assert abs(float(Fraction(value.decimal(12))) - series) < 1e-9
        assert value.decimal(5) == "0.19149"  # 1/(beta^3 - 1) = 0.191487...
        b = ctx.beta()
        assert value * (b**3 - 1) == ctx.one()

    def test_value_independent_of_presentation(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            for w in ("01", "001", "0110"):
                once = eval_periodic(w, ctx)
                for k in (2, 3):
                    assert eval_periodic(w * k, ctx) == once

    def test_shift_identity(self):
        # value of the shifted sequence is beta*value - first digit
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            b = ctx.beta()
            for w in ("01", "0010", "01101", "10"):
                x = eval_periodic(w, ctx)
                shifted = eval_periodic(w[1:] + w[0], ctx)
                assert shifted == b * x - int(w[0])

    def test_eventually_periodic_examples(self):
        ctx2 = make_context("2")
        assert eval_eventually_periodic(PeriodicSeq("1", "0"), ctx2) == Fraction(1, 2)
        assert eval_eventually_periodic(PeriodicSeq("0", "1"), ctx2) == Fraction(1, 2)
        ctxg = make_context("golden")
        assert eval_eventually_periodic(PeriodicSeq("", "10"), ctxg) == ctxg.one()

    def test_preperiod_splitting_is_consistent(self):
        ctx = make_context("golden")
        a = eval_eventually_periodic(PeriodicSeq("001", "01"), ctx)
        b = eval_eventually_periodic(PeriodicSeq("0", "0101"), ctx)
        assert a == b


def bounds(ctx, w):
    """(low, top, floor) of the word w alone, from the rotation_bounds stream."""
    ((r, low, top, floor),) = ctx.rotation_bounds([w])
    assert r == w
    return low, top, floor


def lead_zeros(r):
    """The z that rotation_bounds(r) works with: r's leading zeros, at least 1."""
    return max(1, len(r) - len(r.lstrip("0")))


def stand_in(ctx, p, z):
    """The bracket lo[p - z] that rotation_bounds takes, for a word of length p
    that starts with z zeros, as the floor of the rotations with a 1 among
    their first z symbols."""
    return ctx.pow_brackets(p)[0][p - z]


def assert_rotation_bounds_sound(ctx, w):
    """low <= V(r) <= top and floor <= V of every other rotation, with each
    rotation r of w passed in turn, and the stand-in <= V of every rotation
    with a 1 among the first z symbols, checked exactly."""
    rots = rotations(w)
    shift = 64 * (ctx.degree - 1)
    values = [[c << shift for c in ctx.int_horner(r)] for r in rots]  # V(r) as coefficients
    for k, v in enumerate(values):
        z = lead_zeros(rots[k])
        low, top, floor = bounds(ctx, rots[k])
        assert ctx.int_sign((v[0] - low, *v[1:])) >= 0, (w, k)
        assert ctx.int_sign((top - v[0], *(-c for c in v[1:]))) >= 0, (w, k)
        lead = stand_in(ctx, len(w), z)
        for j, (r, u) in enumerate(zip(rots, values)):
            if j != k:
                assert ctx.int_sign((u[0] - floor, *u[1:])) >= 0, (w, k, r)
            if "1" in r[:z]:
                assert ctx.int_sign((u[0] - lead, *u[1:])) >= 0, (w, k, r)
        if ctx.degree == 1:  # the brackets are exact
            assert low == top == int(rots[k], 2)


def assert_every_lower_bound_sound(ctx, w):
    """low <= V(r) and floor <= V of every other rotation, whichever rotation r
    of w is passed, and the stand-in for r's leading zero run z <= V of every
    rotation with a 1 among the first z symbols.

    The largest lower bound of each rotation is checked exactly, so a lower
    bound that depends on the rotation passed is covered too.
    """
    rots = rotations(w)
    p = len(w)
    shift = 64 * (ctx.degree - 1)
    highest = [0] * p
    for k in range(p):
        z = lead_zeros(rots[k])
        low, _, floor = bounds(ctx, rots[k])
        lead = stand_in(ctx, p, z)
        highest = [
            max(h, low if j == k else floor, lead if "1" in r[:z] else 0)
            for j, (h, r) in enumerate(zip(highest, rots))
        ]
    for j, r in enumerate(rots):
        v = [c << shift for c in ctx.int_horner(r)]
        assert ctx.int_sign((v[0] - highest[j], *v[1:])) >= 0, (w, j)


def bracket_sum(brackets, r):
    """The sum of the brackets of r's powers: r[i] == "1" selects beta**(len(r)-1-i)."""
    p = len(r)
    return sum(brackets[p - 1 - i] for i, c in enumerate(r) if c == "1")


def reference_bounds(ctx, w):
    """rotation_bounds(w), one rotation at a time: every rotation built and its
    brackets summed, and the floor the least of the stand-in lo[p - z] and the
    rotations at offsets 1..p-1 that start with 0^z, z = lead_zeros(w)."""
    p, z = len(w), lead_zeros(w)
    lo, hi = ctx.pow_brackets(p)
    rots = rotations(w)
    lows = [bracket_sum(lo, r) for r in rots]
    floor = min([lo[p - z], *(s for r, s in zip(rots[1:], lows[1:]) if r.startswith("0" * z))])
    return lows[0], bracket_sum(hi, w), floor


class TestRotationBounds:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_lower_bound_of_every_word_up_to_length_10(self, kind):
        ctx = make_context(kind)
        for n in range(1, 11):
            for v in range(1 << n):
                assert_every_lower_bound_sound(ctx, format(v, f"0{n}b"))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(w=st.text(alphabet="01", min_size=1, max_size=64))
    def test_every_lower_bound_of_random_words_up_to_length_64(self, kind, w):
        assert_every_lower_bound_sound(make_context(kind), w)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_word_up_to_length_10(self, kind):
        ctx = make_context(kind)
        for n in range(1, 11):
            for v in range(1 << n):
                assert_rotation_bounds_sound(ctx, format(v, f"0{n}b"))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(w=st.text(alphabet="01", min_size=1, max_size=64))
    def test_random_words_up_to_length_64(self, kind, w):
        assert_rotation_bounds_sound(make_context(kind), w)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_word_up_to_length_10_matches_the_per_rotation_reference(self, kind):
        # unconditionally, even where the bound does not clear top: the rotations
        # that do not start with 0^z are not summed and take the stand-in lo[p - z]
        ctx = make_context(kind)
        for n in range(1, 11):
            for v in range(1 << n):
                w = format(v, f"0{n}b")
                assert bounds(ctx, w) == reference_bounds(ctx, w), w

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(w=st.text(alphabet="01", min_size=1, max_size=64))
    def test_random_words_up_to_length_64_match_the_per_rotation_reference(self, kind, w):
        ctx = make_context(kind)
        assert bounds(ctx, w) == reference_bounds(ctx, w)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_the_empty_word(self, kind):
        # at p = 0, lo[p - z] indexes from the end: a bracket far above the words' values
        with pytest.raises(ValueError, match="need a nonempty word"):
            bounds(make_context(kind), "")

    @pytest.mark.parametrize(
        "kind, w, z",
        # the critical words of period 20, lex-min rotation first
        [("golden", "00101010100101010101", 2), ("tribonacci", "01011011011011011011", 1)],
    )
    def test_rotations_with_fewer_leading_zeros_take_the_lead_power_bound(self, kind, w, z):
        # w starts with z zeros; every rotation with fewer is at least beta**(p-z),
        # and that one bracket bounds them all in floor, above the least rotation's top
        ctx = make_context(kind)
        rots, p = rotations(w), len(w)
        candidates = [r for r in rots if r.startswith("0" * z)]
        low, top, floor = bounds(ctx, w)
        assert lead_zeros(w) == z
        lo = ctx._pow_brackets[0]
        assert min(rots) == w == candidates[0] and floor > top
        assert len(candidates) < p // 2
        assert low == bracket_sum(lo, w)
        assert floor == min(lo[p - z], *(bracket_sum(lo, r) for r in candidates[1:]))
        for r in rots:
            if r not in candidates:
                assert lo[p - z] <= bracket_sum(lo, r)
        assert_rotation_bounds_sound(ctx, w)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_stream_of_rising_and_falling_lengths_matches_the_reference(self, kind):
        # the stream reads the bracket lists once; a word longer than the tables
        # (p = 30 on tables built to 14) extends them in place, so the lists it
        # holds must see the new entries, and a shorter word after it still reads them
        ctx = BetaContext(kind)
        ctx.pow_brackets(14)
        walk = list(primitive_representatives(14, ctx.delta.period, lengths=range(1, 15)))
        words = [*walk, lex_min_rotation(theorem_word(kind, 30)), walk[len(walk) // 2]]
        lengths = [len(w) for w in words]
        assert max(lengths[:-2]) == 14 == len(ctx._pow_brackets[0]) and lengths[-2] == 30
        assert any(a > b for a, b in zip(lengths, lengths[1:-2]))  # the walk's lengths fall too
        stream = list(ctx.rotation_bounds(words))
        assert len(ctx._pow_brackets[0]) == 30
        # the references come from another context, so they cannot build its tables
        reference = make_context(kind)
        assert stream == [(w, *reference_bounds(reference, w)) for w in words]
