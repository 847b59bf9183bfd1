"""Exact arithmetic in Q(beta) for beta in {2, golden ratio, tribonacci}.

An element is stored as integer numerators of 1, beta, beta^2, ... over one
positive integer denominator, reduced modulo the (irreducible, monic)
minimal polynomial and divided by the gcd of all of them, so equality is
literal equality of the integers.  One integer kernel does all the work:
multiplication by beta, powers of beta, and products through the integer
matrix of multiplication by an element.  A quotient a/b, and so an inverse, a
negative power of beta and num/(beta^p - 1), is one cofactor solve: a's
matrix times the first-row cofactors of b's, normalized by one gcd.  Signs and
decimals use no floating point: the numerators are bracketed with a dyadic
isolating interval for the root, refined by bisection until the sign is
definite or both ends round, by integer division, to the same decimal, in
one refinement loop.  Base 2 is a degree-1 field, so every kind runs one path.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from itertools import compress

from .words import PeriodicSeq, as_seq, check_period, check_word

NEG, ZERO, POS = -1, 0, 1

_MAX_SCALE_BITS = 1 << 20  # refinement safety cap; never reached for nonzero input

# decimal() rounds through int/str conversions, which CPython caps at 4300 digits
MAX_DIGITS = 1000

_BITS = bytes.maketrans(b"01", b"\0\1")  # ASCII digits to 0/1 selector bytes


def check_digits(digits: int) -> None:
    """Validate a count of significant digits: an int, not a bool, from 1 to MAX_DIGITS."""
    if not 1 <= check_period(digits, "digits", -math.inf) <= MAX_DIGITS:
        raise ValueError(f"digits must be between 1 and {MAX_DIGITS}")


class BetaKind(str, Enum):
    BASE2 = "2"
    GOLDEN = "golden"
    TRIBONACCI = "tribonacci"


# kind -> (ascending monic minpoly, delta period).  Each minpoly is increasing
# on [1, 2] with its only root there, so beta_floor_scaled bisects from [1, 2].
_KIND_DATA = {
    BetaKind.BASE2: ((-2, 1), "1"),
    BetaKind.GOLDEN: ((-1, -1, 1), "10"),
    BetaKind.TRIBONACCI: ((-1, -1, -1, 1), "110"),
}


class BetaContext:
    """Which beta: minimal polynomial and delta(beta)."""

    __slots__ = (
        "kind",
        "minpoly",
        "degree",
        "delta",
        "_reduction",
        "_bound_cache",
        "_int_powers",
        "_int_pow_columns",
        "_pow_brackets",
    )

    def __init__(self, kind: BetaKind) -> None:
        minpoly, delta_period = _KIND_DATA[kind]
        self.kind = kind
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self.delta = PeriodicSeq.pure(delta_period)
        # x^degree = sum(_reduction[i] * x^i)
        self._reduction = tuple(-c for c in minpoly[:-1])
        self._bound_cache: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._int_powers: list[tuple[int, ...]] = [(1,) + (0,) * (self.degree - 1)]
        # _int_pow_columns[j][k] == _int_powers[k][j]
        self._int_pow_columns = [[c] for c in self._int_powers[0]]
        # _pow_brackets[0][m] <= beta**m * 2**(64*(degree-1)) <= _pow_brackets[1][m]
        self._pow_brackets: tuple[list[int], list[int]] = ([], [])

    def zero(self) -> "FieldElement":
        return FieldElement.from_int_coeffs(self, (0,) * self.degree)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def from_rational(self, q: "int | Fraction") -> "FieldElement":
        # int first: an int has numerator and denominator, so it needs no Fraction
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"a rational must be int or Fraction, not {type(q).__name__}")
        return FieldElement.from_int_coeffs(
            self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator
        )

    def beta(self) -> "FieldElement":
        return self.beta_pow(1)

    def beta_pow(self, k: int) -> "FieldElement":
        """beta**k; k < 0 gives the inverse of beta**-k."""
        if k < 0:
            return _quotient(self, self.int_beta_pow(0), 1, self.int_beta_pow(-k), 1)
        return FieldElement.from_int_coeffs(self, self.int_beta_pow(k))

    def periodic_value(self, num: tuple[int, ...], p: int) -> "FieldElement":
        """num / (beta**p - 1): the value of a period-p expansion with numerator num."""
        c0, *rest = self.int_beta_pow(check_period(p, "period"))
        return _quotient(self, num, 1, (c0 - 1, *rest), 1)

    # -- integer-coefficient kernels (used by the enumeration hot path) --

    def int_mul_beta(self, c: tuple[int, ...]) -> tuple[int, ...]:
        """Multiply an integer-coefficient element by beta, reduced."""
        red = self._reduction
        top = c[-1]
        out = [top * red[0]]
        for i in range(1, self.degree):
            out.append(c[i - 1] + top * red[i])
        return tuple(out)

    def int_horner(self, word: str) -> tuple[int, ...]:
        """sum(word[i] * beta**(p-1-i)) as integer coefficients, for a nonempty
        binary word; anything else raises ValueError."""
        check_word(word)
        if self.degree == 1:  # base 2: the word is the binary numeral
            return (int(word, 2),)
        self.int_beta_pow(len(word) - 1)
        ones = word[::-1].encode().translate(_BITS)  # ones[k] selects beta**k
        return tuple(sum(compress(col, ones)) for col in self._int_pow_columns)

    def rotation_bounds(self, words):
        """For each nonempty word w of the iterable words, (w, low, top, floor):
        integers low <= V(w) <= top, and floor <= V(r) for every rotation r at
        an offset 1..p-1; p = len(w), z = max(1, its leading zeros).

        V(r) is int_horner(r) at beta times 2**(64*(degree-1)).  A rotation's
        value is a 0/1 sum of powers of beta, so summing each power's bracket
        bounds it whatever the coefficient signs; base 2 is exact.  A rotation
        with a 1 at an index a < z is at least beta**(p-1-a) >= beta**(p-z), so
        one bracket, lo[p - z], stands in for all of them, and none is built or
        summed.  The rest, which start with 0^z, are found in w + w, encoded
        reversed once: rotation k selects the powers in its slice [p - k : 2p - k].
        The bracket lists are read once per stream: pow_brackets extends them
        in place when a longer word comes.
        """
        lo, hi = self._pow_brackets
        exact = self.degree == 1  # exact brackets: the sum is the number itself
        for w in words:
            p = len(w)
            if not p:  # lo[p - z] would be lo[-1], another power's bracket
                raise ValueError("need a nonempty word")
            z = p - len(w.lstrip("0")) or 1
            if len(lo) < p:
                self.pow_brackets(p)
            zeros, ww, floor = "0" * z, w + w, lo[p - z]
            k = ww.find(zeros, 1)
            if exact:
                low = top = int(w, 2)
                while 0 < k < p:
                    s = int(ww[k : k + p], 2)
                    floor = s if s < floor else floor
                    k = ww.find(zeros, k + 1)
            else:
                bits = ww[::-1].encode().translate(_BITS)
                own = bits[p:]
                low, top = sum(compress(lo, own)), sum(compress(hi, own))
                while 0 < k < p:
                    s = sum(compress(lo, bits[p - k : 2 * p - k]))
                    floor = s if s < floor else floor
                    k = ww.find(zeros, k + 1)
            yield w, low, top, floor

    def pow_brackets(self, n: int) -> tuple[list[int], list[int]]:
        """Lists lo, hi of at least n entries, lo[m] <= beta**m * 2**(64*(degree-1)) <= hi[m]."""
        lo, hi = self._pow_brackets
        while len(lo) < n:
            a, b = self.bracket(self.int_beta_pow(len(lo)), 64)
            lo.append(a)
            hi.append(b)
        return lo, hi

    def int_beta_pow(self, k: int) -> tuple[int, ...]:
        """beta**k as integer coefficients, for an int k >= 0."""
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError(f"a power must be an int, not {type(k).__name__}")
        if k < 0:
            raise ValueError(f"a power must be >= 0, got {k}")
        cache = self._int_powers
        while len(cache) <= k:
            cache.append(self.int_mul_beta(cache[-1]))
            for col, c in zip(self._int_pow_columns, cache[-1]):
                col.append(c)
        return cache[k]

    def beta_floor_scaled(self, s: int) -> int:
        """Integer L with L/2^s <= beta <= (L+1)/2^s, by bisection on minpoly.

        The minimal polynomial is strictly increasing on [1, 2], so its sign
        at t/2^s locates t relative to the root; bisection starts from [1, 2].
        """
        lo_t, hi_t = 1 << s, 2 << s
        d = self.degree

        def value(t: int) -> int:
            return sum(c * t**i * (1 << (s * (d - i))) for i, c in enumerate(self.minpoly))

        if value(lo_t) > 0 or value(hi_t) < 0:
            raise AssertionError("isolating interval does not bracket the root")
        while hi_t - lo_t > 1:
            mid = (lo_t + hi_t) // 2
            if value(mid) <= 0:
                lo_t = mid
            else:
                hi_t = mid
        return lo_t

    def bracket(self, ints: tuple[int, ...], s: int) -> tuple[int, int]:
        """Integers lo <= sum(ints[k] * beta**k) * 2**(s*(degree-1)) <= hi.

        Uses L/2^s <= beta <= (L+1)/2^s with L = beta_floor_scaled(s).  The
        bound vectors L**k * 2**(s*(degree-1-k)) and (L+1)**k * 2**(s*(degree-1-k))
        are cached per s, so a bracket is two dot products.
        """
        bounds = self._bound_cache.get(s)
        if bounds is None:
            L, d = self.beta_floor_scaled(s), self.degree
            bounds = self._bound_cache[s] = (
                tuple(L**k << s * (d - 1 - k) for k in range(d)),
                tuple((L + 1) ** k << s * (d - 1 - k) for k in range(d)),
            )
        lo = hi = 0
        for c, a, b in zip(ints, *bounds):
            if c > 0:
                lo += c * a
                hi += c * b
            elif c:
                lo += c * b
                hi += c * a
        return lo, hi

    def _refine(self, ints: tuple[int, ...], s: int = 64):
        """Yield (*bracket(ints, s), s) for s, 2s, 4s, ... <= _MAX_SCALE_BITS, then raise
        RuntimeError; the caller stops at the first bracket that decides its question."""
        while s <= _MAX_SCALE_BITS:
            yield (*self.bracket(ints, s), s)
            s *= 2
        raise RuntimeError("refinement exceeded the scale cap")

    def int_sign(self, coeffs: tuple[int, ...]) -> int:
        """Sign of an integer-coefficient element; exact, no floating point."""
        if not any(coeffs[1:]):
            c = coeffs[0]
            return POS if c > 0 else NEG if c else ZERO
        for lo, hi, _ in self._refine(coeffs):
            if lo > 0:
                return POS
            if hi < 0:
                return NEG

    def int_compare(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return self.int_sign(tuple(map(operator.sub, a, b)))

    def __repr__(self) -> str:
        return f"BetaContext({self.kind.value})"


_CONTEXTS: dict[BetaKind, BetaContext] = {}


def make_context(kind: "BetaKind | str") -> BetaContext:
    kind = BetaKind(kind)
    ctx = _CONTEXTS.get(kind)
    if ctx is None:
        ctx = _CONTEXTS[kind] = BetaContext(kind)
    return ctx


def _cofactors(rows: list[tuple[int, ...]]) -> list[int]:
    """First-row cofactors of a square integer matrix, by Laplace expansion."""
    tail = rows[1:]
    return [(-1) ** k * _det([r[:k] + r[k + 1 :] for r in tail]) for k in range(len(rows))]


def _det(rows: list[tuple[int, ...]]) -> int:
    """Determinant of a square integer matrix: closed forms up to 2x2, Laplace above."""
    if len(rows) > 2:
        return sum(map(operator.mul, rows[0], _cofactors(rows)))
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return rows[0][0] if rows else 1


def _matrix(ctx: BetaContext, nums: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Rows of the integer matrix of multiplication by nums; column k is nums * beta**k."""
    cols = [nums]
    for _ in range(1, ctx.degree):
        cols.append(ctx.int_mul_beta(cols[-1]))
    return list(zip(*cols))


def _quotient(ctx: BetaContext, a, da: int, b, db: int) -> "FieldElement":
    """(a/da) / (b/db) for integer numerators a, b and denominators da, db > 0: Cramer's
    rule gives 1/b as b's first-row cofactors over its norm, and one gcd normalizes."""
    if not any(b):
        raise ZeroDivisionError("division by zero in Q(beta)")
    rows = _matrix(ctx, b)
    cof = _cofactors(rows)  # the right-hand side 1 has its only nonzero entry first
    det = sum(map(operator.mul, rows[0], cof))  # nonzero: the minpoly is irreducible
    if det < 0:
        det, db = -det, -db
    nums = [db * sum(map(operator.mul, row, cof)) for row in _matrix(ctx, a)]
    return FieldElement.from_int_coeffs(ctx, nums, da * det)


class FieldElement:
    """An exact element of Q(beta): (n0 + n1*b + ...) / den, reduced mod the minpoly.

    The numerators `nums` and the denominator `den > 0` are integers with no
    common factor, so equal values have equal fields.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: BetaContext, coeffs: tuple["int | Fraction", ...]) -> None:
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"a coefficient must be int or Fraction, not {type(c).__name__}")
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._store(ctx, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def from_int_coeffs(
        cls, ctx: BetaContext, ints: tuple[int, ...], den: int = 1
    ) -> "FieldElement":
        """The element sum(ints[k] * beta**k) / den, for den > 0."""
        x = cls.__new__(cls)
        x._store(ctx, ints, den)
        return x

    def _store(self, ctx: BetaContext, ints, den: int) -> None:
        if len(ints) != ctx.degree:
            raise ValueError("coefficient count must equal the field degree")
        if den < 1:
            raise ValueError(f"a denominator must be >= 1, got {den}")
        g = math.gcd(den, *ints)
        self.ctx = ctx
        self.nums = tuple(c // g for c in ints) if g > 1 else tuple(ints)
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients of 1, beta, beta^2, ..., in lowest terms."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ValueError("mixed BetaContext arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def _combine(self, other, op) -> "FieldElement":
        d, e = self.den, other.den
        nums = tuple(op(a * e, b * d) for a, b in zip(self.nums, other.nums))
        return FieldElement.from_int_coeffs(self.ctx, nums, d * e)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement.from_int_coeffs(self.ctx, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = [sum(map(operator.mul, row, o.nums)) for row in _matrix(self.ctx, self.nums)]
        return FieldElement.from_int_coeffs(self.ctx, nums, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """1 / self, by the one quotient kernel."""
        return _quotient(self.ctx, self.ctx.int_beta_pow(0), 1, self.nums, self.den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient(self.ctx, self.nums, self.den, o.nums, o.den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient(self.ctx, o.nums, o.den, self.nums, self.den)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.nums)

    def sign(self) -> int:
        """NEG, ZERO or POS; exact via interval refinement around the root."""
        return self.ctx.int_sign(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx is other.ctx and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        # a rational element equals its int/Fraction, so it must hash like one
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.ctx.kind, self.nums, self.den))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare FieldElement with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def decimal(self, digits: int) -> str:
        """Decimal string correct to `digits` significant digits, 1 <= digits <= MAX_DIGITS.

        Rounds half away from zero, exactly, at any magnitude: refines the root
        interval until both ends round to the same string (at once for a rational).
        """
        check_digits(digits)
        s = 64
        while s < digits * 10 // 3 + 16:  # log2(10) < 10/3 bits per digit, plus a guard
            s *= 2
        for lo, hi, s in self.ctx._refine(self.nums, s):
            den = self.den << s * (self.ctx.degree - 1)
            text = _decimal_of_ratio(lo, den, digits)
            if lo == hi or _decimal_of_ratio(hi, den, digits) == text:
                return text

    def __float__(self) -> float:
        return float(self.decimal(17))

    def __repr__(self) -> str:
        return self.serialize()

    def serialize(self) -> str:
        """Render as `c0 + c1*b + c2*b^2` with exact rationals, zero terms dropped."""
        parts: list[str] = []
        for k, n in enumerate(self.nums):
            if not n:
                continue
            g = math.gcd(n, self.den)
            num, den = abs(n) // g, self.den // g
            coeff = str(num) if den == 1 else f"{num}/{den}"
            if k == 0:
                term = coeff
            else:
                var = "b" if k == 1 else f"b^{k}"
                term = var if num == den == 1 else f"{coeff}*{var}"
            if not parts:
                parts.append(term if n > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if n > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def _decimal_of_ratio(n: int, d: int, digits: int) -> str:
    """Round n/d, for d > 0, to `digits` significant digits (half away from zero)."""
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    n = abs(n)

    def scaled(k: int) -> tuple[int, int]:
        """n/d * 10**k as an integer ratio; 10**|k| multiplies whichever side needs it."""
        return (n * 10**k, d) if k >= 0 else (n, d * 10**-k)

    # estimate the exponent e, 10**e <= n/d < 10**(e+1), from bit lengths: converting
    # n or d of thousands of digits to str would hit CPython's 4300-digit cap
    e = (n.bit_length() - d.bit_length()) * 3 // 10
    while operator.ge(*scaled(-e - 1)):  # n/d >= 10**(e+1)
        e += 1
    while operator.lt(*scaled(-e)):  # n/d < 10**e
        e -= 1
    num, den = scaled(digits - 1 - e)
    q = (2 * num + den) // (2 * den)
    if q >= 10**digits:
        q //= 10
        e += 1
    digs = str(q)
    if e >= digits - 1:
        body = digs + "0" * (e - digits + 1)
    elif e >= 0:
        body = digs[: e + 1] + "." + digs[e + 1 :]
    else:
        body = "0." + "0" * (-e - 1) + digs
    return sign + body


def eval_periodic(word: str, ctx: BetaContext) -> FieldElement:
    """Exact value of the purely periodic expansion (word)^inf.

    Equals (sum of word[i] * beta^(p-i)) / (beta^p - 1).
    """
    return ctx.periodic_value(ctx.int_horner(word), len(word))


def eval_eventually_periodic(seq: "PeriodicSeq | str", ctx: BetaContext) -> FieldElement:
    """Exact value of pre followed by (period)^inf."""
    seq = as_seq(seq)
    tail = eval_periodic(seq.period, ctx)
    if not seq.pre:
        return tail
    head = FieldElement.from_int_coeffs(ctx, ctx.int_horner(seq.pre))
    return (head + tail) / ctx.beta_pow(len(seq.pre))
