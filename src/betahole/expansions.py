"""The beta-transformation, greedy/quasi-greedy digits, and admissibility.

A finite word is admissible for a given beta when every cyclic rotation,
extended periodically, stays strictly below delta(beta) in lexicographic
order; those are exactly the periodic sequences realized as expansions of
orbit points in [0, 1).  is_admissible checks it rotation by rotation, the
reference for the walk of words.primitive_representatives, which encodes it
by passing factors.  A point is given as int, Fraction or FieldElement.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from itertools import product

from .numberfield import BetaContext, FieldElement, eval_periodic
from .words import (
    PeriodicSeq, check_period, check_word, lex_min_rotation, passing_factors, smallest_period,
)


def _unit_point(x: "int | Fraction | FieldElement", ctx: BetaContext) -> FieldElement:
    """x as an element of ctx's field, or TypeError; ValueError unless it is in [0, 1)."""
    if isinstance(x, (int, Fraction)):
        x = ctx.from_rational(x)
    elif not isinstance(x, FieldElement):
        raise TypeError(f"a point must be int, Fraction or FieldElement, not {type(x).__name__}")
    if x.sign() < 0 or (x - 1).sign() >= 0:
        raise ValueError(f"argument outside [0, 1): {x!r}")
    return x


def _digit_step(r: FieldElement, ctx: BetaContext) -> tuple[str, FieldElement]:
    """One greedy step: beta*r = digit + remainder, the remainder in [0, 1)."""
    y = r * ctx.beta()
    if (y - 1).sign() >= 0:
        return "1", y - 1
    return "0", y


def t_beta(x, ctx: BetaContext) -> FieldElement:
    """One step of x -> beta*x mod 1; the integer part is found by exact sign tests."""
    return _digit_step(_unit_point(x, ctx), ctx)[1]


def greedy_digits(x, ctx: BetaContext, n: int) -> str:
    """First n digits of the greedy expansion of x in [0, 1)."""
    check_period(n, "n")
    digits = []
    r = _unit_point(x, ctx)
    for _ in range(n):
        d, r = _digit_step(r, ctx)
        digits.append(d)
    return "".join(digits)


def quasi_greedy_digits(x, ctx: BetaContext, n: int) -> "PeriodicSeq | str":
    """Quasi-greedy expansion of x in (0, 1): the greedy one unless it terminates.

    A terminating greedy expansion b_1..b_k 0^inf is rewritten by decrementing
    its last nonzero digit and appending delta(beta), so the output never ends
    in 0^inf.  Returns an exact PeriodicSeq when the remainder orbit hits zero
    or cycles within n steps, otherwise the n-digit greedy prefix.
    """
    check_period(n, "n")
    r = _unit_point(x, ctx)
    if r.is_zero():
        raise ValueError("0 has no expansion avoiding a 0^inf tail")
    digits: list[str] = []
    seen: dict[FieldElement, int] = {}
    for i in range(n):
        if r.is_zero():
            # greedy expansion is finite: apply the last-digit decrement rule
            k = "".join(digits).rfind("1")
            pre = "".join(digits[:k]) + "0" + ctx.delta.pre
            return PeriodicSeq(pre, ctx.delta.period).canonical()
        if r in seen:
            j = seen[r]
            return PeriodicSeq("".join(digits[:j]), "".join(digits[j:])).canonical()
        seen[r] = i
        d, r = _digit_step(r, ctx)
        digits.append(d)
    return "".join(digits)


class AdmissibilityReport(namedtuple(
    "AdmissibilityReport", "word admissible failing_rotation_offset failing_comparison",
    defaults=(None, None),
)):
    __slots__ = ()

    def render(self) -> str:
        if self.admissible:
            return f"{self.word}: admissible"
        rot, delta = self.failing_comparison
        return (
            f"{self.word}: inadmissible offset={self.failing_rotation_offset}: "
            f"({rot})^∞ ⊀ {delta}"
        )


def is_admissible(w: str, ctx: BetaContext) -> AdmissibilityReport:
    """Check every rotation of w against delta(beta); report the smallest failing offset.

    Parry's condition by its definition, one rotation at a time: the rotation
    r at offset k fails when r^inf >= delta(beta), the power of a period of
    length q.  Two sequences of periods p and q that agree on their first
    n = p + q - gcd(p, q) symbols are equal (Fine and Wilf, 1965), so the
    first n symbols of each decide.  It reads none of the walk's passing
    factors, so the tests check the walk against it.
    """
    p, dper = len(check_word(w)), ctx.delta.period
    q = len(dper)
    n = p + q - math.gcd(p, q)
    ww, stream = w * (n // p + 2), (dper * (n // q + 1))[:n]
    for k in range(p):
        if ww[k : k + n] >= stream:
            return AdmissibilityReport(w, False, k, (ww[k : k + p], str(ctx.delta)))
    return AdmissibilityReport(w, True)


def rotation_numerators(w: str, ctx: BetaContext) -> list[tuple[int, ...]]:
    """Integer-coefficient numerators of all rotations' periodic values.

    The value of (rotation k)^inf is numerator_k / (beta^p - 1); successive
    numerators follow the shift identity N(sigma w) = beta*N(w) - w_1*(beta^p - 1).
    """
    dcoeffs = ctx.int_beta_pow(len(w))
    dcoeffs = (dcoeffs[0] - 1,) + dcoeffs[1:]  # beta^p - 1
    mul_beta = ctx.int_mul_beta
    n = ctx.int_horner(w)
    out = [n]
    for bit in w[:-1]:
        n = mul_beta(n)
        if bit == "1":
            n = tuple(map(operator.sub, n, dcoeffs))
        out.append(n)
    return out


def orbit_min_fold(ctx: BetaContext, words, weights=None) -> dict:
    """Certify each word of the stream words and fold them by length.

    Returns {length: (low, top, word, ties, count)}: the word with the largest
    orbit minimum of each length, with count summed over all of them.  Each
    word counts as one class and one tie, or as weights[word] = (ties, count).

    The value certificate, for w an admissible Lyndon word, as the walk
    primitive_representatives(p, delta) yields it: w, least by the lex route,
    must have a strictly smaller exact value than every other rotation, or this
    raises RuntimeError.  BetaContext.rotation_bounds gives low <= V(w) <= top
    and a floor under every other rotation; only when that floor does not clear
    top are the exact numerators of all rotations compared, so a w that is not
    least, or not primitive (a shorter period ties rotations), raises.

    The fold: a word beats the incumbent of its length when its low is above
    the incumbent's top and loses when its top is below the incumbent's low;
    only overlapping brackets build both words' exact numerators, and compare
    them.  Equal values sum their ties and keep the lexicographically smaller
    word and both brackets' intersection, so the result does not depend on the
    order of the words.  Words of one length compare as binary numerals in
    string order; that only breaks ties.
    """
    best = {}  # length -> [low, top, word, ties, count]
    for w, low, top, floor in ctx.rotation_bounds(words):
        if floor <= top:
            nums = rotation_numerators(w, ctx)
            for k in range(1, len(w)):
                if ctx.int_compare(nums[k], nums[0]) <= 0:
                    raise RuntimeError(f"rotation {k} of {w} is not above rotation 0 in value")
        n, count = (1, 1) if weights is None else weights[w]
        inc = best.get(len(w))
        if inc is None:
            best[len(w)] = [low, top, w, n, count]
            continue
        inc[4] += count
        if low > inc[1]:
            inc[0], inc[1], inc[2], inc[3] = low, top, w, n
        elif top >= inc[0]:  # the brackets overlap: the exact values decide
            c = ctx.int_compare(ctx.int_horner(w), ctx.int_horner(inc[2]))
            if c > 0:
                inc[0], inc[1], inc[2], inc[3] = low, top, w, n
            elif c == 0:
                inc[:4] = max(low, inc[0]), min(top, inc[1]), min(inc[2], w), inc[3] + n
    return {length: tuple(inc) for length, inc in best.items()}


def class_counts(ctx: BetaContext, n: int) -> dict[int, int]:
    """{p: the number of admissible classes of length p} for p = 1..n: (1/p) *
    sum over d | p of mu(p/d) * tr(A^d), less delta's own class, for A the
    m-block graph of the shift that avoids passing_factors(dper).  Its states
    are the words of length m = (longest factor's length) - 1 with no factor,
    its edges those of length m + 1.
    """
    dper = ctx.delta.period
    factors = passing_factors(dper)
    m = max(map(len, factors), default=1) - 1
    states = [s for s in map("".join, product("01", repeat=m)) if not any(f in s for f in factors)]
    a = [[sum(not any(f in u + c for f in factors) for c in "01" if (u + c)[1:] == v)
          for v in states] for u in states]
    points, power = {}, a  # d -> the points of smallest period d: tr(A^d) less its divisors'
    for d in range(1, check_period(n) + 1):
        points[d] = sum(power[i][i] for i in range(len(a))) - sum(
            k for e, k in points.items() if d % e == 0)
        power = [[sum(map(operator.mul, row, col)) for col in zip(*a)] for row in power]
    return {p: k // p - (p == len(dper)) for p, k in points.items()}


def orbit_min(w: str, ctx: BetaContext) -> tuple[str, FieldElement]:
    """The rotation of w with the smallest periodic value, and that exact value.

    That is the lexicographically least rotation, whose value must be strictly
    below every other rotation's (see orbit_min_fold), or RuntimeError.
    w must be admissible and primitive, or ValueError.
    """
    report = is_admissible(w, ctx)
    if not report.admissible:
        raise ValueError(f"inadmissible word: {report.render()}")
    q = smallest_period(w)
    if q < len(w):
        raise ValueError(f"{w} is not primitive: its smallest period is {q}")
    least = lex_min_rotation(w)
    orbit_min_fold(ctx, [least])
    return least, eval_periodic(least, ctx)


def survives(w: str, t, ctx: BetaContext) -> bool:
    """Whether the periodic point of w keeps its whole orbit at or above t."""
    t = _unit_point(t, ctx)
    _, value = orbit_min(w, ctx)
    return (value - t).sign() >= 0
