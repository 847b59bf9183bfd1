import math
from collections import Counter
from fractions import Fraction
from itertools import compress
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import betahole.expansions as expansions
import betahole.numberfield as numberfield
from betahole.expansions import (
    AdmissibilityReport,
    greedy_digits,
    is_admissible,
    orbit_min,
    orbit_min_fold,
    quasi_greedy_digits,
    rotation_numerators,
    survives,
    t_beta,
)
from betahole.numberfield import (
    BetaContext,
    BetaKind,
    eval_eventually_periodic,
    eval_periodic,
    make_context,
)
from betahole.survivor import brute_force_S, theorem_word
from betahole.words import (
    LT,
    PeriodicSeq,
    lex_compare,
    lex_min_rotation,
    passing_factors,
    primitive_representatives,
    rotations,
    smallest_period,
)

ALL_KINDS = list(BetaKind)


def undecided_bounds(monkeypatch):
    """Lower the floor of the BetaContext.rotation_bounds stream to at most its
    top: still sound, but it decides nothing, so every word takes the exact
    route, and the first rotation's bracket is unchanged.  Returns the words it
    yields, so a certificate that bypasses the seam fails the caller's test."""
    real = BetaContext.rotation_bounds
    calls = []

    def undecided(self, words):
        for w, low, top, floor in real(self, words):
            calls.append(w)
            yield w, low, top, min(floor, top)

    monkeypatch.setattr(BetaContext, "rotation_bounds", undecided)
    return calls


def orbit_min_bounds(w, ctx):
    """(low, top) of w from orbit_min_fold fed w alone: the certificate's bracket."""
    ((low, top, word, ties, count),) = orbit_min_fold(ctx, [w]).values()
    assert (word, ties, count) == (w, 1, 1)
    return low, top


def zero_run_candidates(w):
    """(z, the rotations of w that start with z zeros, in offset order), for z the
    length of the longest cyclic zero run of w."""
    p = len(w)
    rots = [(w + w)[k : k + p] for k in range(p)]
    z = max(len(r) - len(r.lstrip("0")) for r in rots)
    return z, [r for r in rots if r.startswith("0" * z)]


def orbit_min_oracle(w, ctx):
    """(low, top) of w, summed from the brackets of pow_brackets: what
    orbit_min_bounds must return for a least rotation w."""
    p = len(w)
    lo, hi = ctx.pow_brackets(p)
    ones = [p - 1 - i for i, c in enumerate(w) if c == "1"]
    return sum(lo[m] for m in ones), sum(hi[m] for m in ones)


@pytest.fixture
def numerator_calls(monkeypatch):
    """The words rotation_numerators is called with, in call order."""
    calls = []

    def spy(w, ctx):
        calls.append(w)
        return real(w, ctx)

    real = rotation_numerators
    monkeypatch.setattr(expansions, "rotation_numerators", spy)
    return calls


def all_words(max_len):
    for n in range(1, max_len + 1):
        for v in range(1 << n):
            yield format(v, f"0{n}b")


class TestTBeta:
    def test_fixed_point_zero(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            assert t_beta(ctx.zero(), ctx).is_zero()

    def test_base2_is_doubling(self):
        ctx = make_context("2")
        assert t_beta(ctx.from_rational(Fraction(3, 7)), ctx) == Fraction(6, 7)

    def test_golden_period3_orbit(self):
        ctx = make_context("golden")
        x0 = eval_periodic("001", ctx)  # the period-3 point 1/(2*beta)
        x = x0
        seen = []
        for _ in range(3):
            seen.append(x)
            x = t_beta(x, ctx)
        assert x == x0
        assert len({s.coeffs for s in seen}) == 3

    def test_domain_errors(self):
        ctx = make_context("golden")
        with pytest.raises(ValueError):
            t_beta(ctx.one(), ctx)
        with pytest.raises(ValueError):
            t_beta(ctx.from_rational(-1), ctx)


class TestGreedy:
    def test_examples(self):
        ctx2 = make_context("2")
        assert greedy_digits(ctx2.from_rational(Fraction(1, 2)), ctx2, 5) == "10000"
        assert greedy_digits(ctx2.zero(), ctx2, 4) == "0000"
        ctxg = make_context("golden")
        x = eval_periodic("001", ctxg)
        assert greedy_digits(x, ctxg, 6) == "001001"

    def test_round_trip_bound(self):
        # the n-digit prefix plus a zero tail undershoots x by less than beta^-n
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            for w in ("001", "01011", "0001"):
                x = eval_periodic(w, ctx)
                for n in (1, 3, 7):
                    prefix = greedy_digits(x, ctx, n)
                    approx = eval_eventually_periodic(PeriodicSeq(prefix, "0"), ctx)
                    gap = x - approx
                    assert gap.sign() >= 0
                    assert (gap * ctx.beta_pow(n) - 1).sign() < 0

    @pytest.mark.parametrize("digits", [greedy_digits, quasi_greedy_digits])
    def test_rejects_a_digit_count_that_is_not_a_positive_int(self, digits):
        # n = True once gave one digit, and 2.0 failed deep inside range()
        ctx = make_context("golden")
        x = ctx.from_rational(Fraction(1, 3))
        with pytest.raises(ValueError):
            digits(x, ctx, 0)
        for n in (True, 2.0):
            with pytest.raises(TypeError):
                digits(x, ctx, n)


class TestQuasiGreedy:
    def test_half_in_base2(self):
        ctx = make_context("2")
        out = quasi_greedy_digits(ctx.from_rational(Fraction(1, 2)), ctx, 10)
        assert out == PeriodicSeq("0", "1")

    def test_golden_one_over_beta(self):
        ctx = make_context("golden")
        x = ctx.beta().inverse()
        out = quasi_greedy_digits(x, ctx, 10)
        assert out == PeriodicSeq("0", "10")
        assert eval_eventually_periodic(out, ctx) == x

    def test_already_infinite_is_untouched(self):
        ctx = make_context("golden")
        x = eval_periodic("001", ctx)
        assert quasi_greedy_digits(x, ctx, 12) == PeriodicSeq("", "001")

    def test_zero_rejected(self):
        ctx = make_context("2")
        with pytest.raises(ValueError):
            quasi_greedy_digits(ctx.zero(), ctx, 5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_for_finite_expansions(self, kind):
        # x with finite greedy expansion of length <= 8: eval(quasi(x)) == x
        ctx = make_context(kind)
        for prefix in ("1", "01", "101", "0011", "10101", "01000001"):
            x = eval_eventually_periodic(PeriodicSeq(prefix, "0"), ctx)
            if x.sign() <= 0 or (x - 1).sign() >= 0:
                continue
            out = quasi_greedy_digits(x, ctx, 40)
            assert isinstance(out, PeriodicSeq)
            assert eval_eventually_periodic(out, ctx) == x
            # never ends in 0^inf: the period contains a 1
            assert "1" in out.period

    def test_unresolved_orbit_returns_prefix(self):
        # base2 remainders of 1/10 cycle with period 4 after one step;
        # with n too small to see it, the greedy prefix comes back
        ctx = make_context("2")
        x = ctx.from_rational(Fraction(1, 10))
        out = quasi_greedy_digits(x, ctx, 3)
        assert out == "000"


class TestAdmissibility:
    def test_golden_examples(self):
        ctx = make_context("golden")
        rep = is_admissible("01", ctx)
        assert not rep.admissible
        assert rep.failing_rotation_offset == 1
        assert rep.failing_comparison == ("10", "(10)")
        assert "offset=1" in rep.render()
        assert is_admissible("001", ctx).admissible

    def test_tribonacci_examples(self):
        ctx = make_context("tribonacci")
        assert not is_admissible("11", ctx).admissible
        assert is_admissible("0011", ctx).admissible
        assert not is_admissible("011", ctx).admissible  # rotation 110 hits delta

    def test_base2_excludes_exactly_all_ones(self):
        ctx = make_context("2")
        for w in all_words(6):
            assert is_admissible(w, ctx).admissible == ("0" in w)

    def test_rotation_invariance_and_first_offset(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            for w in all_words(7):
                rep = is_admissible(w, ctx)
                assert rep.admissible == is_admissible(lex_min_rotation(w), ctx).admissible
                if not rep.admissible:
                    k = rep.failing_rotation_offset
                    rots = rotations(w)
                    assert rep.failing_comparison[0] == rots[k]
                    # the reported offset is the smallest failing one
                    assert all(lex_compare(rots[i], ctx.delta) == LT for i in range(k))


def reference_admissibility(w, ctx):
    """Per-rotation loop, smallest failing offset first: r^inf and delta(beta) both
    repeat past n = lcm(len(w), len(delta's period)), so r fails iff its first n
    symbols are not below delta's."""
    dper = ctx.delta.period
    n = math.lcm(len(w), len(dper))
    reps, stream = n // len(w), dper * (n // len(dper))
    for offset, r in enumerate(rotations(w)):
        if r * reps >= stream:
            return AdmissibilityReport(w, False, offset, (r, str(ctx.delta)))
    return AdmissibilityReport(w, True)


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(w=st.text(alphabet="01", min_size=1, max_size=16))
def test_admissibility_matches_reference_loop(kind, w):
    ctx = make_context(kind)
    assert is_admissible(w, ctx) == reference_admissibility(w, ctx)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("bad", ["", "2", "012", "0 1"])
def test_every_entry_point_rejects_a_word_that_is_not_binary(kind, bad):
    # orbit_min_fold is no entry point: it takes the walk's admissible Lyndon words
    ctx = make_context(kind)
    for f in (is_admissible, orbit_min):
        with pytest.raises(ValueError, match="not a nonempty binary word"):
            f(bad, ctx)


@pytest.mark.parametrize(
    "dper",
    # base 2, golden, tribonacci, 4-bonacci, supergolden, plastic, a delta
    # with two factor-minimal factors (111 and 11011), and 1010011, which
    # (101001)^inf matches for max(6, 7) = 7 symbols and falls below at the 8th,
    # within the 6 + 7 - gcd(6, 7) = 12 that Fine and Wilf ask for
    ["1", "10", "110", "1110", "100", "10000", "11010", "1010011"],
)
def test_factor_verdict_matches_every_rotation_for_words_up_to_length_12(dper):
    # is_admissible reads only ctx.delta, so a stand-in context reaches the
    # deltas no BetaKind has
    ctx = SimpleNamespace(delta=PeriodicSeq.pure(dper))
    for w in all_words(12):
        assert is_admissible(w, ctx) == reference_admissibility(w, ctx), (dper, w)


@pytest.mark.parametrize(
    "dper, factors",
    # base 2 has no factor passing delta; golden and tribonacci have one each,
    # and 11010 two, the longer one holding no other
    [("1", ()), ("10", ("11",)), ("110", ("111",)), ("11010", ("111", "11011"))],
)
def test_only_factor_minimal_factors_are_kept(dper, factors):
    assert passing_factors(dper) == factors


def test_the_verdict_does_not_read_the_passing_factors(monkeypatch):
    # the walk prunes by passing_factors and the tests check it against
    # is_admissible, so is_admissible must reach its verdict without them
    def unreachable(below):
        raise AssertionError("is_admissible read the passing factors")

    ctxs = [make_context(kind) for kind in ALL_KINDS]
    monkeypatch.setattr("betahole.words.passing_factors", unreachable)
    monkeypatch.setattr(expansions, "passing_factors", unreachable)
    for ctx in ctxs:
        for w in all_words(10):
            assert is_admissible(w, ctx) == reference_admissibility(w, ctx), (ctx.kind, w)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_verdict_for_every_word_up_to_length_12(kind):
    # orbit_min admits a word by is_admissible's verdict alone
    ctx = make_context(kind)
    for w in all_words(12):
        ref = reference_admissibility(w, ctx)
        assert is_admissible(w, ctx) == ref
        if not ref.admissible:
            with pytest.raises(ValueError, match="inadmissible word"):
                orbit_min(w, ctx)
        elif smallest_period(w) == len(w):
            least = lex_min_rotation(w)
            assert orbit_min(w, ctx) == (least, eval_periodic(least, ctx))
        else:  # a shorter period ties the lex-min rotation with another
            with pytest.raises(RuntimeError):
                orbit_min_bounds(lex_min_rotation(w), ctx)


class TestOrbitMin:
    def test_golden_example(self):
        ctx = make_context("golden")
        rot, value = orbit_min("100", ctx)
        assert rot == "001"
        assert value.coeffs == (Fraction(-1, 2), Fraction(1, 2))  # 1/(2*beta)
        assert value.decimal(5) == "0.30902"

    def test_zero_word(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            rot, value = orbit_min("0", ctx)
            assert rot == "0" and value.is_zero()

    def test_tribonacci_example(self):
        ctx = make_context("tribonacci")
        rot, value = orbit_min("0011", ctx)
        assert rot == "0011"
        assert value == eval_periodic("0011", ctx)

    def test_min_is_exact_min_of_all_rotations(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            for w in ("0010", "01011", "000101"):
                if not is_admissible(w, ctx).admissible:
                    continue
                _, value = orbit_min(w, ctx)
                values = [eval_periodic(r, ctx) for r in rotations(w)]
                assert all((value - v).sign() <= 0 for v in values)
                assert any(value == v for v in values)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            orbit_min("01", make_context("golden"))

    @pytest.mark.parametrize(
        "kind, w, q", [("golden", "00", 1), ("2", "0101", 2), ("tribonacci", "001001", 3)]
    )
    def test_non_primitive_rejected(self, kind, w, q):
        ctx = make_context(kind)
        assert is_admissible(w, ctx).admissible
        with pytest.raises(ValueError, match=f"smallest period is {q}"):
            orbit_min(w, ctx)
        with pytest.raises(ValueError, match=f"smallest period is {q}"):
            survives(w, 0, ctx)

    @pytest.mark.parametrize("fault", ["tie", "earlier-tie", "elsewhere"])
    @pytest.mark.parametrize(
        "kind, w", [("golden", "001"), ("golden", "100"), ("tribonacci", "1100")]
    )
    def test_dual_route_faults_raise(self, monkeypatch, fault, kind, w):
        # unreachable on correct code (Parry); stubbed numerators stand in for a fault.
        # The words put the lex-min rotation at offsets 0, 1 and 2; orbit_min
        # certifies that rotation, so the numerators start with its own.
        real = rotation_numerators

        def faulty(word, ctx):
            nums = real(word, ctx)
            assert word == lex_min_rotation(word)
            if fault == "tie":
                nums[1] = nums[0]  # a later rotation attains the minimum
            elif fault == "earlier-tie":
                nums[-1] = nums[0]  # the cyclically preceding rotation ties it
            else:
                nums = nums[1:] + nums[:1]  # the minimum moves one place
            return nums

        monkeypatch.setattr(expansions, "rotation_numerators", faulty)
        undecided_bounds(monkeypatch)
        ctx = make_context(kind)
        with pytest.raises(RuntimeError):
            orbit_min(w, ctx)
        with pytest.raises(RuntimeError):
            brute_force_S(ctx, len(w))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_offset_and_numerator_are_the_lex_min_rotations(self, kind):
        # every primitive admissible word, not only Lyndon words, so the least
        # rotation is not always w; a word with a shorter period has tied rotations
        ctx = make_context(kind)
        for w in all_words(8):
            if smallest_period(w) < len(w) or not is_admissible(w, ctx).admissible:
                continue
            least = lex_min_rotation(w)
            assert orbit_min(w, ctx) == (
                least, ctx.periodic_value(ctx.int_horner(least), len(w))
            )

    @pytest.mark.parametrize(
        "kind, p, exact",
        [("golden", 200, True), ("golden", 400, True), ("tribonacci", 400, True), ("2", 400, False)],
    )
    def test_long_words_fall_back_to_exact_comparison(self, numerator_calls, kind, p, exact):
        # 64-bit bounds cannot separate rotations sharing a long prefix; base 2 is exact
        ctx = make_context(kind)
        w = theorem_word(kind, p)
        assert w == lex_min_rotation(w)
        assert orbit_min_bounds(w, ctx) == orbit_min_oracle(w, ctx)
        assert numerator_calls == ([w] if exact else [])

    @pytest.mark.parametrize("gap", [-1, 0, 1])
    @pytest.mark.parametrize(
        "kind, w, n",
        # n candidate rotations: one each, then 2 and 3
        [("golden", "001", 1), ("tribonacci", "0011", 1), ("golden", "00100101", 2),
         ("2", "0101011", 3)],
    )
    def test_a_floor_at_or_below_top_takes_the_exact_route(
        self, monkeypatch, numerator_calls, kind, w, n, gap
    ):
        # the one decision is floor <= top: a floor moved to top + gap, still
        # sound since the real floor clears top, is undecided at gap -1 and 0
        real = BetaContext.rotation_bounds
        calls = []

        def moved(self, words):
            for w, low, top, floor in real(self, words):
                calls.append(w)
                assert floor > top
                yield w, low, top, top + gap

        monkeypatch.setattr(BetaContext, "rotation_bounds", moved)
        ctx = make_context(kind)
        assert w == lex_min_rotation(w) and len(zero_run_candidates(w)[1]) == n
        assert orbit_min_bounds(w, ctx) == orbit_min_oracle(w, ctx)
        assert calls == [w] and numerator_calls == ([w] if gap <= 0 else [])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_route_alone_gives_the_same_results(self, monkeypatch, kind):
        ctx = make_context(kind)
        words = [
            w
            for w in all_words(8)
            if smallest_period(w) == len(w) and is_admissible(w, ctx).admissible
        ]
        filtered = [orbit_min(w, ctx) for w in words]
        calls = undecided_bounds(monkeypatch)
        assert [orbit_min(w, ctx) for w in words] == filtered
        assert len(calls) == len(words) > 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bounds_decide_every_enumerated_word_up_to_p14(self, numerator_calls, kind):
        # a filter that silently stops deciding would only slow the brute force down
        ctx = make_context(kind)
        n = 0
        for p in range(1, 15):
            for w in primitive_representatives(p, below=ctx.delta.period):
                assert is_admissible(w, ctx).admissible, w
                orbit_min_bounds(w, ctx)
                n += 1
        assert n > 0 and numerator_calls == []

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_only_the_candidate_rotations_and_one_stand_in_are_bounded(self, monkeypatch, kind):
        # a silent return to bounding all p rotations would only slow the brute force down.
        # The rotations summed are read back from the selector bytes rotation_bounds
        # passes to compress, or in base 2, where the brackets are exact, from the
        # numerals it passes to int; the brackets are made before the spies go in,
        # so nothing but rotation_bounds calls either
        real = BetaContext.rotation_bounds
        bounded, summed = [], []

        def spy(self, words):
            for item in real(self, words):
                bounded.append(item[0])
                yield item

        def summed_selectors(brackets, ones):
            summed.append(ones.translate(bytes.maketrans(b"\0\1", b"01"))[::-1].decode())
            return compress(brackets, ones)

        def read_numeral(s, base):
            summed.append(s)
            return int(s, base)

        def no_rotations(w):
            raise AssertionError(f"rotations({w!r}) called")

        ctx = make_context(kind)
        ctx.pow_brackets(14)
        monkeypatch.setattr(BetaContext, "rotation_bounds", spy)
        # expansions imports no rotations; the stand-in catches one put back
        monkeypatch.setattr(expansions, "rotations", no_rotations, raising=False)
        if ctx.degree == 1:
            monkeypatch.setattr(numberfield, "int", read_numeral, raising=False)
        else:
            monkeypatch.setattr(numberfield, "compress", summed_selectors)
        for p in range(1, 15):
            for w in primitive_representatives(p, below=ctx.delta.period):
                bounded.clear()
                summed.clear()
                orbit_min_bounds(w, ctx)
                _, candidates = zero_run_candidates(w)
                assert candidates[0] == w and bounded == [w], w
                # w for low, and again for top where the brackets are not exact
                assert summed == [w] * (1 if ctx.degree == 1 else 2) + candidates[1:], w

    @pytest.mark.parametrize("kind", ["golden", "tribonacci"])
    def test_bounds_decide_every_enumerated_word_up_to_p20(self, numerator_calls, kind):
        # the enumeration verify --pmax 20 runs; base 2 is exact at every p
        ctx = make_context(kind)
        n = 0
        for p in range(1, 21):
            for w in primitive_representatives(p, below=ctx.delta.period):
                orbit_min_bounds(w, ctx)
                n += 1
        assert n > 0 and numerator_calls == []

    @pytest.mark.parametrize("route", ["bounds", "exact"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_primitive_admissible_word_up_to_length_12_matches_the_oracle(
        self, monkeypatch, numerator_calls, kind, route
    ):
        # each such word's class, by its least rotation; the exact route is forced
        # by sound bounds that decide nothing, and must agree with the bounds route
        ctx = make_context(kind)
        calls = undecided_bounds(monkeypatch) if route == "exact" else None
        words = [
            w
            for w in all_words(12)
            if smallest_period(w) == len(w) and w == lex_min_rotation(w)
            and is_admissible(w, ctx).admissible
        ]
        shapes = Counter()
        for w in words:
            assert orbit_min_bounds(w, ctx) == orbit_min_oracle(w, ctx), w
            z, candidates = zero_run_candidates(w)
            shapes[min(len(candidates), 3)] += 1
            shapes["z = p"] += z == len(w)
        # "0" alone has z = p; 1, 2 and 3 or more candidates all occur
        assert shapes["z = p"] == 1 and "0" in words
        assert shapes[1] and shapes[2] and shapes[3], shapes
        assert numerator_calls == (words if route == "exact" else [])
        assert calls is None or calls == words

    @pytest.mark.parametrize("route", ["bounds", "exact"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_word_that_is_not_its_least_rotation_raises(
        self, monkeypatch, numerator_calls, kind, route
    ):
        # the certificate takes w as its class's least rotation and proves it:
        # every primitive admissible word that is not reaches the exact values,
        # on either route, and raises there instead of returning a bracket
        ctx = make_context(kind)
        calls = undecided_bounds(monkeypatch) if route == "exact" else None
        words = [
            w
            for w in all_words(10)
            if smallest_period(w) == len(w) and w != lex_min_rotation(w)
            and is_admissible(w, ctx).admissible
        ]
        for w in words:
            with pytest.raises(RuntimeError, match="is not above rotation 0"):
                orbit_min_bounds(w, ctx)
        # some start with 1, so no rotation starts with their zero run
        assert any(w[0] == "1" for w in words) and numerator_calls == words
        assert calls is None or calls == words

    @pytest.mark.parametrize("route", ["bounds", "exact"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_word_that_is_not_least_raises_in_the_middle_of_a_stream(
        self, monkeypatch, numerator_calls, kind, route
    ):
        # every word of the stream is certified, not only its first: a rotation
        # of the p = 8 critical word that is not least, put among the walk's
        # words, raises naming it on either route, and the stream stops there
        ctx = make_context(kind)
        calls = undecided_bounds(monkeypatch) if route == "exact" else None
        walk = list(primitive_representatives(10, ctx.delta.period, lengths=range(1, 11)))
        least = theorem_word(kind, 8)
        bad = least[1:] + least[0]
        assert bad != lex_min_rotation(bad) == least and is_admissible(bad, ctx).admissible
        head = walk[: len(walk) // 2]
        assert len(head) > 1
        with pytest.raises(RuntimeError, match=f"rotation \\d+ of {bad} is not above rotation 0"):
            orbit_min_fold(ctx, [*head, bad, *walk[len(head):]])
        assert numerator_calls == ([*head, bad] if route == "exact" else [bad])
        assert calls is None or calls == [*head, bad]

    def test_rotation_numerators_match_direct_evaluation(self):
        for kind in ALL_KINDS:
            ctx = make_context(kind)
            for w in ("0010011", "01101", "0001"):
                nums = rotation_numerators(w, ctx)
                for k, r in enumerate(rotations(w)):
                    assert nums[k] == ctx.int_horner(r)


class TestSurvives:
    def test_examples(self):
        ctx = make_context("golden")
        t_star = eval_periodic("001", ctx)  # 1/(2*beta)
        assert survives("001", 0, ctx)
        assert survives("001", t_star, ctx)
        assert not survives("001", t_star + Fraction(1, 1000), ctx)

    def test_preconditions(self):
        ctx = make_context("golden")
        with pytest.raises(ValueError):
            survives("01", 0, ctx)  # inadmissible word
        with pytest.raises(ValueError):
            survives("001", 1, ctx)  # hole bound outside [0, 1)

    def test_float_hole_bound_rejected(self):
        with pytest.raises(TypeError, match="int, Fraction or FieldElement"):
            survives("001", 0.25, make_context("golden"))


@pytest.mark.parametrize(
    "call",
    [
        t_beta,
        lambda x, ctx: greedy_digits(x, ctx, 8),
        lambda x, ctx: quasi_greedy_digits(x, ctx, 8),
        lambda x, ctx: survives("001", x, ctx),
    ],
    ids=["t_beta", "greedy_digits", "quasi_greedy_digits", "survives"],
)
def test_every_point_taking_function_takes_a_rational_and_rejects_a_float(call):
    # a Fraction point once raised AttributeError in all but survives
    ctx = make_context("golden")
    assert call(Fraction(1, 3), ctx) == call(ctx.from_rational(Fraction(1, 3)), ctx)
    with pytest.raises(TypeError, match="int, Fraction or FieldElement"):
        call(0.3, ctx)


class TestShiftCommutation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_up_to_length_7(self, kind):
        # T_beta on the periodic point equals the value of the rotated word
        ctx = make_context(kind)
        for w in all_words(7):
            if not is_admissible(w, ctx).admissible:
                continue
            left = t_beta(eval_periodic(w, ctx), ctx)
            right = eval_periodic(w[1:] + w[0], ctx)
            assert left == right
