import math
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from betahole.expansions import class_counts, is_admissible
from betahole.numberfield import BetaKind, make_context
from betahole.words import (
    EQ,
    GT,
    LT,
    PeriodicSeq,
    as_seq,
    lex_compare,
    lex_min_rotation,
    passing_factors,
    primitive_representatives,
    rotations,
    shift,
    smallest_period,
)

words = st.text(alphabet="01", min_size=1, max_size=12)
# a word, or an eventually periodic sequence with a preperiod
sequences = words | st.builds(PeriodicSeq, st.text(alphabet="01", max_size=6), words)


def brute_lyndon(p):
    """Independent oracle: classify all 2^p words by rotation, keep primitive ones."""
    seen = set()
    reps = []
    for v in range(1 << p):
        w = format(v, f"0{p}b")
        if w in seen:
            continue
        cls = set(rotations(w))
        seen |= cls
        if len(cls) == p:  # primitive iff all rotations distinct
            reps.append(min(cls))
    return sorted(reps)


def mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    if n > 1:
        out = -out
    return out


class TestSmallestPeriod:
    @pytest.mark.parametrize(
        "w,expected", [("0101", 2), ("001", 3), ("011011", 3), ("0", 1), ("1111", 1)]
    )
    def test_examples(self, w, expected):
        assert smallest_period(w) == expected

    def test_rejects_bad_words(self):
        for bad in ("", "012", "ab"):
            with pytest.raises(ValueError):
                smallest_period(bad)

    @given(words)
    def test_divides_length_and_repeats(self, w):
        q = smallest_period(w)
        assert len(w) % q == 0
        assert w == w[:q] * (len(w) // q)

    def test_least_on_every_short_word(self):
        def divisor_loop(w):  # the least divisor q of len(w) with w a power of w[:q]
            n = len(w)
            return next(q for q in range(1, n + 1) if n % q == 0 and w == w[:q] * (n // q))

        for n in range(1, 15):
            for k in range(2**n):
                w = format(k, f"0{n}b")
                assert smallest_period(w) == divisor_loop(w), w

    @given(words)
    def test_invariant_under_lex_min_rotation(self, w):
        assert smallest_period(lex_min_rotation(w)) == smallest_period(w)


class TestRotations:
    def test_examples(self):
        assert rotations("001") == ["001", "010", "100"]
        assert rotations("0") == ["0"]
        assert rotations("01") == ["01", "10"]

    @pytest.mark.parametrize("w,expected", [("110", "011"), ("100", "001"), ("0101", "0101")])
    def test_lex_min(self, w, expected):
        assert lex_min_rotation(w) == expected

    @given(words)
    def test_lex_min_is_a_fixpoint(self, w):
        m = lex_min_rotation(w)
        assert lex_min_rotation(m) == m
        assert sorted(rotations(m)) == sorted(rotations(w))


class TestPeriodicSeq:
    def test_parse_and_str(self):
        for text in ("1(0)", "(01)", "00(110)"):
            assert str(PeriodicSeq.parse(text)) == text
        for bad in ("10", "1(0)\n", "(01)\n"):  # a trailing newline once parsed
            with pytest.raises(ValueError):
                PeriodicSeq.parse(bad)

    def test_symbols(self):
        s = PeriodicSeq("10", "011")
        assert [s.symbol(i) for i in range(8)] == list("10011011")

    def test_canonical_shrinks_period_and_pre(self):
        assert str(PeriodicSeq("", "0101").canonical()) == "(01)"
        assert str(PeriodicSeq("10", "10").canonical()) == "(10)"
        assert str(PeriodicSeq("0", "0").canonical()) == "(0)"
        assert str(PeriodicSeq("1", "0").canonical()) == "1(0)"

    def test_equality_is_canonical(self):
        assert PeriodicSeq("", "01") == PeriodicSeq("01", "01")
        assert PeriodicSeq("", "01") == PeriodicSeq("", "0101")
        assert PeriodicSeq("", "01") != PeriodicSeq("", "10")
        assert hash(PeriodicSeq("", "01")) == hash(PeriodicSeq("01", "0101"))

    def test_shift_examples(self):
        assert shift(PeriodicSeq("", "01")) == PeriodicSeq("", "10")
        assert shift(PeriodicSeq("1", "0")) == PeriodicSeq("", "0")
        s = PeriodicSeq("", "001")
        assert shift(shift(shift(s))) == s

    @given(words)
    def test_shift_period_times_is_identity(self, w):
        s = PeriodicSeq.pure(w)
        out = s
        for _ in range(len(w)):
            out = out.shift()
        assert out == s

    def test_primitive_words_have_distinct_shifts(self):
        for w in ("01", "001", "0011", "01011", "001101"):
            p = smallest_period(w)
            assert p == len(w)
            assert len({PeriodicSeq.pure(r) for r in rotations(w)}) == p
        # a non-primitive word collapses to fewer distinct sequences
        assert len({PeriodicSeq.pure(r) for r in rotations("0101")}) == 2


class TestLexCompare:
    def test_examples(self):
        assert lex_compare("100", "10") == LT
        assert lex_compare("01", "01") == EQ
        assert lex_compare("110", "10") == GT

    def test_with_preperiods(self):
        assert lex_compare(PeriodicSeq("1", "0"), PeriodicSeq("", "1")) == LT
        assert lex_compare(PeriodicSeq("0", "1"), PeriodicSeq("", "01")) == GT
        # 0111... equals 0(1) however it is presented
        assert lex_compare(PeriodicSeq("01", "1"), PeriodicSeq("0", "11")) == EQ

    @given(sequences, sequences)
    def test_antisymmetry(self, a, b):
        assert lex_compare(a, b) == -lex_compare(b, a)

    @given(sequences, sequences, sequences)
    def test_transitivity(self, a, b, c):
        if lex_compare(a, b) != GT and lex_compare(b, c) != GT:
            assert lex_compare(a, c) != GT

    @given(sequences, sequences)
    def test_eq_matches_seq_equality(self, a, b):
        same = as_seq(a) == as_seq(b)
        assert (lex_compare(a, b) == EQ) == same

    @given(sequences, sequences)
    def test_matches_the_lcm_loop(self, a, b):
        assert lex_compare(a, b) == lcm_loop_compare(a, b)

    def test_long_equal_periods_are_compared_within_their_short_bound(self):
        # lcm(5000, 5002) = 12,505,000 symbols for the loop, 5,000 + 5,002 - 2 here
        start = time.process_time()
        assert lex_compare("01" * 2500, "01" * 2501) == EQ
        assert lex_compare("01" * 2500, "01" * 2500 + "10") == LT
        assert time.process_time() - start < 1.0


def lcm_loop_compare(a, b):
    """Reference: compare symbol by symbol through both preperiods and the lcm of
    the periods, after which the two tails repeat together."""
    a, b = as_seq(a), as_seq(b)
    bound = len(a.pre) + len(b.pre) + math.lcm(len(a.period), len(b.period))
    for i in range(bound):
        x, y = a.symbol(i), b.symbol(i)
        if x != y:
            return LT if x < y else GT
    return EQ


class TestEnumeration:
    def test_tiny_periods(self):
        assert list(primitive_representatives(1)) == ["0", "1"]
        assert list(primitive_representatives(2)) == ["01"]

    def test_p6_against_brute_oracle(self):
        oracle = brute_lyndon(6)
        assert len(oracle) == 9
        assert list(primitive_representatives(6)) == oracle

    @pytest.mark.parametrize("p", range(1, 13))
    def test_counts_match_moebius_formula(self, p):
        count = sum(1 for _ in primitive_representatives(p))
        expected = sum(mobius(d) * 2 ** (p // d) for d in range(1, p + 1) if p % d == 0) // p
        assert count == expected
        assert sorted(primitive_representatives(p)) == brute_lyndon(p)

    def test_yields_in_increasing_binary_value(self):
        for p in (5, 8, 11):
            vals = [int(w, 2) for w in primitive_representatives(p)]
            assert vals == sorted(vals)

    def test_every_representative_is_primitive_and_minimal(self):
        for p in (7, 10):
            for w in primitive_representatives(p):
                assert len(w) == p
                assert smallest_period(w) == p
                assert lex_min_rotation(w) == w

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            list(primitive_representatives(0))

    @pytest.mark.parametrize("p", [True, False, 4.0, "4", None])
    def test_rejects_a_period_that_is_not_an_int(self, p):
        # True once gave the two words of length 1, and 4.0 failed deep in the walk
        with pytest.raises(TypeError):
            next(primitive_representatives(p))

    @pytest.mark.parametrize("below", ["", "2", "abc", "10 ", "1x0"])
    def test_rejects_a_bound_that_is_not_a_binary_word(self, below):
        # "2" and "abc" once pruned nothing, as if no bound were given
        with pytest.raises(ValueError, match="binary word"):
            next(primitive_representatives(4, below))


def brute_prenecklaces(n):
    """The binary words of length n, in increasing order, that are prefixes of a
    necklace: each suffix is at least the prefix of its length."""
    words = (format(v, f"0{n}b") for v in range(1 << n))
    return [u for u in words if all(u[i:] >= u[: n - i] for i in range(1, n))]


def exceeds_naively(w, below):
    """Whether some factor of w is greater than the prefix of (below)^inf of its length."""
    stream = below * (len(w) // len(below) + 1)
    return any(
        w[i:j] > stream[: j - i] for i in range(len(w)) for j in range(i + 1, len(w) + 1)
    )


class TestPrunedEnumeration:
    @pytest.mark.parametrize("below", ["1", "10", "110", "100", "1010011", "0", "01"])
    def test_passing_factors_match_naive_factor_check(self, below):
        factors = passing_factors(below)
        for w in (format(v, f"0{k}b") for k in range(1, 11) for v in range(1 << k)):
            assert any(f in w for f in factors) == exceeds_naively(w, below), w

    # a stream that starts with 0 passes "1" itself, whose empty stem blocks every 1;
    # 100, 10000 and 1010011 have a passing factor that can cross a seam of w^inf
    @pytest.mark.parametrize(
        "below", ["1", "10", "110", "100", "1010011", "0", "01", "10000", "11010"]
    )
    def test_pruned_output_is_the_words_without_an_exceeding_factor(self, below):
        stream = PeriodicSeq.pure(below)
        for p in range(1, 13):
            assert list(primitive_representatives(p, below=below)) == [
                w for w in primitive_representatives(p)
                if all(lex_compare(r, stream) == LT for r in rotations(w))
            ], p

    @pytest.mark.parametrize("kind", list(BetaKind))
    def test_pruning_keeps_exactly_the_admissible_words(self, kind):
        ctx = make_context(kind)
        below = ctx.delta.period
        for p in range(1, 15):
            plain = list(primitive_representatives(p))
            pruned = list(primitive_representatives(p, below=below))
            assert pruned == [w for w in plain if is_admissible(w, ctx).admissible], p

    @pytest.mark.parametrize("kind, root", [("2", "1"), ("golden", "01"), ("tribonacci", "011")])
    def test_neither_1_nor_the_class_of_delta_is_yielded(self, kind, root):
        # 1^inf is below no stream, and the class of delta's period has delta as its power
        dper = make_context(kind).delta.period
        assert list(primitive_representatives(1, dper)) == ["0"]
        assert root in primitive_representatives(len(root))
        assert root not in primitive_representatives(len(root), dper)

    def test_pruned_counts_at_p20(self):
        yielded = {
            kind: sum(
                1
                for p in range(1, 21)
                for _ in primitive_representatives(p, below=make_context(kind).delta.period)
            )
            for kind in ("golden", "tribonacci")
        }
        # 1 and the class whose power is delta are not admissible
        assert yielded == {"golden": 2169, "tribonacci": 23032}

    @pytest.mark.parametrize(
        "kind, a",
        [("2", [[2]]), ("golden", [[1, 1], [1, 0]]),
         ("tribonacci", [[1, 1, 0], [1, 0, 1], [1, 0, 0]])],
    )
    def test_admitted_counts_match_the_closed_count(self, kind, a):
        # a cyclic word avoids delta's passing factors iff it is a closed walk in
        # the graph a, whose states are the trailing run of 1s; the classes are
        # counted by Moebius inversion of tr(a^d).  The one class whose power is
        # delta itself (p = len(dper)) is not admitted either.
        # class_counts builds its own graph from the passing factors; a is the reference
        ctx = make_context(kind)
        dper, pmax = ctx.delta.period, 20
        walk = primitive_representatives(pmax, dper, lengths=range(1, pmax + 1))
        admitted = Counter(map(len, walk))
        counts = class_counts(ctx, pmax)
        traces, power = [], a
        for _ in range(pmax):
            traces.append(sum(power[i][i] for i in range(len(a))))
            power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
        for p in range(1, pmax + 1):
            closed = sum(mobius(p // d) * traces[d - 1] for d in range(1, p + 1) if p % d == 0)
            assert admitted[p] == counts[p] == closed // p - (p == len(dper)), (kind, p)


class TestShardedEnumeration:
    @pytest.mark.parametrize("below", [None, "1", "10", "110", "100", "10000", "11010"])
    def test_shards_partition_the_stream(self, below):
        for p in range(1, 19):
            for lengths in (None, range(1, p + 1), {1, p // 2 + 1, p}):
                whole = list(primitive_representatives(p, below, lengths=lengths))
                # one walk yields each length as that length's own walk does, in
                # lexicographic order: a word before its extensions
                assert whole == sorted(whole), p
                for n in lengths or ():
                    own = list(primitive_representatives(n, below))
                    assert [w for w in whole if len(w) == n] == own, (p, n)
                for shards in (1, 2, 3, 7):
                    parts = [list(primitive_representatives(p, below, i, shards, lengths))
                             for i in range(shards)]
                    dealt = [w for part in parts for w in part]
                    assert len(set(dealt)) == len(dealt), (p, shards)  # disjoint
                    assert all(part == sorted(part) for part in parts), (p, shards)
                    assert sorted(dealt) == whole, (p, shards)
                    # a word no longer than the dealing depth p - 8 is above every subtree
                    assert all(len(w) > p - 8 for part in parts[1:] for w in part), (p, shards)

    @pytest.mark.parametrize(
        "lengths, error",
        [([True], TypeError), ([5, True], TypeError), (["3"], TypeError), ([3.0], TypeError),
         ([0], ValueError), ([5, 13], ValueError), ([], ValueError)],
    )
    def test_rejects_a_length_outside_the_walk(self, lengths, error):
        with pytest.raises(error):
            next(primitive_representatives(12, None, 0, 2, lengths))

    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_each_shard_takes_the_subtrees_of_its_rank(self, shards):
        # unpruned, the walk reaches every prenecklace of length d = p - 8 (the
        # all-ones one last, and it roots no word); the k-th in increasing order
        # roots the words of shard k mod shards
        for p in range(10, 17):
            d = p - 8
            rank = {u: k for k, u in enumerate(brute_prenecklaces(d))}
            for i in range(shards):
                for w in primitive_representatives(p, None, i, shards):
                    assert rank[w[:d]] % shards == i, (p, w)

    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_subtrees_balance_the_shards(self, shards):
        # a split by value would put every word in shard 0
        sizes = [sum(1 for _ in primitive_representatives(18, None, i, shards))
                 for i in range(shards)]
        assert max(sizes) < 1.2 * min(sizes), sizes

    @pytest.mark.parametrize("shard, shards", [(-1, 2), (2, 2), (0, 0)])
    def test_rejects_a_shard_outside_the_deal(self, shard, shards):
        with pytest.raises(ValueError):
            list(primitive_representatives(5, None, shard, shards))

    @pytest.mark.parametrize(
        "shard, shards", [(0.5, 2), (0, 2.0), (1.0, 2), (True, 2), (0, True), (True, True)]
    )
    def test_rejects_a_shard_that_is_not_an_int(self, shard, shards):
        # shard 0.5 of 2 once yielded nothing, shards = 2.0 dealt as 2, and True as 1
        with pytest.raises(TypeError):
            next(primitive_representatives(12, None, shard, shards))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PeriodicSeq("", 5), "a word must be a str, not int"),
        (lambda: PeriodicSeq(5, "1"), "a preperiod must be a str, not int"),
        (lambda: smallest_period(5), "a word must be a str, not int"),
        (lambda: lex_min_rotation(5), "a word must be a str, not int"),
        (lambda: next(primitive_representatives(3, below=5)), "a word must be a str, not int"),
        (lambda: is_admissible(b"01", make_context("golden")), "a word must be a str, not bytes"),
        # float's __rpow__ declines too, so Python names both operands
        (lambda: make_context("golden").beta() ** 0.5,
         r"\*\* or pow\(\): 'FieldElement' and 'float'"),
    ],
    ids=["seq-period", "seq-preperiod", "smallest_period", "lex_min_rotation",
         "primitive_representatives", "is_admissible", "pow"],
)
def test_a_value_of_the_wrong_type_is_a_type_error_naming_it(call, message):
    # these failed inside str.strip or the power loop, with AttributeError or with
    # an error about the wrong operation
    with pytest.raises(TypeError, match=message):
        call()
