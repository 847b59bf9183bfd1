import os
from fractions import Fraction
from itertools import chain, permutations, starmap

import pytest

import betahole.numberfield as numberfield
import betahole.survivor as survivor
from betahole.expansions import class_counts, is_admissible, orbit_min_fold
from betahole.numberfield import BetaContext, BetaKind, eval_periodic, make_context
from betahole.survivor import (
    BRUTE,
    CLOSED,
    THEOREM,
    brute_force_S,
    closed_form,
    closed_record,
    cross_check,
    limit_value,
    theorem_record,
    theorem_word,
)
from betahole.words import lex_min_rotation, primitive_representatives, smallest_period

ALL_KINDS = list(BetaKind)

# critical words per period, spelled out for the small periods
GOLDEN_WORDS = {
    1: None, 2: None, 3: "001", 4: "0001", 5: "00101", 6: "000101",
    7: "0010101", 8: "00100101", 9: "001010101", 10: "0010010101",
    11: "00101010101", 12: "001010010101", 13: "0010101010101",
    14: "00101001010101",
}
TRIBONACCI_WORDS = {
    1: None, 2: "01", 3: "001", 4: "0011", 5: "01011", 6: "001101",
    7: "0101011", 8: "01011011", 9: "010101011", 10: "0101011011",
    11: "01011011011", 12: "010101101011", 13: "0101101011011",
    14: "01011011011011",
}


class TestTheoremWord:
    def test_base2(self):
        assert theorem_word("2", 1) == "0"
        assert theorem_word("2", 3) == "011"
        assert theorem_word("2", 6) == "011111"

    @pytest.mark.parametrize("p,expected", sorted(GOLDEN_WORDS.items()))
    def test_golden_table(self, p, expected):
        assert theorem_word("golden", p) == expected

    @pytest.mark.parametrize("p,expected", sorted(TRIBONACCI_WORDS.items()))
    def test_tribonacci_table(self, p, expected):
        assert theorem_word("tribonacci", p) == expected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_structural_properties(self, kind):
        # the brute force certifies its Lyndon words, and cross_check compares
        # them with these as they are, so each must be its least rotation
        ctx = make_context(kind)
        for p in range(1, 301):
            w = theorem_word(kind, p)
            if w is None:
                continue
            assert len(w) == p
            assert smallest_period(w) == p
            assert lex_min_rotation(w) == w
            assert is_admissible(w, ctx).admissible


class TestBruteForce:
    def test_base2_p3(self):
        rec = brute_force_S(make_context("2"), 3)
        assert (rec.word, rec.empty, rec.ties) == ("011", False, 1)
        assert rec.value == Fraction(3, 7)

    def test_golden_p2_empty(self):
        rec = brute_force_S(make_context("golden"), 2)
        assert rec.empty and rec.word is None and rec.value.is_zero()
        assert rec.value_float == "0"

    def test_golden_p3(self):
        rec = brute_force_S(make_context("golden"), 3)
        assert rec.word == "001"
        assert rec.value.coeffs == (Fraction(-1, 2), Fraction(1, 2))  # 1/(2*beta)
        assert rec.value_float == "0.3090169944"

    def test_golden_p1_zero_fixed_point(self):
        rec = brute_force_S(make_context("golden"), 1)
        assert not rec.empty and rec.word == "0" and rec.value.is_zero()

    def test_caps(self):
        ctx = make_context("2")
        with pytest.raises(ValueError):
            brute_force_S(ctx, 21)
        with pytest.raises(ValueError):
            brute_force_S(ctx, 27, allow_large=True)
        with pytest.raises(ValueError):
            brute_force_S(ctx, 0)

    @pytest.mark.parametrize(
        "kind,p", [(BetaKind.BASE2, 12), (BetaKind.TRIBONACCI, 11), (BetaKind.GOLDEN, 13)]
    )
    def test_parallel_partitioning_is_deterministic(self, kind, p):
        ctx = make_context(kind)
        base = brute_force_S(ctx, p, workers=1)
        for workers in (2, 5):
            rec = brute_force_S(ctx, p, workers=workers)
            assert rec == base


def fold_chosen(monkeypatch, ctx, parts):
    """orbit_min_fold of the words of (low, top, word, ties, count) parts, in their
    order: the rotation_bounds stream yields each word's chosen bracket, with a
    floor above its top so that the certificate passes on the bounds, and each
    word counts as its (ties, count)."""
    brackets = {word: (low, top) for low, top, word, _, _ in parts}

    def chosen(self, words):
        for w in words:
            yield w, *brackets[w], brackets[w][1] + 1

    monkeypatch.setattr(BetaContext, "rotation_bounds", chosen)
    weights = {word: (n, count) for _, _, word, n, count in parts}
    return orbit_min_fold(ctx, [part[2] for part in parts], weights)


def test_best_fold_keeps_the_earliest_word_and_sums_ties(monkeypatch):
    # the fold that serves both one shard's words and the merge of the shards' results,
    # one winner per word length; golden: 0011 and 0100 are both beta^2, 0110, 1000
    # and 110 all beta^3 (x10: 26.2, 42.4), and 101 is beta^2 + 1 (x10: 36.2).  The
    # last entry counts classes: every candidate's count is summed, winner or not
    ctx = make_context("golden")
    parts = [
        (25, 27, "0011", 2, 10),
        (41, 43, "0110", 1, 20),
        (36, 37, "101", 1, 1),
        (42, 44, "1000", 3, 300),
        (41, 44, "110", 5, 2),
        (26, 28, "0100", 1, 4000),
    ]
    assert orbit_min_fold(ctx, []) == {}
    # round-robin shards report out of word order; the smaller word still wins a tie,
    # and a word of another length with the same value is neither a tie nor a rival
    for order in permutations(parts):
        assert fold_chosen(monkeypatch, ctx, order) == {
            4: (42, 43, "0110", 4, 4330), 3: (41, 44, "110", 5, 3)
        }


@pytest.mark.parametrize(
    "parts, expected",
    [
        # overlapping, equal exact values: a tie, whichever bracket is higher
        ([(41, 43, "1000", 3), (40, 45, "0110", 1)], (41, 43, "0110", 4)),
        # touching at one end, equal exact values: still a tie, not a win or a loss
        ([(41, 42, "1000", 3), (42, 44, "0110", 1)], (42, 42, "0110", 4)),
        # overlapping, different exact values: the larger wins with its own bracket,
        # though the other's bracket reaches higher or starts higher
        ([(20, 50, "0110", 1), (26, 60, "0100", 2)], (20, 50, "0110", 1)),
        ([(20, 50, "0110", 1), (30, 45, "0100", 2)], (20, 50, "0110", 1)),
        # touching, different exact values
        ([(20, 30, "0100", 2), (30, 50, "0110", 1)], (30, 50, "0110", 1)),
        # disjoint: the bounds decide, whatever the words
        ([(20, 30, "1000", 2), (31, 50, "0001", 1)], (31, 50, "0001", 1)),
    ],
)
def test_best_fold_settles_overlapping_brackets_exactly(monkeypatch, parts, expected):
    ctx = make_context("golden")
    for order in permutations(parts):
        counted = [(*part, 1) for part in order]
        assert fold_chosen(monkeypatch, ctx, counted) == {4: (*expected, 2)}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_robin_shards_partition_the_words(kind):
    # in-process, so shard counts above the core count are covered too; the shards of
    # one walk to p = 14 give every period the fold of its own single-period walk
    ctx = make_context(kind)
    ps = list(range(1, 15))
    whole = {}
    for p in ps:
        single = survivor._scan_shard(kind.value, [p], 0, 1)
        whole.update(single)
        for shards in (2, 3, 7):
            parts = [survivor._scan_shard(kind.value, [p], i, shards) for i in range(shards)]
            assert merge(ctx, parts) == single, (p, shards)
    for shards in (1, 2, 3, 7):
        parts = [survivor._scan_shard(kind.value, ps, i, shards) for i in range(shards)]
        assert merge(ctx, parts) == whole, shards


def merge(ctx, parts):
    """The fold of the shards' results, as _brute_force makes it: their winners
    certified again and folded with their ties and counts."""
    weights = {w: (n, c) for part in parts for _, _, w, n, c in part.values()}
    return orbit_min_fold(ctx, weights, weights)


def brute(kind, ps, workers):
    """One kind's brute-force records of the periods ps, through _brute_force."""
    (records,) = survivor._brute_force([kind], ps, workers, False, 10)
    return records


class InProcessPool:
    """Stand-in for ProcessPoolExecutor that records its size, its map calls and
    its shutdowns and starts no process; jobs run lazily, as their results are read."""

    created: list[int] = []
    maps: list[list[tuple]] = []  # the job argument tuples of each map call
    shutdowns: list[bool] = []  # cancel_futures of each shutdown

    def __init__(self, max_workers):
        InProcessPool.created.append(max_workers)

    def map(self, fn, *iterables):
        jobs = list(zip(*iterables))
        InProcessPool.maps.append(jobs)
        return starmap(fn, jobs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        InProcessPool.shutdowns.append(cancel_futures)


def spy_pools(monkeypatch, cores):
    """Run every pool in-process as InProcessPool on a machine whose process may
    use the given number of CPUs (the host's count too)."""
    monkeypatch.setattr(survivor, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(InProcessPool, "created", [])
    monkeypatch.setattr(InProcessPool, "maps", [])
    monkeypatch.setattr(InProcessPool, "shutdowns", [])
    return InProcessPool.created


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_undecided_brackets_give_the_same_records(monkeypatch, kind):
    # sound brackets too wide to decide anything: every certificate and every
    # fold step takes the exact route, in every shard and in the merge
    ps = range(1, 15)
    base = brute(kind, ps, 1)
    real = BetaContext.rotation_bounds
    slack = 1 << 200
    calls = []

    def wide(self, words):
        for w, low, top, floor in real(self, words):
            calls.append(w)
            yield w, low - slack, top + slack, floor - slack

    monkeypatch.setattr(BetaContext, "rotation_bounds", wide)
    spy_pools(monkeypatch, 7)
    for shards in (1, 2, 3, 7):
        calls.clear()
        assert brute(kind, ps, shards) == base, shards
        assert calls, shards


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_the_bounds_decide_the_fold_up_to_p14(monkeypatch, kind):
    # a fold that silently went back to exact numerators would only slow the scan
    # down; the merge of the shards' folds needs none either, so the fold keeps no
    # numerator of its incumbents
    calls = {"int_horner": 0, "int_compare": 0}

    def spy(name):
        real = getattr(BetaContext, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(BetaContext, name, counted)

    for name in calls:
        spy(name)
    folds = survivor._scan_shard(kind.value, range(1, 15), 0, 1)
    counts = class_counts(make_context(kind), 14)
    for p in range(3, 15):
        _, _, word, ties, count = folds[p]
        assert word == theorem_word(kind, p) and ties == 1, p
        assert count == counts[p], p
    assert calls["int_compare"] == 0 and calls["int_horner"] <= 1, calls
    for shards in (2, 3, 7):
        parts = [survivor._scan_shard(kind.value, range(1, 15), i, shards) for i in range(shards)]
        assert merge(make_context(kind), parts) == folds, shards
        assert calls["int_compare"] == 0, (shards, calls)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_walk_that_drops_an_admissible_class_fails_the_count(monkeypatch, kind, workers):
    # 0000001 is admissible for every kind and wins at no p = 7, so without the
    # count the records would not change
    spy_pools(monkeypatch, 2)
    real = survivor.primitive_representatives
    dropped = "0000001"
    assert is_admissible(dropped, make_context(kind)).admissible
    assert theorem_word(kind, 7) != dropped

    def dropping(*args):
        return (w for w in real(*args) if w != dropped)

    monkeypatch.setattr(survivor, "primitive_representatives", dropping)
    n = class_counts(make_context(kind), 7)[7]
    with pytest.raises(RuntimeError, match=f"{kind.value} p=7: {n - 1} classes walked, {n} counted"):
        brute_force_S(make_context(kind), 7, workers=workers)


def test_a_walk_that_adds_an_inadmissible_class_fails_the_count(monkeypatch):
    # (01)^inf is golden's delta itself, so 01 fails the strict test; the
    # certificate alone would make it the p = 2 record
    real = survivor.primitive_representatives

    def adding(*args):
        return chain(["01"], real(*args))

    monkeypatch.setattr(survivor, "primitive_representatives", adding)
    with pytest.raises(RuntimeError, match="golden p=2: 1 classes walked, 0 counted"):
        brute_force_S(make_context("golden"), 2)


@pytest.mark.parametrize(
    "p, workers", [(8, 2.0), (8, 1.0), (8.0, 1), (8.0, 2), (8, "2"), (8, True), (True, 2)]
)
def test_non_integer_period_or_workers_fail_before_any_work(monkeypatch, p, workers):
    pools = spy_pools(monkeypatch, 2)
    shards = []
    monkeypatch.setattr(survivor, "_scan_shard", lambda *args: shards.append(args))
    with pytest.raises(TypeError):
        brute_force_S(make_context("golden"), p, workers=workers)
    assert pools == [] and shards == []


@pytest.mark.parametrize(
    "digits, error", [(0, ValueError), (1001, ValueError), (True, TypeError), (2.0, TypeError)]
)
def test_bad_digits_fail_before_any_work(monkeypatch, digits, error):
    # the digits are first read when the records are made, after every shard has run
    pools = spy_pools(monkeypatch, 2)
    shards = []
    monkeypatch.setattr(survivor, "_scan_shard", lambda *args: shards.append(args))
    monkeypatch.setattr(numberfield, "_CONTEXTS", {})
    with pytest.raises(error, match="digits"):
        brute_force_S(make_context("golden"), 12, workers=2, digits=digits)
    with pytest.raises(error, match="digits"):
        cross_check("2", 12, workers=2, digits=digits)
    assert pools == [] and shards == []
    # no context is made, and no bracket table built, for the run
    assert list(numberfield._CONTEXTS) == [BetaKind.GOLDEN]
    assert make_context("golden")._pow_brackets == ([], [])


class TestWorkerClamp:
    @pytest.mark.parametrize("cores,pool_size", [(2, [2]), (3, [3])])
    def test_workers_are_clamped_to_the_core_count(self, monkeypatch, cores, pool_size):
        ctx = make_context("tribonacci")
        base = brute_force_S(ctx, 10)
        pools = spy_pools(monkeypatch, cores)
        assert brute_force_S(ctx, 10, workers=5000) == base
        assert pools == pool_size

    def test_workers_are_clamped_to_the_affinity_not_the_host(self, monkeypatch):
        # as under `taskset -c 0` on an 8-CPU host: one usable CPU, so no pool opens
        ctx = make_context("tribonacci")
        base = brute_force_S(ctx, 10)
        pools = spy_pools(monkeypatch, 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert brute_force_S(ctx, 10, workers=5000) == base
        assert pools == []

    @pytest.mark.parametrize("affinity,pool_size", [({0, 1}, [2]), ({0}, [])])
    def test_verify_with_far_more_workers_than_cpus_starts_no_process(
        self, monkeypatch, capsys, affinity, pool_size
    ):
        # --workers 5000 on an 8-CPU host whose process may use only the affinity
        # set: the spied pools start no process, and one pool at most serves verify
        from betahole.cli import main

        assert main(["verify", "--pmax", "8", "--workers", "1"]) == 0
        base = capsys.readouterr().out
        pools = spy_pools(monkeypatch, 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        assert main(["verify", "--pmax", "8", "--workers", "5000"]) == 0
        assert capsys.readouterr().out == base
        assert pools == pool_size
        assert [len(jobs) for jobs in InProcessPool.maps] == [3 * n for n in pool_size]

    @pytest.mark.parametrize("cores,pool_size", [(3, [3]), (None, [])])
    def test_without_an_affinity_the_host_count_clamps(self, monkeypatch, cores, pool_size):
        ctx = make_context("tribonacci")
        base = brute_force_S(ctx, 10)
        pools = spy_pools(monkeypatch, 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert brute_force_S(ctx, 10, workers=5000) == base
        assert pools == pool_size  # None cores: one worker, no pool


class TestOnePoolPerCommand:
    @pytest.fixture
    def pools(self, monkeypatch):
        return spy_pools(monkeypatch, 2)

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_one_map_covers_every_period_and_shard_once(self, monkeypatch, workers):
        ps = range(1, 13)
        base = brute("golden", ps, 1)
        spy_pools(monkeypatch, 8)
        assert brute("golden", ps, workers) == base
        (jobs,) = InProcessPool.maps  # one job per shard, each walking for every period
        assert jobs == [("golden", list(ps), i, workers) for i in range(workers)]

    @pytest.mark.parametrize("kinds", [["golden"], [k.value for k in BetaKind]])
    def test_bracket_tables_are_built_before_any_job(self, monkeypatch, capsys, kinds):
        # forked workers inherit them, so no worker builds its own for the jobs it
        # gets; verify's one map starts once every kind's tables are built
        from betahole.cli import main

        monkeypatch.setattr(numberfield, "_CONTEXTS", {})
        spy_pools(monkeypatch, 2)
        built = []
        real = survivor._scan_shard

        def scan(kind_value, *job):
            built.append([len(make_context(k)._pow_brackets[0]) for k in kinds])
            return real(kind_value, *job)

        monkeypatch.setattr(survivor, "_scan_shard", scan)
        if len(kinds) == 1:
            brute("golden", [3, 9, 5], 2)
        else:
            assert main(["verify", "--pmax", "9", "--workers", "2"]) == 0
        assert built == [[9] * len(kinds)] * (2 * len(kinds))

    def test_each_shard_runs_once_and_the_run_shuts_its_pool(self, monkeypatch):
        spy_pools(monkeypatch, 8)
        scanned = []
        real = survivor._scan_shard

        def scan(*job):
            scanned.append(job[1:3])
            return real(*job)

        monkeypatch.setattr(survivor, "_scan_shard", scan)
        assert [r.p for r in brute("2", [5, 9, 7], 3)] == [5, 9, 7]
        assert scanned == [([5, 9, 7], i) for i in range(3)]
        assert InProcessPool.shutdowns == [True]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cross_check_opens_one_pool_for_all_periods(self, pools, kind):
        base = cross_check(kind, 10)
        assert pools == []
        assert cross_check(kind, 10, workers=2) == base
        assert pools == [2]

    def test_verify_opens_one_pool_for_every_kind(self, pools, capsys):
        from betahole.cli import main

        assert main(["verify", "--pmax", "8", "--workers", "1"]) == 0
        base = capsys.readouterr().out
        assert pools == []
        assert main(["verify", "--pmax", "8", "--workers", "2"]) == 0
        assert capsys.readouterr().out == base
        assert pools == [2]
        (jobs,) = InProcessPool.maps  # one map: every kind's shards, in BetaKind order
        assert jobs == [(k.value, list(range(1, 9)), i, 2) for k in BetaKind for i in range(2)]
        assert InProcessPool.shutdowns == [True]

    def test_a_count_failure_in_one_kind_stops_verify_and_shuts_its_pool(self, monkeypatch, pools):
        # 0000001 is admissible for every kind and wins at no p = 7; only golden's
        # walk drops it, so only golden's count can fail
        from betahole.cli import main

        golden = make_context("golden")
        real = survivor.primitive_representatives

        def dropping(n, dper, *args):
            words = real(n, dper, *args)
            return (w for w in words if w != "0000001") if dper == golden.delta.period else words

        monkeypatch.setattr(survivor, "primitive_representatives", dropping)
        n = class_counts(golden, 7)[7]
        with pytest.raises(RuntimeError, match=f"^golden p=7: {n - 1} classes walked, {n} counted$"):
            main(["verify", "--pmax", "7", "--workers", "2"])
        assert pools == [2] and InProcessPool.shutdowns == [True]

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--beta", "tribonacci", "--pmax", "12", "--method", "brute", "--format", "csv"],
            ["survivor", "--beta", "golden", "--p", "12", "--method", "brute"],
        ],
    )
    def test_brute_tables_do_not_depend_on_the_workers(self, monkeypatch, capsys, argv):
        from betahole.cli import main

        pools = spy_pools(monkeypatch, 8)
        outs = []
        for workers in (1, 2, 7):
            assert main([*argv, "--workers", str(workers)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs == [outs[0]] * 3 and outs[0]
        assert pools == [2, 7]  # one pool per run, none with 1 worker

    def test_verify_output_does_not_depend_on_the_workers(self, monkeypatch, capsys):
        from betahole.cli import main

        pools = spy_pools(monkeypatch, 8)
        outs = []
        for workers in (1, 2, 3, 7):
            assert main(["verify", "--pmax", "10", "--workers", str(workers)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs == [outs[0]] * 4
        assert pools == [2, 3, 7]


class TestClosedForm:
    def test_golden_printed_values(self):
        ctx = make_context("golden")
        b = ctx.beta()
        s4 = closed_form("golden", 4)
        assert s4 * (b**4 - 1) == ctx.one()  # S(4) = 1/(beta^4 - 1)
        assert s4.decimal(4) == "0.1708"
        s6 = closed_form("golden", 6)
        assert s6 * (b**6 - 1) == b**2 + 1
        assert s6.decimal(4) == "0.2135"

    def test_tribonacci_m0_reduces_to_simple_form(self):
        ctx = make_context("tribonacci")
        b = ctx.beta()
        s2 = closed_form("tribonacci", 2)
        assert s2 * (b**2 - 1) == ctx.one()  # 1/(beta^2 - 1)
        assert s2 == eval_periodic("01", ctx)
        assert s2.decimal(5) == "0.41964"

    def test_uncovered_branches_are_none(self):
        assert closed_form("golden", 2) is None
        for p in (1, 3, 4, 6):
            assert closed_form("tribonacci", p) is None
        assert closed_record("tribonacci", 3) is None

    def test_base2_formula(self):
        for p in range(1, 21):
            value = closed_form("2", p)
            assert value == Fraction(2 ** (p - 1) - 1, 2**p - 1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_theorem_word_value(self, kind):
        ctx = make_context(kind)
        # p <= 200 reaches z >= 2 in every class, 9z + 3 and 9z + 6 included
        for p in range(1, 201):
            cf = closed_form(kind, p)
            w = theorem_word(kind, p)
            if cf is None or w is None:
                continue
            assert cf == eval_periodic(w, ctx)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: next(primitive_representatives(p)),
        lambda p: theorem_word("2", p),
        lambda p: theorem_word("golden", p),
        lambda p: theorem_record("2", p),
        lambda p: closed_form("golden", p),
        lambda p: closed_record("tribonacci", p),
        lambda p: brute_force_S(make_context("2"), p),
        lambda p: cross_check("golden", p),
        lambda p: make_context("golden").periodic_value((1, 0), p),
        lambda p: class_counts(make_context("tribonacci"), p),
    ],
    ids=[
        "primitive_representatives", "theorem_word-2", "theorem_word-golden", "theorem_record",
        "closed_form", "closed_record", "brute_force_S", "cross_check", "periodic_value",
        "class_counts",
    ],
)
@pytest.mark.parametrize("p", [True, False, 3.0, "3", None])
def test_every_entry_point_rejects_a_period_that_is_not_an_int(call, p):
    # True once passed as p = 1: theorem_word("2", True) gave "0", golden's
    # p = 1 exception matched True, and brute_force_S ran p = 1
    with pytest.raises(TypeError, match="must be an int"):
        call(p)


@pytest.mark.parametrize("path", [theorem_word, closed_form])
@pytest.mark.parametrize("p", [0, -1])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_nonpositive_period_rejected(kind, p, path):
    # the class lookup alone would put golden p = 0 in 4z + 4 at z = -1
    with pytest.raises(ValueError, match="p must be >= 1"):
        path(kind, p)


class TestLimit:
    def test_exact_identities(self):
        assert limit_value("2") == Fraction(1, 2)
        g = make_context("golden")
        assert limit_value("golden") * (g.beta_pow(3) - g.beta()) == g.one()
        t = make_context("tribonacci")
        assert limit_value("tribonacci") * (t.beta_pow(4) - t.beta()) == t.beta_pow(2) + 1

    def test_five_digit_decimals(self):
        assert limit_value("2").decimal(5) == "0.50000"
        assert limit_value("golden").decimal(5) == "0.38197"
        assert limit_value("tribonacci").decimal(5) == "0.45631"


class TestCrossCheck:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_all_paths_agree_to_p12(self, kind):
        rep = cross_check(kind, 12)
        assert rep.ok, (rep.theorem_mismatches, rep.formula_mismatches)
        methods = {r.method for r in rep.rows}
        assert methods == {BRUTE, THEOREM, CLOSED}
        assert all(r.agrees for r in rep.rows)

    def test_row_structure(self):
        rep = cross_check("golden", 4)
        per_p = {}
        for r in rep.rows:
            per_p.setdefault(r.p, []).append(r.method)
        assert per_p[2] == [BRUTE, THEOREM]  # no closed form at p=2
        assert per_p[3] == [BRUTE, THEOREM, CLOSED]
        csv = rep.csv_rows()
        assert csv[0].startswith("golden,1,BruteForce,0,0,0,")
        assert all(line.count(",") == 6 for line in csv)

    @pytest.mark.parametrize("kind, p_max", [("2", 0), ("golden", -3)])
    def test_empty_period_range_rejected(self, kind, p_max):
        # zero rows would certify nothing, so ok=True must not come back
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            cross_check(kind, p_max)

    @pytest.mark.parametrize("word", ["01001", "00011"])
    def test_a_theorem_word_other_than_the_brute_word_is_a_mismatch(self, monkeypatch, word):
        # the value stays equal, so only the word comparison can flag it; the
        # brute word is the least rotation, and a theorem word must be it as
        # written, not some other rotation of it ("01001") or another class
        real = survivor.theorem_record

        def replaced(kind, p, digits=10):
            rec = real(kind, p, digits)
            return rec._replace(word=word) if p == 5 else rec

        monkeypatch.setattr(survivor, "theorem_record", replaced)
        rep = cross_check("golden", 6)
        assert not rep.ok and not rep.formula_mismatches
        assert len(rep.theorem_mismatches) == 1
        assert rep.theorem_mismatches[0].startswith("golden p=5: brute word=00101")

    def test_theorem_record_empty_branches(self):
        for kind, p in ((BetaKind.GOLDEN, 1), (BetaKind.GOLDEN, 2), (BetaKind.TRIBONACCI, 1)):
            rec = theorem_record(kind, p)
            assert rec.empty and rec.word is None and rec.value.is_zero()


class TestUniqueness:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_maximizer_is_unique(self, kind):
        ctx = make_context(kind)
        for p in range(1, 13):
            rec = brute_force_S(ctx, p)
            assert rec.ties == (0 if rec.empty else 1)
            if not rec.empty:
                assert smallest_period(rec.word) == p
