"""The critical hole size for period-p survivors, computed three ways.

For each supported beta the largest hole [0, t) whose survivor set still
contains a point of smallest period p is found by (1) exhaustive search over
primitive cyclic words, (2) the known critical words per period class, and
(3) closed-form expressions in Q(beta).  The cross-check engine runs all
available paths and demands exact agreement.

Paths (2) and (3) are separate tables keyed by period class p = step*z + offset
(z+1 for base 2; 2z+1, 4z+2, 4z+4 for golden; 3z+2, 6z+1, 6z+4, 9z, 9z+3, 9z+6
for tribonacci).  The words of golden p = 1, 2, 4, 6 and tribonacci p = 1, 3, 4, 6
are listed apart, and there is no closed form at golden p = 2 and tribonacci
p = 1, 3, 4, 6.  Within each class the critical values increase to 1 - 1/beta.

The exhaustive search with W workers deals the subtrees of the
delta(beta)-pruned Lyndon tree round-robin into W shards, and each shard walks
only its own subtrees (words.primitive_representatives).  A shard walks once,
to the run's largest period, and collects the words of every period on the
way: the walk to length n passes every Lyndon word shorter than n.  Each
brute-force run, of one kind or of all three (`verify`), is one _brute_force
call: it checks every argument before any work, opens at most one process
pool (none when W = 1) and sends the W shards of each kind through it in one
map.  Each kind's results are folded by one order-independent rule before its
records are made, so the output does not depend on W.
"""

from __future__ import annotations

import os
from collections import namedtuple
from itertools import islice

from .expansions import class_counts, orbit_min_fold
from .numberfield import BetaContext, BetaKind, FieldElement, eval_periodic, make_context
from .numberfield import check_digits
from .words import check_period, primitive_representatives

BRUTE, THEOREM, CLOSED = "BruteForce", "TheoremWord", "ClosedForm"

DEFAULT_P_CAP = 20
HARD_P_CAP = 26
# up to this period every exact value fits the 4300 digits CPython converts from
# int to str (base 2 needs 3011 at p = 10,000), so serialize() cannot fail late
MAX_P = 10_000


class SurvivorRecord(namedtuple("SurvivorRecord", "p word value value_float method empty ties")):
    """One row of the critical-value table for a single period p."""

    __slots__ = ()

    def describe(self, kind: BetaKind) -> str:
        if self.empty and self.word is None:
            return f"{kind.value} p={self.p} {self.method}: empty (S=0)"
        word = self.word if self.word is not None else "-"
        line = (
            f"{kind.value} p={self.p} {self.method}: word={word}"
            f" S={self.value.serialize()} ≈ {self.value_float}"
        )
        if self.method == BRUTE:
            line += f" ties={self.ties}"
        return line


def _scan_shard(kind_value: str, periods, shard: int, shards: int) -> dict:
    """Best class of each period, and the number of classes, among the words
    of one shard of the delta(beta)-pruned enumeration; pure, fork-safe.

    One walk to the largest period yields every period's admissible Lyndon
    words, and no word is checked again.  Returns their orbit_min_fold, by
    period: the certificate takes the walker's word as its class's least
    rotation, and no exact numerator is built unless two brackets overlap.
    The shard walks only the small subtrees dealt to it round-robin, which
    balances the shards: every Lyndon word of length >= 2 starts with 0, so a
    split by value would leave all of them in the first shard.
    """
    ctx = make_context(kind_value)
    words = primitive_representatives(max(periods), ctx.delta.period, shard, shards, periods)
    return orbit_min_fold(ctx, words)


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures.ProcessPoolExecutor, imported only when a pool opens.

    A module attribute, so a stand-in (a test's in-process pool) can replace it.
    """
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(max_workers=max_workers)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the host's count where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _brute_force(kinds, ps, workers: int, allow_large: bool, digits: int) -> list[list]:
    """Each kind's brute-force SurvivorRecord of each period in ps (nonempty), in order.

    Every argument, and every period against the caps, is checked before any
    work.  The W = min(workers, usable CPUs) shards of every kind go through
    one map of one pool, kind after kind, or run in this process when W = 1;
    each shard walks once for all the periods.  A kind's shards are folded as
    soon as they are in, while the later kinds' jobs run, and a period whose
    classes do not number class_counts raises RuntimeError; only each winner
    gets its numerator.
    """
    ps = [check_period(p) for p in ps]
    workers = check_period(workers, "workers")
    check_digits(digits)
    for p in ps:
        if p > HARD_P_CAP:
            raise ValueError(f"p={p} exceeds the enumeration cap of {HARD_P_CAP}")
        if p > DEFAULT_P_CAP and not allow_large:
            raise ValueError(
                f"p={p} exceeds the default cap of {DEFAULT_P_CAP};"
                " pass allow_large=True (--allow-large-p on the command line)"
            )
    ctxs = [make_context(kind) for kind in kinds]
    # more processes than CPUs only add start-up cost; the result does not depend on it
    workers = min(workers, _usable_cpus())
    # build the bracket tables the shards read before a worker forks: the workers
    # inherit them, so what each one computes does not depend on the jobs it gets
    for ctx in ctxs:
        ctx.pow_brackets(max(ps))
    # one job per (kind, shard), each carrying every period
    jobs = [(ctx.kind.value, ps, shard, workers) for ctx in ctxs for shard in range(workers)]
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        results = (pool.map if pool else map)(_scan_shard, *zip(*jobs))
        runs = []
        for ctx in ctxs:
            # the shards' winners, certified again and folded with their ties and counts
            weights = {w: (n, c) for r in islice(results, workers) for _, _, w, n, c in r.values()}
            best = orbit_min_fold(ctx, weights, weights)
            counts = class_counts(ctx, max(ps))
            runs.append([])
            for p in ps:  # a class the walk drops or adds fails this though no winner moves
                _, _, word, ties, count = best.get(p, (0, 0, None, 0, 0))
                if count != counts[p]:
                    raise RuntimeError(
                        f"{ctx.kind.value} p={p}: {count} classes walked, {counts[p]} counted"
                    )
                runs[-1].append(_word_record(ctx, p, word, BRUTE, ties, digits))
    finally:
        if pool is not None:
            # a run stopped early (an error, or an interrupt) waits only for the running jobs
            pool.shutdown(cancel_futures=True)
    return runs


def _word_record(ctx: BetaContext, p: int, word, method: str, ties: int, digits: int):
    """The record of period p whose critical word is word; None is the empty S = 0 record."""
    if word is None:
        return SurvivorRecord(p, None, ctx.zero(), "0", method, True, 0)
    value = eval_periodic(word, ctx)
    return SurvivorRecord(p, word, value, value.decimal(digits), method, False, ties)


def brute_force_S(
    ctx: BetaContext,
    p: int,
    workers: int = 1,
    allow_large: bool = False,
    digits: int = 10,
) -> SurvivorRecord:
    """Exhaustive maximum of the orbit minimum over admissible primitive classes."""
    ((record,),) = _brute_force([ctx.kind], [p], workers, allow_large, digits)
    return record


def _family(classes, p: int):
    """The (z, entry) of the class (step, offset, entry) with p = step*z + offset."""
    # unpacking exactly one match makes a gap or an overlap in the classes raise
    ((z, entry),) = [((p - o) // s, e) for s, o, e in classes if (p - o) % s == 0]
    return z, entry


# kind -> (exceptional periods, [(step, offset, pieces)]).  For p = step*z + offset
# the critical word joins the pieces (block, a, c), each block repeated a*z + c
# times; an exception of None is an S = 0 branch.  The tribonacci words are made
# of blocks 01 (011)^(z+c).
_WORDS = {
    BetaKind.BASE2: ({}, [(1, 1, [("0", 0, 1), ("1", 1, 0)])]),
    BetaKind.GOLDEN: ({1: None, 2: None, 4: "0001", 6: "000101"}, [
        (2, 1, [("0", 0, 1), ("01", 1, 0)]),
        (4, 2, [("001", 0, 1), ("01", 1, -2), ("001", 0, 1), ("01", 1, 0)]),
        (4, 4, [("001", 0, 1), ("01", 1, -1), ("001", 0, 1), ("01", 1, 0)]),
    ]),
    BetaKind.TRIBONACCI: ({1: None, 3: "001", 4: "0011", 6: "001101"}, [
        (3, 2, [("01", 0, 1), ("011", 1, 0)]),
        (6, 1, [("01", 0, 1), ("011", 1, -1), ("01", 0, 1), ("011", 1, 0)]),
        (6, 4, [("01", 0, 1), ("011", 1, -1), ("01", 0, 1), ("011", 1, 1)]),
        (9, 0, [("01", 0, 1), ("011", 1, -1), ("01", 0, 1), ("011", 1, -1),
                ("01", 0, 1), ("011", 1, 0)]),
        (9, 3, [("01", 0, 1), ("011", 1, -1), ("01", 0, 1), ("011", 1, 0),
                ("01", 0, 1), ("011", 1, 0)]),
        (9, 6, [("01", 0, 1), ("011", 1, -1), ("01", 0, 1), ("011", 1, 1),
                ("01", 0, 1), ("011", 1, 0)]),
    ]),
}


def theorem_word(kind: "BetaKind | str", p: int) -> str | None:
    """The asserted critical word for period p, or None on the S=0 branches."""
    exceptions, classes = _WORDS[BetaKind(kind)]
    if check_period(p) in exceptions:
        return exceptions[p]
    z, pieces = _family(classes, p)
    return "".join(block * (a * z + c) for block, a, c in pieces)


def theorem_record(kind: "BetaKind | str", p: int, digits: int = 10) -> SurvivorRecord:
    return _word_record(make_context(kind), p, theorem_word(kind, p), THEOREM, 1, digits)


# kind -> (uncovered periods, [(step, offset, f)]).  For p = step*z + offset the
# paper's printed expression is f(b, z), where b(k) = beta**k.
_CLOSED = {
    BetaKind.BASE2: (set(), [(1, 1, lambda b, z: (b(z) - 1) / (b(z + 1) - 1))]),
    BetaKind.GOLDEN: ({2}, [
        (2, 1, lambda b, z: (1 - b(2 * z)) / ((b(2 * z + 1) - 1) * (1 - b(2)))),
        (4, 2, lambda b, z: (1 + b(2 * z + 3) - b(2 * z + 2) - b(4 * z + 1))
            / ((b(4 * z + 2) - 1) * (1 - b(2)))),
        (4, 4, lambda b, z: (1 + b(2 * z + 3) - b(2 * z + 2) - b(4 * z + 3))
            / ((b(4 * z + 4) - 1) * (1 - b(2)))),
    ]),
    BetaKind.TRIBONACCI: ({1, 3, 4, 6}, [
        (3, 2, lambda b, z: (1 + b(1) - b(3 * z + 1) - b(3 * z + 3))
            / ((1 - b(3)) * (b(3 * z + 2) - 1))),
        (6, 1, lambda b, z: (1 + b(1) + b(3 * z + 2) - b(3 * z + 1) - b(6 * z) - b(6 * z + 2))
            / ((1 - b(3)) * (b(6 * z + 1) - 1))),
        (6, 4, lambda b, z: (1 + b(1) + b(3 * z + 5) - b(3 * z + 4) - b(6 * z + 3) - b(6 * z + 5))
            / ((1 - b(3)) * (b(6 * z + 4) - 1))),
        (9, 0, lambda b, z: (1 + b(1) + b(3 * z + 2) + b(6 * z + 1)
                             - b(3 * z + 1) - b(6 * z) - b(9 * z - 1) - b(9 * z + 1))
            / ((1 - b(3)) * (b(9 * z) - 1))),
        (9, 3, lambda b, z: (1 + b(1) + b(3 * z + 2) + b(6 * z + 4)
                             - b(3 * z + 1) - b(6 * z + 3) - b(9 * z + 2) - b(9 * z + 4))
            / ((1 - b(3)) * (b(9 * z + 3) - 1))),
        (9, 6, lambda b, z: (1 + b(1) + b(3 * z + 2) + b(6 * z + 7)
                             - b(3 * z + 1) - b(6 * z + 6) - b(9 * z + 5) - b(9 * z + 7))
            / ((1 - b(3)) * (b(9 * z + 6) - 1))),
    ]),
}


def closed_form(kind: "BetaKind | str", p: int) -> FieldElement | None:
    """Exact evaluation of the printed rational expressions; None where uncovered."""
    uncovered, classes = _CLOSED[BetaKind(kind)]
    if check_period(p) in uncovered:
        return None
    z, f = _family(classes, p)
    return f(make_context(kind).beta_pow, z)


def closed_record(kind: "BetaKind | str", p: int, digits: int = 10) -> SurvivorRecord | None:
    value = closed_form(kind, p)
    if value is None:
        return None
    return SurvivorRecord(p, None, value, value.decimal(digits), CLOSED, False, 1)


def limit_value(kind: "BetaKind | str") -> FieldElement:
    """The exact constant the critical values increase to within each family.

    It is 1 - 1/beta for every kind, which equals the abstract's 1/2,
    1/(beta^3 - beta) and (beta^2 + 1)/(beta^4 - beta).
    """
    return 1 - 1 / make_context(kind).beta()


CrossCheckRow = namedtuple("CrossCheckRow", "p method word exact value_float agrees")


class CrossCheckReport(
    namedtuple("CrossCheckReport", "kind p_max rows theorem_mismatches formula_mismatches")
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.theorem_mismatches and not self.formula_mismatches

    def csv_rows(self) -> list[str]:
        out = []
        for r in self.rows:
            agrees = "true" if r.agrees else "false"
            out.append(
                f"{self.kind.value},{r.p},{r.method},{r.word},{r.exact},{r.value_float},{agrees}"
            )
        return out


CSV_HEADER = "kind,p,method,word,exact,float,agrees"


def cross_check(
    kind: "BetaKind | str",
    p_max: int,
    workers: int = 1,
    allow_large: bool = False,
    digits: int = 10,
) -> CrossCheckReport:
    """Run every computation path for p <= p_max and compare them exactly.

    The theorem word is the reference.  A brute-force disagreement is fatal
    evidence ("theorem mismatch"); a closed-form disagreement while brute
    force matches the word is a "paper-formula mismatch".  Both are data.
    """
    kind = BetaKind(kind)
    ps = range(1, check_period(p_max, "p_max") + 1)
    (brute,) = _brute_force([kind], ps, workers, allow_large, digits)
    return _compare_paths(kind, brute, digits)


def _compare_paths(kind: BetaKind, brute, digits: int) -> CrossCheckReport:
    """cross_check's comparisons, given the brute-force records of p = 1..p_max in order."""
    rows: list[CrossCheckRow] = []
    theorem_bad: list[str] = []
    formula_bad: list[str] = []

    def row(rec: SurvivorRecord, agrees: bool) -> None:
        w, exact = rec.word or "", rec.value.serialize()
        rows.append(CrossCheckRow(rec.p, rec.method, w, exact, rec.value_float, agrees))

    for brec in brute:
        p = brec.p
        trec = theorem_record(kind, p, digits)
        reference = trec.value
        value_ok = brec.value == reference
        word_ok = trec.word is None or brec.word == trec.word
        if not (value_ok and word_ok):
            theorem_bad.append(
                f"{kind.value} p={p}: brute word={brec.word} S={brec.value.serialize()}"
                f" vs theorem word={trec.word} S={reference.serialize()}"
            )
        row(brec, value_ok and word_ok)
        row(trec, True)
        crec = closed_record(kind, p, digits)
        if crec is not None:
            formula_ok = crec.value == reference
            if not formula_ok:
                tag = "paper-formula mismatch" if value_ok else "theorem mismatch"
                formula_bad.append(
                    f"{kind.value} p={p} ({tag}): closed form {crec.value.serialize()}"
                    f" vs theorem word value {reference.serialize()}"
                )
            row(crec, formula_ok)
    return CrossCheckReport(kind, len(brute), tuple(rows), tuple(theorem_bad), tuple(formula_bad))
