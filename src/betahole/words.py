"""Finite binary words and eventually periodic 0/1 sequences.

Words are plain strings over {0,1}; a word of length p stands for the purely
periodic sequence obtained by repeating it forever.  PeriodicSeq adds a finite
preperiod so shifted and quasi-greedy expansions can be represented exactly.
All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator

# lexicographic comparison outcomes
LT, EQ, GT = -1, 0, 1

_SEQ_RE = re.compile(r"([01]*)\(([01]+)\)")


def check_word(w: str) -> str:
    """Validate a binary word: a str, nonempty, every digit 0 or 1."""
    if not isinstance(w, str):
        raise TypeError(f"a word must be a str, not {type(w).__name__}")
    if not w or w.strip("01"):
        raise ValueError(f"not a nonempty binary word: {w!r}")
    return w


def check_period(p: int, name: str = "p", least: int = 1) -> int:
    """Validate a period or a count: an int, not a bool, that is at least `least`."""
    if isinstance(p, bool) or not isinstance(p, int):
        raise TypeError(f"{name} must be an int, not {type(p).__name__}")
    if p < least:
        raise ValueError(f"{name} must be >= {least}")
    return p


def smallest_period(w: str) -> int:
    """Least q dividing len(w) such that w is the (len/q)-fold repeat of w[:q]: the
    first return of w in w + w, as w's rotation by q is then one by gcd(q, len(w))."""
    return (check_word(w) * 2).find(w, 1)


def rotations(w: str) -> list[str]:
    """All cyclic rotations of w, in rotation-offset order (offset 0 first)."""
    check_word(w)
    p, ww = len(w), w + w
    return [ww[k : k + p] for k in range(p)]


def lex_min_rotation(w: str) -> str:
    """The rotation r of w minimizing the infinite power (r)^inf.

    For rotations of equal length plain string order decides, since the first
    differing position settles both the finite and the infinite comparison.
    """
    return min(rotations(w))


class PeriodicSeq:
    """An eventually periodic binary sequence: pre + period repeated forever.

    Raw construction is allowed (shift outputs stay cheap); canonical() makes
    the period primitive and the preperiod shortest.  Equality compares
    canonical forms.  Immutable: assigning to a field raises AttributeError.
    """

    __slots__ = ("pre", "period")

    def __init__(self, pre: str, period: str) -> None:
        if not isinstance(pre, str):
            raise TypeError(f"a preperiod must be a str, not {type(pre).__name__}")
        if pre.strip("01"):
            raise ValueError(f"bad preperiod: {pre!r}")
        check_word(period)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"PeriodicSeq is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PeriodicSeq, (self.pre, self.period)

    def symbol(self, i: int) -> str:
        """The i-th symbol (0-based) of the infinite sequence."""
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def canonical(self) -> "PeriodicSeq":
        per = self.period[: smallest_period(self.period)]
        pre = self.pre
        # absorbing the last preperiod symbol into a right-rotated period
        # leaves the sequence unchanged
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        return PeriodicSeq(pre, per)

    def shift(self) -> "PeriodicSeq":
        """Drop the first symbol (the left-shift on sequences)."""
        if self.pre:
            return PeriodicSeq(self.pre[1:], self.period)
        p = self.period
        if len(p) == 1:
            return self
        return PeriodicSeq("", p[1:] + p[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicSeq):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.pre == b.pre and a.period == b.period

    def __hash__(self) -> int:
        c = self.canonical()
        return hash((c.pre, c.period))

    def __str__(self) -> str:
        return f"{self.pre}({self.period})"

    def __repr__(self) -> str:
        return f"PeriodicSeq({self.pre!r}, {self.period!r})"

    @classmethod
    def parse(cls, text: str) -> "PeriodicSeq":
        """Parse the pre(period) serialization, e.g. '1(0)' or '(01)'."""
        m = _SEQ_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"not a pre(period) sequence: {text!r}")
        return cls(m.group(1), m.group(2))

    @classmethod
    def pure(cls, period: str) -> "PeriodicSeq":
        return cls("", period)


def as_seq(x: "PeriodicSeq | str") -> PeriodicSeq:
    """Coerce a word to its purely periodic sequence."""
    if isinstance(x, PeriodicSeq):
        return x
    return PeriodicSeq.pure(check_word(x))


def lex_compare(a: "PeriodicSeq | str", b: "PeriodicSeq | str") -> int:
    """Lexicographic comparison of infinite sequences: LT, EQ or GT.

    Past both preperiods the tails have periods p and q, and by Fine and Wilf
    (1965) two such tails that agree on p + q - gcd(p, q) symbols are equal.
    """
    a, b = as_seq(a), as_seq(b)
    p, q = len(a.period), len(b.period)
    n = max(len(a.pre), len(b.pre)) + p + q - math.gcd(p, q)
    x, y = ((s.pre + s.period * (n // len(s.period) + 1))[:n] for s in (a, b))
    return EQ if x == y else LT if x < y else GT


def shift(s: "PeriodicSeq | str") -> PeriodicSeq:
    return as_seq(s).shift()


def passing_factors(below: str) -> tuple[str, ...]:
    """The factor-minimal words below[:j] + "1" with below[j] == "0".

    A word has a factor greater than the prefix of (below)^inf of the same
    length exactly when it contains one of these: such a factor first exceeds
    the stream with a 1 over a 0, and one that does so at j >= len(below)
    contains the one at j - len(below).  Each ends in "1", and "1" itself
    passes when below starts with 0.
    """
    passes = [below[:j] + "1" for j, c in enumerate(below) if c == "0"]
    return tuple(f for f in passes if not any(g != f and g in f for g in passes))


def primitive_representatives(
    p: int, below: str | None = None, shard: int = 0, shards: int = 1,
    lengths: Iterable[int] | None = None,
) -> Iterator[str]:
    """Lexicographically least rotations of the primitive binary words of length p.

    Yields exactly one representative per cyclic class (the Lyndon words of
    length p), in increasing value of the word read as a binary number.  With
    `lengths`, periods of at most p, one walk yields the Lyndon words of every
    one of those lengths instead, in lexicographic order (a word before its
    extensions); the walk to length p passes all of them (Duval).

    With `below`, it yields exactly the Lyndon words w whose every rotation r
    has r^inf strictly below (below)^inf, in the same order.  A prefix that
    holds one of passing_factors(below) is skipped with all its extensions
    (the rotation at that factor exceeds (below)^inf), and a word is left out
    when it is 1, the Lyndon rotation of below's primitive root (its power is
    (below)^inf), or when it holds such a factor across a seam of w^inf.

    With `shards` > 1 the walk numbers the prefixes of length d = p - 8 that
    it reaches, in order, and enters only those whose number is shard mod
    shards; it skips the others as it skips a pruned prefix.  Each such
    subtree holds at most 2^8 words of length p, and for p <= 8 shard 0 takes
    every word.  A word of length at most d lies above every subtree, and only
    shard 0 yields it.  The outputs for shard = 0, 1, ..., shards - 1
    partition the single-shard stream, each in its order.

    p and every entry of a nonempty `lengths` must be ints (not bools) from 1
    to p, `below`, when given, a nonempty binary word, and shard and shards
    ints with 0 <= shard < shards; the first next() raises otherwise, before
    the walk starts.
    """
    check_period(p)
    lengths = {p} if lengths is None else {check_period(n, "length") for n in lengths}
    if not lengths or max(lengths) > p:
        raise ValueError(f"need one or more lengths from 1 to {p}")
    if below is not None:
        check_word(below)
    if check_period(shard, "shard", 0) >= check_period(shards, "shards"):
        raise ValueError("need 0 <= shard < shards")
    # one shard numbers no subtree; at p <= 8 the whole tree is shard 0's
    depth = p - 8 if shards > 1 else 0
    if depth < 1 and shard:
        return
    rank = -1
    # an all-ones stream is exceeded by no word; w never holds a passing factor,
    # so appending a 1 makes one exactly when w ends with a factor's stem
    factors = [f.encode() for f in passing_factors("1" if below is None else below)]
    stems = tuple(f[:-1] for f in factors)
    # w starts with 0 past length 1: a factor with no 0 after its start crosses no seam
    seam = [f for f in factors if b"0" in f[1:]]
    drop = () if below is None else ("1", lex_min_rotation(below[: smallest_period(below)]))
    # Duval / FKM: generates the binary Lyndon words of length <= p in
    # lexicographic order; those whose length is in lengths are yielded.
    # w holds ASCII digits.
    w = bytearray(b"0")
    while True:
        n = len(w)
        if n in lengths and (n > depth or not shard) and (word := w.decode()) not in drop:
            if not (seam and any(f in w * (len(f) // n + 2) for f in seam)):
                yield word
        if n < p:
            # periodic extension to length p, cut before the last symbol of the
            # first passing factor that ends past w[:n]
            w *= p // n + 1
            del w[p:]
            for f in factors:
                if (k := w.find(f, max(n + 1 - len(f), 0))) >= 0:
                    del w[k + len(f) - 1 :]
            # an extension from n <= depth to depth or more enters a new subtree
            # w[:depth]; the subtrees are dealt round-robin, another shard's is pruned
            if n <= depth <= len(w) and (rank := rank + 1) % shards != shard:
                del w[depth:]
        # next Lyndon word: drop trailing ones and turn the last zero into a
        # one.  If that prefix is pruned, so is every word up to the next
        # candidate, since all of them extend it: continue from the shorter prefix.
        while True:
            if not (k := len(w.rstrip(b"1"))):
                return
            del w[k - 1 :]
            if not w.endswith(stems):
                w.append(49)
                break
