"""Traced run of the betahole CLI, for the per-layer metrics.

Run as ``python perfbench/tracer.py <betahole CLI arguments>`` with ``src`` on
PYTHONPATH.  It wraps public functions of each betahole module in counting
spans, runs ``betahole.cli.main`` unchanged, and writes one line
``perfbench-trace <json>`` to stderr when the command ends.  Nothing under
``src/`` is modified: wrappers replace module attributes in this process only,
so stdout is byte-identical to an untraced run.

A span records calls, inclusive time (outermost call only, so recursion is not
counted twice) and self time (duration minus the time its child spans cover).
Pool workers trace their own jobs and send the totals back with each result.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import json
import sys
import time
from collections import defaultdict

MARKER = "perfbench-trace "

_now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Tracer:
    """Span and counter totals of one process (or of one pool job)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.depth: dict[str, int] = defaultdict(int)
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.admitted: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # "kind/p" -> [ok, all]
        self.shards: list[list[float]] = []  # per pool: shard wall times
        self.pool_startup = 0.0

    def open(self, name: str) -> list:
        frame = [name, 0.0]
        self.stack.append(frame)
        self.depth[name] += 1
        return frame

    def close(self, frame: list, dur: float) -> None:
        name = frame[0]
        self.stack.pop()
        self.depth[name] -= 1
        rec = self.spans[name]
        rec[0] += 1
        rec[2] += dur - frame[1]
        if not self.depth[name]:
            rec[1] += dur
        if self.stack:
            self.stack[-1][1] += dur

    def caller(self) -> str:
        return self.stack[-1][0] if self.stack else "-"

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "admitted": {k: list(v) for k, v in self.admitted.items()},
            "shards": [list(s) for s in self.shards],
            "pool_startup": self.pool_startup,
        }

    def merge(self, snap: dict) -> None:
        """Add the totals of another process, such as a pool job or another command."""
        for k, (calls, incl, self_t) in snap["spans"].items():
            rec = self.spans[k]
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_t
        for k, v in snap["counts"].items():
            self.counts[k] += v
        for k, v in snap["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)
        for k, (ok, total) in snap["admitted"].items():
            rec = self.admitted[k]
            rec[0] += ok
            rec[1] += total
        self.shards.extend(snap["shards"])
        self.pool_startup += snap["pool_startup"]


TRACER = Tracer()


def timed(name, fn):
    """Wrap fn in a span called name."""
    tracer = TRACER

    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame, _now() - t0)

    return wrapper


def _lyndon(fn):
    """primitive_representatives: count calls, time each next(), count yields."""
    tracer = TRACER

    def wrapper(*args, **kwargs):
        tracer.counts["words.lyndon.calls"] += 1
        it = fn(*args, **kwargs)
        while True:
            frame = tracer.open("words.lyndon")
            t0 = _now()
            try:
                w = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(frame, _now() - t0)
            tracer.counts["words.lyndon.yielded"] += 1
            yield w

    return wrapper


def _admissible(fn):
    """is_admissible: a span plus admitted/checked per (kind, p)."""
    inner = timed("expansions.admissible", fn)

    def wrapper(w, ctx):
        report = inner(w, ctx)
        rec = TRACER.admitted[f"{ctx.kind.value}/{len(w)}"]
        rec[0] += bool(report.admissible)
        rec[1] += 1
        return report

    return wrapper


def _brute(fn):
    """brute_force_S: one span per kind of beta."""
    spans = {}

    def wrapper(ctx, *args, **kwargs):
        kind = ctx.kind.value
        if kind not in spans:
            spans[kind] = timed(f"survivor.brute.{kind}", fn)
        return spans[kind](ctx, *args, **kwargs)

    return wrapper


def _refine(fn):
    """beta_floor_scaled: one refinement round, attributed to the calling span."""
    tracer = TRACER

    def wrapper(self, s):
        tracer.counts[f"numberfield.refine.rounds@{tracer.caller()}"] += 1
        if s > tracer.maxima["numberfield.refine.max_bits"]:
            tracer.maxima["numberfield.refine.max_bits"] = s
        return fn(self, s)

    return wrapper


def _run_job(fn, *args):
    """Pool-side: run one job under a fresh tracer and return its totals."""
    if not _installed:  # a spawned worker; forked ones inherit the wrappers
        install()
    TRACER.reset()
    t0 = _now()
    result = fn(*args)
    t1 = _now()
    return result, TRACER.snapshot(), t0, t1 - t0


class TracingPool(concurrent.futures.ProcessPoolExecutor):
    """Timing stand-in for the executor betahole.survivor creates.

    Same workers and the same map() results; each job also reports its start
    time, wall time and span totals, which are merged into the parent trace.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._created = _now()
        TRACER.counts["survivor.pool.created"] += 1

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        jobs = list(zip(*iterables))
        TRACER.counts["survivor.pool.jobs"] += len(jobs)
        frame = TRACER.open("survivor.pool")
        t0 = _now()
        try:
            futures = [self.submit(_run_job, fn, *job) for job in jobs]
            done = [f.result(timeout) for f in futures]
        finally:
            TRACER.close(frame, _now() - t0)
        for _, snap, _, _ in done:
            TRACER.merge(snap)
        TRACER.shards.append([wall for _, _, _, wall in done])
        if done:
            TRACER.pool_startup += min(start for _, _, start, _ in done) - self._created
        return iter([result for result, _, _, _ in done])


# (module, attribute path, wrapper factory): the public names traced.
TARGETS = [
    ("betahole.words", "primitive_representatives", _lyndon),
    ("betahole.words", "rotations", lambda f: timed("words.rotations", f)),
    ("betahole.expansions", "is_admissible", _admissible),
    ("betahole.expansions", "rotation_numerators",
     lambda f: timed("expansions.rotation_numerators", f)),
    ("betahole.numberfield", "BetaContext.int_sign", lambda f: timed("numberfield.int_sign", f)),
    ("betahole.numberfield", "BetaContext.beta_floor_scaled", _refine),
    ("betahole.numberfield", "BetaContext.int_horner", lambda f: timed("numberfield.horner", f)),
    ("betahole.numberfield", "FieldElement.__mul__", lambda f: timed("numberfield.field", f)),
    ("betahole.numberfield", "FieldElement.__truediv__", lambda f: timed("numberfield.field", f)),
    ("betahole.numberfield", "FieldElement.__rtruediv__", lambda f: timed("numberfield.field", f)),
    ("betahole.numberfield", "FieldElement.inverse", lambda f: timed("numberfield.field", f)),
    ("betahole.numberfield", "FieldElement.decimal", lambda f: timed("numberfield.decimal", f)),
    ("betahole.survivor", "brute_force_S", _brute),
    ("betahole.survivor", "theorem_record", lambda f: timed("survivor.theorem", f)),
    ("betahole.survivor", "closed_record", lambda f: timed("survivor.closed", f)),
    ("betahole.survivor", "ProcessPoolExecutor", lambda f: TracingPool),
    ("betahole.cli", "main", lambda f: timed("cli.main", f)),
]

_installed = False


def install(targets=TARGETS) -> list[str]:
    """Wrap every target; return the "module:attr" names that do not exist.

    A function is replaced wherever a betahole module or class holds it (for
    example both ``betahole.words.rotations`` and the name ``survivor``
    imported), so calls are traced whichever name they go through.
    """
    global _installed
    missing = []
    importlib.import_module("betahole.cli")  # loads every module the CLI uses
    modules = [m for n, m in list(sys.modules.items())
               if n == "betahole" or n.startswith("betahole.")]
    for mod_name, path, factory in targets:
        try:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{mod_name}:{path}")
            continue
        wrapped = factory(original)
        holders = modules if not outer else [owner]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapped)
    _installed = True
    return missing


def main(argv: list[str]) -> int:
    missing = install()
    from betahole import cli  # after install: cli.main is the wrapped one

    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        snap = TRACER.snapshot()
        snap["missing"] = missing
        sys.stderr.write(MARKER + json.dumps(snap, sort_keys=True) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
