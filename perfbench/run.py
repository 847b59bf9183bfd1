"""The betahole benchmark: timed, output-checked runs of the public CLI.

    python3 perfbench/run.py --workload verify-p20-w1 --seed 1 --seconds 40 --trace 0

Runs one workload as a closed loop (one client, one command at a time, each
command a fresh ``python -m betahole`` process with ``src`` on PYTHONPATH)
for about ``--seconds`` seconds, checks every command's output, and prints
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn.  The exit code is 0 only when every output check
passed.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

from tracer import MARKER as TRACE_MARKER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"
LAUNCH = HERE / "launch.py"
EXPECTED = HERE / "expected.json"
USAGE_MARKER = "perfbench-usage "

KINDS = ("2", "golden", "tribonacci")
WORKLOADS = {
    "verify-p20-w1": [["verify", "--pmax", "20", "--workers", "1"]],
    "verify-p20-w2": [["verify", "--pmax", "20", "--workers", "2"]],
    "table-p1000": [
        ["table", "--beta", kind, "--pmax", "1000", "--method", method,
         "--format", "csv", "--digits", "30"]
        for kind in KINDS
        for method in ("theorem", "closed")
    ],
}
# rows where the closed form exists, so theorem and closed tables can be compared
TABLE_ROWS = {"2": 1000, "golden": 999, "tribonacci": 996}

SETUP_SAMPLES = 4  # per gap: before each pass and after the last
# -S leaves out the site hook: it is the environment's (about 45 ms of .pth files
# on the machine in README.md), and no change to betahole can move it
SETUP_ARGS = ["-S", "-c", "import betahole\nfor k in ('2', 'golden', 'tribonacci'):\n"
              "    betahole.make_context(k)\n"]
COMMAND_TIMEOUT_S = 150  # a hung command is killed and counted as failed

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SPEED_PERIOD_S = 0.05  # one reference chunk every 50 ms, about 3% of a core
SPEED_MIN_SAMPLES = 4  # a shorter window borrows the samples nearest to it
# CPU time of one reference chunk on the reference machine (README.md), while a
# command runs beside it; it turns speed factors into seconds at that speed
REFERENCE_CHUNK_S = 1.6e-3
_BIG = 3**700


def reference_chunk() -> float:
    """CPU seconds of a fixed piece of pure-Python work, in the calling thread.

    Big-integer products and remainders, Fraction arithmetic and tuple sorting:
    the kinds of work betahole does, but none of its code, so no change to
    betahole can change this chunk's speed.
    """
    t = time.thread_time()
    acc = 1
    for i in range(1200):
        acc = (acc * 5 + _BIG) % (_BIG + i + 1)
    f = Fraction(1, 3)
    for i in range(150):
        f = f * Fraction(i + 2, i + 1) - Fraction(1, i + 5)
    sorted(tuple((j * i) % 3 for j in range(12)) for i in range(150))
    return time.thread_time() - t


class Speedometer:
    """The host's speed while the commands run, sampled from a thread of this process.

    A shared host changes speed by tens of percent for minutes at a time, and a
    command's wall time changes with it.  A thread runs `reference_chunk` every
    SPEED_PERIOD_S while the commands run beside it (this process only waits for
    them), so it sees the same host.  `factor` is the reference chunk time over
    the mean chunk time in a window: a command's wall time times its window's
    factor is its wall time at the reference machine's speed.  Chunk times are
    the thread's CPU time, so waiting for the GIL or the scheduler does not count.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.chunks: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(SPEED_PERIOD_S):
            chunk = reference_chunk()
            self.chunks.append(chunk)
            self.times.append(time.perf_counter())

    def factor(self, t0: float, t1: float) -> float:
        """Reference chunk time over the mean chunk time between t0 and t1."""
        n = len(self.times)  # the thread only appends, so a prefix is consistent
        i, j = bisect_left(self.times, t0, 0, n), bisect_right(self.times, t1, 0, n)
        if j - i < SPEED_MIN_SAMPLES:
            mid = bisect_left(self.times, (t0 + t1) / 2, 0, n)
            i = max(0, min(mid - SPEED_MIN_SAMPLES // 2, n - SPEED_MIN_SAMPLES))
            j = min(n, i + SPEED_MIN_SAMPLES)
        chunks = self.chunks[i:j]
        if not chunks:
            chunks = [reference_chunk() for _ in range(SPEED_MIN_SAMPLES)]
        return REFERENCE_CHUNK_S / statistics.fmean(chunks)


class Command:
    """One finished command: its output, exit code and own resource use."""

    def __init__(self, argv: list[str], env: dict, traced: bool = False) -> None:
        self.args = argv
        program = [str(TRACER), *argv] if traced else ["-m", "betahole", *argv]
        self.start = time.perf_counter()
        self.stdout, self.stderr, self.usage = launch(program, env)
        self.end = time.perf_counter()
        self.code = self.usage.get("exit", -1)
        self.wall = self.usage.get("wall_s", 0.0)
        self.cpu = self.usage.get("cpu_s", 0.0)
        self.peak_rss_mb = self.usage.get("peak_rss_kib", 0) / 1024
        found = [line for line in self.stderr.splitlines() if line.startswith(TRACE_MARKER)]
        self.trace = json.loads(found[-1][len(TRACE_MARKER):]) if found else None
        self.errors: list[str] = []

    @property
    def key(self) -> str:
        return " ".join(self.args)


def launch(program: list[str], env: dict) -> tuple[bytes, str, dict]:
    """Run `python <program>` through launch.py; return stdout, stderr and usage."""
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", str(LAUNCH), sys.executable, *program],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    # a hung command is killed with its whole process group, pool workers included
    timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    text = stderr.decode(errors="replace")
    usage = {"exit": proc.returncode}
    for line in text.splitlines():
        if line.startswith(USAGE_MARKER):
            usage = json.loads(line[len(USAGE_MARKER):])
    return stdout, text, usage


def check_outputs(commands: list[Command], expected: dict[str, str]) -> None:
    """Record in each command's .errors every way its output is wrong."""
    for c in commands:
        if c.code != 0:
            c.errors.append(f"exit code {c.code}: {c.stderr[-500:]}")
        digest = hashlib.sha256(c.stdout).hexdigest()
        if digest != expected.get(c.key):
            c.errors.append(f"stdout sha256 {digest} differs from the recorded one")
        if c.args[0] == "verify":
            lines = c.stdout.decode(errors="replace").splitlines()
            if not lines or not lines[-1].startswith("ok: all paths agree"):
                c.errors.append("verify did not end with 'ok: all paths agree'")
    tables = {(c.args[2], c.args[6]): c for c in commands if c.args[0] == "table"}
    for kind in KINDS:
        theorem, closed = tables.get((kind, "theorem")), tables.get((kind, "closed"))
        if theorem is None or closed is None:
            continue
        compared, bad = compare_tables(theorem.stdout, closed.stdout)
        if bad or compared != TABLE_ROWS[kind]:
            closed.errors.append(
                f"beta={kind}: {bad} of {compared} closed rows disagree with the theorem"
                f" table (expected 0 of {TABLE_ROWS[kind]})"
            )


def compare_tables(theorem_csv: bytes, closed_csv: bytes) -> tuple[int, int]:
    """Rows compared and rows whose exact or float column differ, keyed by p."""
    def rows(data: bytes) -> dict[str, list[str]]:
        # p,word,exact,float,method; a malformed line compares unequal
        fields = (line.split(",") for line in data.decode(errors="replace").splitlines()[1:])
        return {f[0]: f[2:4] for f in fields}

    theorem, closed = rows(theorem_csv), rows(closed_csv)
    bad = sum(theorem.get(p) != v for p, v in closed.items())
    return len(closed), bad


def loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def run_pass(workload: str, env: dict, traced: bool, expected: dict,
             speed: Speedometer) -> dict:
    before = loadavg()
    commands = [Command(argv, env, traced) for argv in WORKLOADS[workload]]
    check_outputs(commands, expected)
    return {
        "commands": commands,
        "wall_s": sum(c.wall * speed.factor(c.start, c.end) for c in commands),
        "raw_wall_s": sum(c.wall for c in commands),
        "speed": speed.factor(commands[0].start, commands[-1].end),
        "cpu_s": sum(c.cpu for c in commands),
        "peak_rss_mb": max(c.peak_rss_mb for c in commands),
        "loadavg_before": before,
        "loadavg_after": loadavg(),
    }


def log(line: str) -> None:
    print(line, flush=True)


def log_pass(p: dict, traced: bool) -> None:
    fields = ("wall_s", "raw_wall_s", "speed", "cpu_s", "peak_rss_mb", "loadavg_before",
              "loadavg_after")
    failed = sum(bool(c.errors) for c in p["commands"])
    log("pass " + json.dumps({"traced": traced, **{k: p[k] for k in fields}, "failed": failed}))
    for c in p["commands"]:
        for e in c.errors:
            log(f"FAILED {c.key}: {e}")


def measure_setup(env: dict, n: int, speed: Speedometer) -> list[float]:
    """Wall times, at the reference speed, of n fresh interpreters that import
    betahole and build the contexts."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        _, err, usage = launch(SETUP_ARGS, env)
        if usage.get("exit") != 0:
            raise RuntimeError(f"importing betahole failed: {err[-500:]}")
        times.append(usage["wall_s"] * speed.factor(start, time.perf_counter()))
    return times


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def git(*args: str) -> str | None:
    # the ceiling stops git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if dirty is None else bool(dirty),
        "src_sha256": src.hexdigest(),
    }


# -- per-layer metrics of a traced pass -------------------------------------------------

def _span(name: str, field: int):
    """Calls (field 0), inclusive seconds (1) or self seconds (2) of a span."""
    return lambda t, p: t["spans"].get(name, [0, 0.0, 0.0])[field]


def _count(key: str):
    return lambda t, p: t["counts"].get(key, 0)


def admitted(t: dict, kind: str) -> tuple[int, int]:
    """Words of one kind admitted and checked, over all periods."""
    pairs = [v for k, v in t["admitted"].items() if k.split("/")[0] == kind]
    return sum(ok for ok, _ in pairs), sum(total for _, total in pairs)


def _ratio(kind: str):
    """Admitted over checked words of one kind, 0 when none was checked."""
    def value(t, p):
        ok, total = admitted(t, kind)
        return ok / total if total else 0.0
    return value


def _imbalance(t, p):
    """Sum over pools of the slowest shard over the sum of the mean shard."""
    pools = [s for s in t["shards"] if s]
    mean = sum(statistics.fmean(s) for s in pools)
    return sum(max(s) for s in pools) / mean if mean else 0.0


def _rounds(t, p):
    return sum(v for k, v in t["counts"].items() if k.startswith("numberfield.refine.rounds@"))


_W, _E, _N, _S, _C = ("betahole.words:", "betahole.expansions:", "betahole.numberfield:",
                      "betahole.survivor:", "betahole.cli:")

# name -> (unit, traced public name it depends on, value from (trace, pass pair))
PER_LAYER = {
    "words.lyndon.calls": ("count", _W + "primitive_representatives",
                           _count("words.lyndon.calls")),
    "words.lyndon.yielded": ("count", _W + "primitive_representatives",
                             _count("words.lyndon.yielded")),
    "words.lyndon.s": ("s", _W + "primitive_representatives", _span("words.lyndon", 1)),
    "words.rotations.calls": ("count", _W + "rotations", _span("words.rotations", 0)),
    "words.rotations.s": ("s", _W + "rotations", _span("words.rotations", 1)),
    "expansions.admissible.calls": ("count", _E + "is_admissible",
                                    _span("expansions.admissible", 0)),
    "expansions.admissible.s": ("s", _E + "is_admissible", _span("expansions.admissible", 1)),
    **{f"expansions.admissible.ratio.{kind}": ("ratio", _E + "is_admissible", _ratio(kind))
       for kind in KINDS},
    "expansions.rotation_numerators.calls": ("count", _E + "rotation_numerators",
                                             _span("expansions.rotation_numerators", 0)),
    "expansions.rotation_numerators.s": ("s", _E + "rotation_numerators",
                                         _span("expansions.rotation_numerators", 1)),
    "numberfield.int_sign.calls": ("count", _N + "BetaContext.int_sign",
                                   _span("numberfield.int_sign", 0)),
    "numberfield.int_sign.s": ("s", _N + "BetaContext.int_sign",
                               _span("numberfield.int_sign", 1)),
    "numberfield.refine.rounds": ("count", _N + "BetaContext.beta_floor_scaled", _rounds),
    "numberfield.refine.max_bits": (
        "bits", _N + "BetaContext.beta_floor_scaled",
        lambda t, p: t["maxima"].get("numberfield.refine.max_bits", 0)),
    "numberfield.horner.calls": ("count", _N + "BetaContext.int_horner",
                                 _span("numberfield.horner", 0)),
    "numberfield.horner.s": ("s", _N + "BetaContext.int_horner", _span("numberfield.horner", 1)),
    "numberfield.field.calls": ("count", _N + "FieldElement.__mul__",
                                _span("numberfield.field", 0)),
    "numberfield.field.s": ("s", _N + "FieldElement.__mul__", _span("numberfield.field", 1)),
    "numberfield.decimal.calls": ("count", _N + "FieldElement.decimal",
                                  _span("numberfield.decimal", 0)),
    "numberfield.decimal.s": ("s", _N + "FieldElement.decimal", _span("numberfield.decimal", 1)),
    **{f"survivor.brute.s.{kind}": ("s", _S + "brute_force_S", _span(f"survivor.brute.{kind}", 1))
       for kind in KINDS},
    "survivor.brute.self_s": (
        "s", _S + "brute_force_S",
        lambda t, p: sum(_span(f"survivor.brute.{kind}", 2)(t, p) for kind in KINDS)),
    "survivor.theorem.s": ("s", _S + "theorem_record", _span("survivor.theorem", 1)),
    "survivor.closed.s": ("s", _S + "closed_record", _span("survivor.closed", 1)),
    "survivor.pool.created": ("count", _S + "ProcessPoolExecutor",
                              _count("survivor.pool.created")),
    "survivor.pool.jobs": ("count", _S + "ProcessPoolExecutor", _count("survivor.pool.jobs")),
    "survivor.pool.startup_s": ("s", _S + "ProcessPoolExecutor",
                                lambda t, p: t["pool_startup"]),
    "survivor.pool.shard_imbalance": ("ratio", _S + "ProcessPoolExecutor", _imbalance),
    # tree CPU over wall of the untraced commands, so tracing cost does not enter
    "survivor.pool.parallelism": ("ratio", None,
                                  lambda t, p: p["plain"]["cpu_s"] / p["plain"]["raw_wall_s"]),
    "cli.main.s": ("s", _C + "main", _span("cli.main", 1)),
    "cli.self_s": ("s", _C + "main", _span("cli.main", 2)),
    "trace.overhead_ratio": ("ratio", None,
                             lambda t, p: p["traced"]["wall_s"] / p["plain"]["wall_s"]),
}
# metrics that must repeat exactly between traced passes
COUNT_METRICS = [name for name, (unit, _, _) in PER_LAYER.items()
                 if unit in ("count", "bits") or name.startswith("expansions.admissible.ratio")]


def merged_trace(commands: list[Command]) -> dict | None:
    """Sum the traces of a pass's commands; None when any command sent none."""
    if any(c.trace is None for c in commands):
        return None
    total = Tracer()
    missing: set[str] = set()
    for c in commands:
        total.merge(c.trace)
        missing.update(c.trace["missing"])
    snap = total.snapshot()
    snap["missing"] = sorted(missing)
    return snap


def layer_values(trace: dict, pair: dict) -> dict[str, float | None]:
    """Per-layer metric values; None for a metric whose traced name is gone."""
    return {
        name: None if source in trace["missing"] else fn(trace, pair)
        for name, (_, source, fn) in PER_LAYER.items()
    }


# -- running a workload ------------------------------------------------------------

def command_env(seed: int) -> dict:
    """The commands' environment: this checkout's src first, hashing seeded.

    The inputs are fixed; the seed only varies string hashing, which no output
    may depend on.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: bool, expected: dict) -> dict:
    """Run passes of one workload for about `seconds`; return its result object."""
    start = time.perf_counter()
    env = command_env(seed)
    log("provenance " + json.dumps(provenance(workload, seed, seconds, trace), sort_keys=True))
    # set-up samples are spread over the run, so one slow spell of a shared
    # machine does not decide their median
    setup, passes, pairs = [], [], []
    with Speedometer() as speed:
        measure_setup(env, 1, speed)  # warms the bytecode cache; not counted
        while True:
            t_pass = time.perf_counter()
            setup += measure_setup(env, SETUP_SAMPLES, speed)
            plain = run_pass(workload, env, False, expected, speed)
            passes.append(plain)
            log_pass(plain, False)
            if trace:
                traced = run_pass(workload, env, True, expected, speed)
                for a, b in zip(plain["commands"], traced["commands"]):
                    if a.stdout != b.stdout:
                        b.errors.append("traced stdout differs from untraced stdout")
                    if b.trace is None:
                        b.errors.append("traced command reported no trace")
                passes.append(traced)
                pairs.append({"plain": plain, "traced": traced})
                log_pass(traced, True)
            step = time.perf_counter() - t_pass
            # start another pass only while a whole one still fits in the window
            if time.perf_counter() + step > start + seconds:
                break
        setup += measure_setup(env, SETUP_SAMPLES, speed)

    metrics = per_layer_metrics(pairs) if trace else end_to_end_metrics(passes, setup)
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(bool(c.errors) for p in passes for c in p["commands"])
    log(f"error_rate   {failed / attempted:.6g}  ({failed} failed / {attempted} attempted commands)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> dict:
    series = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {}
    for name, vals in series.items():
        med, q1, q3 = summary(vals)
        unit = END_TO_END_UNITS[name]
        log(f"{name:<12} {med:.6g} {unit}  (median; q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
        metrics[name] = {"value": med, "unit": unit}
    med, q1, q3 = summary([p["raw_wall_s"] for p in passes])
    log(f"{'raw_wall_s':<12} {med:.6g} s  (median; q1 {q1:.6g}, q3 {q3:.6g}; not scaled to"
        " the reference speed)")
    return metrics


def per_layer_metrics(pairs: list[dict]) -> dict:
    """Medians over the traced passes; counts must repeat exactly between them."""
    traces, values = [], []
    for pair in pairs:
        trace = merged_trace(pair["traced"]["commands"])
        if trace is not None:
            traces.append(trace)
            values.append(layer_values(trace, pair))
    for earlier, later in zip(values, values[1:]):
        if any(earlier[m] != later[m] for m in COUNT_METRICS):
            pairs[-1]["traced"]["commands"][0].errors.append(
                "per-layer counts differ between traced passes of one run")
            log("FAILED per-layer counts differ between traced passes of one run")
    metrics = {}
    for name, (unit, source, _) in PER_LAYER.items():
        vals = [v[name] for v in values]
        if not vals or None in vals:
            metrics[name] = {"value": None, "unit": unit}
            log(f"{name:<38} missing ({source or 'no trace'})")
            continue
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
        log(f"{name:<38} {metrics[name]['value']:.6g} {unit}")
    if traces:
        t = traces[-1]
        rounds = {k.split("@", 1)[1]: v for k, v in t["counts"].items()
                  if k.startswith("numberfield.refine.rounds@")}
        log("numberfield.refine.rounds by calling span " + json.dumps(rounds, sort_keys=True))
        base = {kind: admitted(t, kind) for kind in KINDS}
        log("expansions.admissible admitted/checked " + json.dumps(base, sort_keys=True))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "betahole" / "cli.py").is_file() or not EXPECTED.is_file():
        print(f"error: no betahole sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        log(f"== workload {name}")
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
