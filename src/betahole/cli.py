"""Command-line front end: single values, tables, figure data, verification.

Exit codes: 0 success / all paths agree, 1 I/O error, 2 usage error,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain

from .numberfield import MAX_DIGITS, BetaKind, check_digits
from .survivor import (
    BRUTE,
    CLOSED,
    CSV_HEADER,
    DEFAULT_P_CAP,
    HARD_P_CAP,
    MAX_P,
    THEOREM,
    SurvivorRecord,
    _brute_force,
    _compare_paths,
    closed_record,
    theorem_record,
)

TABLE_HEADER = "p,word,exact,float,method"

_METHOD_FLAGS = {"brute": BRUTE, "theorem": THEOREM, "closed": CLOSED}


def _records(method: str, kind: BetaKind, ps, args) -> Iterable[SurvivorRecord]:
    """One method's records for the periods ps, skipping those without a closed form."""
    if method == BRUTE:
        return _brute_force([kind], ps, args.workers, args.allow_large_p, args.digits)[0]
    if method == THEOREM:
        return (theorem_record(kind, p, digits=args.digits) for p in ps)
    return (r for p in ps if (r := closed_record(kind, p, digits=args.digits)) is not None)


def _render(records: Iterable[SurvivorRecord], kind: BetaKind, fmt: str) -> Iterator[str]:
    """The text or csv lines of the records, one line per record as it is made.

    A csv header is joined to the first row, so nothing is yielded before the
    first record is made.
    """
    if fmt == "text":
        lines = (f"{r.describe(kind)}\n" for r in records)
    else:
        lines = (f"{r.p},{r.word or ''},{r.value.serialize()},{r.value_float},{r.method}\n" for r in records)
    head = "" if fmt == "text" else f"{TABLE_HEADER}\n"
    # with no rows, a text table is one empty line and a csv table its header
    yield head + next(lines, "" if head else "\n")
    yield from lines


def _emit(lines: Iterable[str], out_path: str | None) -> int:
    """Write the lines to stdout or to out_path; 1 if out_path cannot be written.

    Each line is written as it is made, and the stream's own buffer batches
    them.  The first line is made before out_path is opened, so an error
    raised while making it leaves no file.
    """
    rest = iter(lines)
    lines = chain((next(rest, ""),), rest)
    if out_path is None:
        sys.stdout.writelines(lines)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _svg(points: list[tuple[int, str]], title: str) -> str:
    """Self-contained scatter/line plot; axis ranges come from the data."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 40, 50
    xs = [p for p, _ in points]
    ys = [float(v) for _, v in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1
    if ymax == ymin:
        ymax = ymin + 1.0
    inner_w = width - ml - mr
    inner_h = height - mt - mb

    def px(x: float) -> str:
        return f"{ml + (x - xmin) / (xmax - xmin) * inner_w:.2f}"

    def py(y: float) -> str:
        return f"{mt + (ymax - y) / (ymax - ymin) * inner_h:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{ml}" y="{height - mb + 18}" text-anchor="middle" font-size="11">{xmin}</text>',
        f'<text x="{width - mr}" y="{height - mb + 18}" text-anchor="middle" font-size="11">{xmax}</text>',
        f'<text x="{ml - 6}" y="{height - mb + 4}" text-anchor="end" font-size="11">{ymin:.5f}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" text-anchor="end" font-size="11">{ymax:.5f}</text>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="12">p</text>',
    ]
    path = " ".join(f"{px(p)},{py(float(v))}" for p, v in points)
    lines.append(f'<polyline points="{path}" fill="none" stroke="steelblue" stroke-width="1"/>')
    for p, v in points:
        lines.append(f'<circle cx="{px(p)}" cy="{py(float(v))}" r="3" fill="steelblue"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_survivor(args) -> int:
    methods = _METHOD_FLAGS.values() if args.method == "all" else [_METHOD_FLAGS[args.method]]
    kind = BetaKind(args.beta)
    records = [r for m in methods for r in _records(m, kind, [args.p], args)]
    return _emit(_render(records, kind, args.format), args.out)


def cmd_table(args) -> int:
    kind = BetaKind(args.beta)
    records = _records(_METHOD_FLAGS[args.method], kind, range(1, args.pmax + 1), args)
    if args.format != "svg":
        return _emit(_render(records, kind, args.format), args.out)
    points = [(r.p, r.value_float) for r in records]
    span = f"beta={kind.value}, p=1..{args.pmax}"
    if not points:
        raise ValueError(f"nothing to plot: the {args.method} method has no values for {span}")
    return _emit([_svg(points, f"S(p) for {span}")], args.out)


def cmd_verify(args) -> int:
    # one brute-force run for all the kinds: one pool, one map
    ps = range(1, args.pmax + 1)
    runs = _brute_force(BetaKind, ps, args.workers, args.allow_large_p, args.digits)
    reports = [_compare_paths(k, brute, args.digits) for k, brute in zip(BetaKind, runs)]
    mismatches = [m for rep in reports for m in rep.theorem_mismatches + rep.formula_mismatches]
    ok = f"ok: all paths agree for all kinds up to p={args.pmax}"
    summary = ["mismatches:", *mismatches] if mismatches else [ok]
    lines = chain([CSV_HEADER], *(rep.csv_rows() for rep in reports), summary)
    return _emit((f"{line}\n" for line in lines), args.out) or (3 if mismatches else 0)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with exactly the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="betahole",
        description="Critical hole sizes for periodic survivors of the beta-transformation.",
    )
    # flags are spelt out in full: as a prefix, --p would stand for --pmax
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)
    survivor = sub.add_parser("survivor", help="critical value for a single period")
    survivor.add_argument("--p", type=int, required=True, help="single period")
    table = sub.add_parser("table", help="table of critical values for p = 1..pmax")
    verify = sub.add_parser("verify", help="cross-check every computation path for all kinds")
    for sp in (table, verify):
        sp.add_argument("--pmax", type=int, required=True, help="largest period")
    for sp, methods, default, formats in (
        (survivor, ["brute", "theorem", "closed", "all"], "all", ["text", "csv"]),
        (table, ["brute", "theorem", "closed"], "theorem", ["text", "csv", "svg"]),
    ):
        sp.add_argument("--beta", choices=[k.value for k in BetaKind], required=True)
        sp.add_argument("--method", choices=methods, default=default, help="computation path")
        sp.add_argument("--format", choices=formats, default="text")
    for sp in (survivor, table, verify):
        sp.add_argument(
            "--digits", type=int, default=10, help=f"significant digits (1 to {MAX_DIGITS})"
        )
        sp.add_argument("--workers", type=int, default=1, help="parallel workers")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument(
            "--allow-large-p",
            action="store_true",
            help=f"allow brute-force enumeration for {DEFAULT_P_CAP} < p <= {HARD_P_CAP}",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    top = args.p if args.command == "survivor" else args.pmax
    if top < 1:
        parser.error("periods must be >= 1")
    if top > MAX_P:
        parser.error(f"p={top} exceeds the period cap of {MAX_P}")
    handlers = {"survivor": cmd_survivor, "table": cmd_table, "verify": cmd_verify}
    try:
        check_digits(args.digits)  # before any work, as a usage error
        return handlers[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises SystemExit(2)
    except BrokenPipeError:
        # the reader closed stdout: stop, and point stdout at devnull so that
        # the interpreter's last flush of the buffered rest cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
