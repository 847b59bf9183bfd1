import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betahole.cli as cli_mod
from betahole.cli import MAX_DIGITS, main
from betahole.numberfield import BetaKind
from betahole.survivor import MAX_P, CrossCheckReport, closed_record

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestSurvivorCommand:
    def test_all_methods_agree_for_base2(self, capsys):
        code, out = run(capsys, "survivor", "--beta", "2", "--p", "3", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all("3/7" in line for line in lines)

    def test_golden_p2_reports_empty(self, capsys):
        code, out = run(capsys, "survivor", "--beta", "golden", "--p", "2")
        assert code == 0
        assert "empty (S=0)" in out

    def test_tribonacci_theorem_word(self, capsys):
        code, out = run(
            capsys, "survivor", "--beta", "tribonacci", "--p", "8", "--method", "theorem"
        )
        assert code == 0
        assert "word=01011011" in out

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, "survivor", "--beta", "2", "--p", "4", "--format", "csv",
            "--method", "theorem",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "p,word,exact,float,method"
        assert row == "4,0111,7/15,0.4666666667,TheoremWord"

    def test_missing_p_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["survivor", "--beta", "2"])
        assert exc.value.code == 2

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["survivor", "--beta", "7", "--p", "3"])
        assert exc.value.code == 2

    def test_digits_limit(self, capsys, monkeypatch):
        code, out = run(
            capsys, "survivor", "--beta", "2", "--p", "3", "--method", "theorem",
            "--digits", str(MAX_DIGITS),
        )
        value = out.split("≈ ")[1].strip()  # 3/7 = 0.428571...
        assert code == 0 and value.startswith("0.42857") and len(value) == 2 + MAX_DIGITS

        def no_computation(*args, **kwargs):
            raise AssertionError("computed despite an out-of-range --digits")

        monkeypatch.setattr(cli_mod, "_records", no_computation)
        with pytest.raises(SystemExit) as exc:
            main(["survivor", "--beta", "golden", "--p", "3", "--digits", str(MAX_DIGITS + 1)])
        assert exc.value.code == 2
        assert f"between 1 and {MAX_DIGITS}" in capsys.readouterr().err

    def test_oversized_p_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["survivor", "--beta", "2", "--p", "25", "--method", "brute"])
        assert exc.value.code == 2


class TestTableCommand:
    def test_base2_csv_20_rows(self, capsys):
        code, out = run(capsys, "table", "--beta", "2", "--pmax", "20", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,word,exact,float,method"
        assert len(lines) == 21
        assert lines[-1].startswith("20,01111111111111111111,524287/1048575,0.4999995232")

    def test_digits_flag_controls_float_column(self, capsys):
        code, out = run(
            capsys, "table", "--beta", "2", "--pmax", "2", "--format", "csv",
            "--digits", "4",
        )
        assert code == 0
        assert "2,01,1/3,0.3333,TheoremWord" in out

    def test_svg_has_one_point_per_period(self, capsys):
        code, out = run(capsys, "table", "--beta", "golden", "--pmax", "30", "--format", "svg")
        assert code == 0
        assert out.count("<circle") == 30
        assert out.count("<polyline") == 1
        # axis labels derive from the data range
        assert ">1<" in out and ">30<" in out

    def test_svg_is_deterministic(self, capsys):
        _, first = run(capsys, "table", "--beta", "tribonacci", "--pmax", "35", "--format", "svg")
        _, second = run(capsys, "table", "--beta", "tribonacci", "--pmax", "35", "--format", "svg")
        assert first == second
        assert first.count("<circle") == 35

    def test_large_pmax_plots_via_theorem_path(self, capsys):
        # figure-scale ranges stay available where brute force is capped
        code, out = run(capsys, "table", "--beta", "tribonacci", "--pmax", "45", "--format", "svg")
        assert code == 0
        assert out.count("<circle") == 45

    def test_empty_svg_table_is_usage_error(self, capsys):
        # tribonacci has no closed form at p = 1, so there is no point to plot
        argv = ["table", "--beta", "tribonacci", "--pmax", "1", "--method", "closed"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "svg"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "closed method has no values for beta=tribonacci, p=1..1" in captured.err
        assert run(capsys, *argv, "--format", "csv") == (0, "p,word,exact,float,method\n")
        assert run(capsys, *argv, "--format", "text") == (0, "\n")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out = run(
            capsys, "table", "--beta", "2", "--pmax", "3", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("p,word,exact,float,method\n1,0,0,0,")

    def test_unwritable_out_is_io_error(self, capsys):
        code = main(
            ["table", "--beta", "2", "--pmax", "3", "--out", "/nonexistent/dir/t.csv"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--beta", "2", "--method", "brute", "--pmax", "21"],
            ["table", "--beta", "tribonacci", "--pmax", "1", "--method", "closed", "--format", "svg"],
        ],
    )
    def test_usage_error_creates_no_out_file(self, tmp_path, capsys, argv):
        target = tmp_path / "table.out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(target)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not target.exists()

    def test_each_row_is_written_before_the_next_record_is_made(self, monkeypatch):
        # one log, in order, of each record made (its p) and each write (None)
        log = []

        def logged_record(kind, p, digits=10):
            record = closed_record(kind, p, digits=digits)
            if record is not None:
                log.append(p)
            return record

        class Sink(io.StringIO):
            def write(self, text):
                log.append(None)
                return super().write(text)

        sink = Sink()
        monkeypatch.setattr(cli_mod, "closed_record", logged_record)
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["table", "--beta", "golden", "--pmax", "300", "--method", "closed", "--format", "csv"]
        assert main(argv) == 0
        ahead = 0
        for entry in log:
            ahead = 0 if entry is None else ahead + 1
            assert ahead <= 1, "a record made before the previous row was written"
        made = [p for p in log if p is not None]
        assert len(made) == 299 and made == sorted(made) and log[-1] is None
        assert sink.getvalue().count("\n") == 1 + len(made)


class TestVerifyCommand:
    def test_small_sweep_agrees(self, capsys):
        code, out = run(capsys, "verify", "--pmax", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,p,method,word,exact,float,agrees"
        assert lines[-1] == "ok: all paths agree for all kinds up to p=4"
        assert all(line.endswith(",true") for line in lines[1:-1])
        kinds = {line.split(",")[0] for line in lines[1:-1]}
        assert kinds == {"2", "golden", "tribonacci"}

    def test_degenerate_pmax_1(self, capsys):
        code, out = run(capsys, "verify", "--pmax", "1")
        assert code == 0
        assert "golden,1,TheoremWord,,0,0,true" in out

    def test_worker_counts_produce_identical_output(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            _, out = run(capsys, "verify", "--pmax", "6", "--workers", workers)
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "_compare_paths", mismatching_comparison)
        code, out = run(capsys, "verify", "--pmax", "2")
        assert code == 3
        assert "mismatches:" in out and "synthetic disagreement" in out

    @pytest.mark.parametrize("mismatch", [False, True])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, monkeypatch, mismatch):
        if mismatch:
            monkeypatch.setattr(cli_mod, "_compare_paths", mismatching_comparison)
        code, out = run(capsys, "verify", "--pmax", "4")
        assert code == (3 if mismatch else 0)
        target = tmp_path / "verify.csv"
        assert run(capsys, "verify", "--pmax", "4", "--out", str(target)) == (code, "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("mismatch", [False, True])
    def test_unwritable_out_is_io_error(self, capsys, monkeypatch, mismatch):
        if mismatch:
            monkeypatch.setattr(cli_mod, "_compare_paths", mismatching_comparison)
        assert main(["verify", "--pmax", "2", "--out", "/nonexistent/dir/v.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot write /nonexistent/dir/v.csv" in captured.err


def mismatching_comparison(kind, brute, digits):
    """A stand-in for verify's per-kind comparison whose report holds one disagreement."""
    return CrossCheckReport(BetaKind(kind), len(brute), (), ("synthetic disagreement",), ())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--pmax", "21"],
        ["table", "--beta", "2", "--method", "brute", "--pmax", "21"],
    ],
)
def test_period_range_is_checked_before_any_enumeration(capsys, monkeypatch, argv):
    import betahole.survivor as survivor

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before the cap check")

    monkeypatch.setattr(survivor, "primitive_representatives", no_enumeration)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p=21 exceeds the default cap of 20" in captured.err
    assert "--allow-large-p" in captured.err


def _no_computation(*args, **kwargs):
    raise AssertionError("computed despite a usage error")


@pytest.mark.parametrize(
    "argv",
    [
        ["survivor", "--beta", "2", "--p", "14400", "--method", "theorem"],
        ["survivor", "--beta", "golden", "--p", str(MAX_P + 1), "--method", "closed"],
        ["table", "--beta", "2", "--pmax", str(MAX_P + 1)],
        ["verify", "--pmax", str(MAX_P + 1)],
    ],
)
def test_period_above_max_p_is_rejected_before_any_work(capsys, monkeypatch, argv):
    for name in ("theorem_record", "closed_record", "_brute_force"):
        monkeypatch.setattr(cli_mod, name, _no_computation)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds the period cap of {MAX_P}" in captured.err


@pytest.mark.parametrize("method", ["theorem", "closed"])
@pytest.mark.parametrize("kind", ["2", "golden", "tribonacci"])
def test_max_p_renders_for_every_kind(capsys, kind, method):
    code, out = run(
        capsys, "survivor", "--beta", kind, "--p", str(MAX_P), "--method", method,
        "--format", "csv",
    )
    assert code == 0
    _, row = out.strip().splitlines()
    assert row.startswith(f"{MAX_P},")
    assert row.endswith({"theorem": ",TheoremWord", "closed": ",ClosedForm"}[method])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--pmax", "6", "--p", "3"],
        ["verify", "--pmax", "6", "--method", "brute"],
        ["verify", "--pmax", "6", "--format", "csv"],
        ["table", "--beta", "2", "--pmax", "6", "--p", "3"],
        ["table", "--beta", "2", "--pmax", "6", "--method", "all"],
        ["survivor", "--beta", "2", "--p", "3", "--pmax", "6"],
        ["survivor", "--beta", "2", "--p", "3", "--format", "svg"],
    ],
)
def test_flags_a_subcommand_does_not_take_are_usage_errors(capsys, monkeypatch, argv):
    for name in ("_records", "_brute_force"):
        monkeypatch.setattr(cli_mod, name, _no_computation)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _pinned_sweep():
    for kind in ("2", "golden", "tribonacci"):
        for p in (1, 2, 3, 4, 6, 11):
            for method in ("brute", "theorem", "closed", "all"):
                for fmt in ("text", "csv"):
                    yield ["survivor", "--beta", kind, "--p", str(p), "--method", method,
                           "--format", fmt]
        for method in ("brute", "theorem", "closed"):
            for fmt in ("text", "csv", "svg"):
                yield ["table", "--beta", kind, "--pmax", "12", "--method", method,
                       "--format", fmt]
        # long words and many digits: serialize() and decimal() on large numerators
        for method in ("theorem", "closed"):
            yield ["table", "--beta", kind, "--pmax", "300", "--digits", "30", "--method",
                   method, "--format", "csv"]
        yield ["survivor", "--beta", kind, "--p", "50", "--method", "theorem", "--digits", "1000"]


def test_cap_help_is_built_from_the_caps(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "DEFAULT_P_CAP", 17)
    monkeypatch.setattr(cli_mod, "HARD_P_CAP", 23)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0
    assert "enumeration for 17 < p <= 23" in " ".join(capsys.readouterr().out.split())


def test_stdout_matches_the_pinned_digests(capsys):
    # SHA-256 of the stdout of each command of _pinned_sweep, recorded before
    # the CLI's parsers were split per subcommand; the --digits 30 and 1000
    # entries were recorded before decimal() and serialize() moved onto integers
    pinned = json.loads((Path(__file__).parent / "pinned_stdout.json").read_text())
    digests = {}
    for argv in _pinned_sweep():
        code, out = run(capsys, *argv)
        assert code == 0, argv
        digests[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == pinned


def test_closed_pipe_exits_1_without_a_traceback():
    argv = ["table", "--beta", "2", "--pmax", "6000", "--method", "closed", "--format", "csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "betahole", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        assert proc.stdout.readline() == b"p,word,exact,float,method\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 1
    assert "Traceback" not in stderr
