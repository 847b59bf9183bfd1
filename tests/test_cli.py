import pytest

import betahole.cli as cli_mod
from betahole.cli import MAX_DIGITS, main


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

        monkeypatch.setattr(cli_mod, "_record", no_computation)
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
        import betahole.cli as cli_mod
        from betahole.numberfield import BetaKind
        from betahole.survivor import CrossCheckReport

        def fake_cross_check(kind, p_max, workers=1, allow_large=False, digits=10):
            return CrossCheckReport(
                BetaKind(kind), p_max, (), ("synthetic disagreement",), ()
            )

        monkeypatch.setattr(cli_mod, "cross_check", fake_cross_check)
        code, out = run(capsys, "verify", "--pmax", "2")
        assert code == 3
        assert "mismatches:" in out and "synthetic disagreement" in out


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
