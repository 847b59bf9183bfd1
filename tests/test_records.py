"""The record types: repr, equality, hashing and immutability, and the import floor."""

import subprocess
import sys
from pathlib import Path

import pytest

from betahole.expansions import AdmissibilityReport, is_admissible
from betahole.numberfield import make_context
from betahole.survivor import CrossCheckReport, CrossCheckRow, SurvivorRecord, theorem_record
from betahole.words import PeriodicSeq

SRC = Path(__file__).resolve().parent.parent / "src"


def test_reprs_are_pinned():
    assert repr(theorem_record("golden", 5)) == (
        "SurvivorRecord(p=5, word='00101', value=-9/11 + 8/11*b, value_float='0.3585701736',"
        " method='TheoremWord', empty=False, ties=1)"
    )
    assert repr(is_admissible("011", make_context("golden"))) == (
        "AdmissibilityReport(word='011', admissible=False, failing_rotation_offset=1,"
        " failing_comparison=('110', '(10)'))"
    )
    assert repr(is_admissible("001", make_context("golden"))) == (
        "AdmissibilityReport(word='001', admissible=True, failing_rotation_offset=None,"
        " failing_comparison=None)"
    )
    assert repr(PeriodicSeq("1", "10")) == "PeriodicSeq('1', '10')"


def test_admissibility_report_defaults():
    assert AdmissibilityReport("01", True) == AdmissibilityReport("01", True, None, None)


# (a fresh record, one of its fields)
RECORDS = [
    (lambda: theorem_record("tribonacci", 7), "value"),
    (lambda: is_admissible("011", make_context("golden")), "admissible"),
    (lambda: CrossCheckRow(3, "TheoremWord", "001", "1/3", "0.3333333333", True), "agrees"),
    (lambda: CrossCheckReport("2", 1, (), (), ()), "rows"),
    (lambda: PeriodicSeq("1", "10"), "pre"),
]


@pytest.mark.parametrize("make, field", RECORDS)
def test_equal_records_compare_and_hash_equal(make, field):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make, field", RECORDS)
def test_records_are_immutable(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_periodic_seq_validates_on_construction():
    with pytest.raises(ValueError, match="bad preperiod"):
        PeriodicSeq("2", "1")
    with pytest.raises(ValueError):
        PeriodicSeq("", "")
    assert PeriodicSeq(pre="0", period="1") == PeriodicSeq("0", "1")


def test_positional_fields_keep_their_order():
    value = make_context("2").zero()
    record = SurvivorRecord(4, None, value, "0", "BruteForce", True, 0)
    assert (record.p, record.word, record.value, record.value_float) == (4, None, value, "0")
    assert (record.method, record.empty, record.ties) == ("BruteForce", True, 0)
    row = CrossCheckRow(3, "ClosedForm", "", "1/3", "0.33", False)
    assert (row.p, row.method, row.word, row.exact, row.value_float, row.agrees) == (
        3, "ClosedForm", "", "1/3", "0.33", False
    )
    report = CrossCheckReport("golden", 2, (row,), ("t",), ("f",))
    assert (report.kind, report.p_max, report.rows) == ("golden", 2, (row,))
    assert (report.theorem_mismatches, report.formula_mismatches) == (("t",), ("f",))
    assert not report.ok


def test_import_pulls_in_no_dataclasses_inspect_or_pool_modules():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import betahole\n"
        "print(sorted({'dataclasses', 'inspect', 'concurrent.futures', 'multiprocessing'}"
        " & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
