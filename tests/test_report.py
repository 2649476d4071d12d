import json

import pytest
from mpmath import mp, mpc, mpf

from eistau.report import (
    CaseResult,
    VerificationReport,
    emit,
    format_complex,
    parse_complex,
)


def _sample_report():
    rep = VerificationReport(suite="demo", engine={"digits": 40, "eps": 1e-30, "nmax": 400000, "version": "0.1.0"})
    rep.add(CaseResult.evaluated("b;case", {"k": 2}, mpc(1, 2), mpc(1, 2), tol=1e-10))
    rep.add(CaseResult.evaluated("a;case", {"k": 3}, mpc(0, 1), mpc(0, "1.5"), tol=1e-10))
    rep.add(CaseResult.singular("c;case", {"k": 4}, "test reason"))
    return rep.finalize()


def test_complex_round_trip():
    for z in (mpc("1.25", "-3.5e-10"), mpc(0, 1), mpc("-2", "0"), mpc("1e-30", "4")):
        assert abs(parse_complex(format_complex(z)) - z) < mpf("1e-35")
    assert parse_complex("2i") == mpc(0, 2)
    assert parse_complex("-0.5i") == mpc(0, "-0.5")
    assert parse_complex("3.25") == mpc("3.25", 0)


def test_parse_complex_unit_imaginary_after_real_part():
    # a bare sign before the i is +-1, after a real part as on its own
    assert parse_complex("0.5+i") == mpc("0.5", 1)
    assert parse_complex("0.5-i") == mpc("0.5", -1)
    assert parse_complex("-0.5-i") == mpc("-0.5", -1)
    assert parse_complex("1e-3+i") == mpc("1e-3", 1)
    assert parse_complex("i") == mpc(0, 1) and parse_complex("-i") == mpc(0, -1)
    assert parse_complex("0.5+1i") == parse_complex("0.5+i")


def test_summary_counts():
    rep = _sample_report()
    s = rep.summary
    assert s["total"] == 3
    assert s["passed"] == 1
    assert s["failed"] == 1
    assert s["skipped-singular"] == 1
    assert rep.failed == 1


def test_pass_iff_err_le_tol():
    ok = CaseResult.evaluated("x", {}, mpc(1), mpc(1), tol=0)
    assert ok.passed
    bad = CaseResult.evaluated("y", {}, mpc(1), mpc(2), tol=0.5)
    assert not bad.passed


def test_cases_sorted_by_id():
    rep = _sample_report()
    assert [c.case_id for c in rep.cases] == ["a;case", "b;case", "c;case"]


def test_json_round_trip():
    rep = _sample_report()
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert back.summary == rep.summary


def test_json_deterministic():
    assert _sample_report().to_json() == _sample_report().to_json()


def test_empty_report_valid():
    rep = VerificationReport(suite="empty", engine={}).finalize()
    doc = json.loads(rep.to_json())
    assert doc["summary"] == {"total": 0, "passed": 0, "failed": 0, "skipped-singular": 0}
    assert doc["cases"] == []


def test_csv_shape(tmp_path):
    rep = VerificationReport(suite="demo", engine={})
    rep.add(CaseResult.evaluated("a", {}, mpc(1), mpc(1), tol=1e-10))
    rep.add(CaseResult.evaluated("b", {}, mpc(1), mpc(1), tol=1e-10))
    rep.finalize()
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "id,abs_err,tol,pass"
    path = tmp_path / "rep.csv"
    emit(rep, "csv", str(path))
    assert path.read_text() == csv
    path_json = tmp_path / "rep.json"
    emit(rep, "json", str(path_json))
    assert json.loads(path_json.read_text())["suite"] == "demo"
    with pytest.raises(ValueError):
        emit(rep, "yaml", str(tmp_path / "x"))
