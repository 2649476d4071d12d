import json

import pytest

import eistau.verify as verify_mod
from eistau.cli import main
from eistau.report import VerificationReport


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_eval_l_value_and_coeffs(tmp_path, capsys):
    csv = tmp_path / "coeffs.csv"
    code = main(
        [
            "eval-l",
            "--index",
            "L{ks=[2];alphas=[1];t=0}",
            "--tau",
            "0+2i",
            "--coeffs-out",
            str(csv),
            "--coeffs-n",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "value =" in out and "tail_bound" in out
    rows = csv.read_text().strip().split("\n")
    assert rows[0] == "m,c"
    assert rows[1] == "1,1/1"
    assert rows[2] == "2,9/2"
    assert rows[3] == "3,28/3"


def test_eval_int_dump(capsys):
    code = main(
        [
            "eval-int",
            "--index",
            "I{ks=[2];alphas=[1];taupow=0}",
            "--tau",
            "0+2i",
            "--dump-exppoly",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "value =" in out
    assert "1; " in out  # carrier has a frequency-1 line


def test_eval_int_dump_caveat_on_stderr_off_axis_only(capsys):
    def run(tau):
        argv = ["eval-int", "--index", "I{ks=[2,3];alphas=[1,2];taupow=0}", "--tau", tau,
                "--dump-exppoly"]
        assert main(argv) == 0
        return capsys.readouterr()

    on, off = run("0+1.5i"), run("0.5+1.5i")
    assert on.err == ""
    assert "not covered by the truncation certificate" in off.err
    # stdout keeps only the value line and the dump, sized at i*Im tau on both
    assert off.out.splitlines()[1:] == on.out.splitlines()[1:]
    assert "1; " in off.out


def test_convert_round_trip_text(capsys):
    assert main(["convert", "--dir", "int2l", "--index", "I{ks=[2];alphas=[2];taupow=0}"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1/1*L{ks=[2];alphas=[1];t=1} + 1/1*L{ks=[2];alphas=[2];t=0}"


def test_stuffle_text(capsys):
    code = main(
        [
            "stuffle",
            "--left",
            "L{ks=[2];alphas=[1];t=0}",
            "--right",
            "L{ks=[3];alphas=[1];t=0}",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "1/1*L{ks=[2,3];alphas=[1,1];t=0} + 1/1*L{ks=[3,2];alphas=[1,1];t=0}"


def test_verify_writes_report_and_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify", "--suite", "roundtrip", "--grid", "small", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["suite"] == "roundtrip"
    assert doc["summary"]["failed"] == 0
    assert doc["engine"]["digits"] == 40
    rep = VerificationReport.from_json(out_path.read_text())
    assert rep.summary["failed"] == 0


def test_verify_reports_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["verify", "--suite", "haberland", "--grid", "small", "--out", str(p1)])
    main(["verify", "--suite", "haberland", "--grid", "small", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_corrupted_sign_fails(monkeypatch, tmp_path):
    # harness self-test: a deliberately corrupted sign must be reported
    original = verify_mod.symmetry_defect

    def corrupted(k1, k2, a1, a2, budget):
        lhs, rhs = original(k1, k2, a1, a2, budget)
        return lhs, -rhs if abs(rhs) > 1e-30 else rhs + 1

    monkeypatch.setattr(verify_mod, "symmetry_defect", corrupted)
    out_path = tmp_path / "bad.json"
    code = main(["verify", "--suite", "symmetry", "--grid", "small", "--out", str(out_path)])
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["failed"] > 0


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])
