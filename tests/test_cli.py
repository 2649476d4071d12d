import json
import shlex
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

import eistau.verify as verify_mod
from eistau.algebra import make_index
from eistau.cli import main
from eistau.config import EngineConfig, TruncationBudget
from eistau.eisenstein import CUSP
from eistau.integrals import _chain, _cutoff_bits, int_eval, int_exppoly
from eistau.report import VerificationReport, parse_complex


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


def test_eval_l_tau_with_unit_imaginary_part(capsys):
    argv = ["eval-l", "--index", "L{ks=[2];alphas=[1];t=0}", "--tau"]
    assert main(argv + ["0.5+i"]) == 0
    unit = capsys.readouterr().out
    assert main(argv + ["0.5+1i"]) == 0
    assert unit == capsys.readouterr().out


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


def test_eval_int_dump_certified_at_tau_off_axis(capsys):
    # the carrier's n_cut is certified at tau itself: 16 at 40+i, where i*Im tau gives 14
    idx, tau = make_index([3, 4], [2, 3]), mpc(40, 1)
    argv = ["eval-int", "--index", "I{ks=[3,4];alphas=[2,3];taupow=0}", "--tau", "40+1i",
            "--dump-exppoly"]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    dump = out.out.splitlines()[2:]
    budget = EngineConfig().budget()
    carrier = int_exppoly(idx, tau, budget)  # at the CLI's 40 digits
    assert "\n".join(dump) == carrier.dump()
    with mp.extradps(15):
        chain = _chain(((CUSP, 3), (CUSP, 4)), (2, 3))
        n_cut = _cutoff_bits(chain, tau, budget)[0]
        assert _cutoff_bits(chain, mpc(0, 1), budget)[0] == 14
    assert int(dump[-1].split(";")[0]) == carrier.max_freq() == n_cut == 16
    ref = int_eval(idx, tau, TruncationBudget(budget.eps * 1e-10, budget.n_max))
    assert abs(carrier(tau) - ref) <= budget.eps


def test_eval_int_bound_covers_tau_power(capsys):
    # tau^t int_eval is certified to |tau|^t eps, not eps: (5; 3) with t = 2 at 40+0.15i
    argv = ["eval-int", "--index", "I{ks=[5];alphas=[3];taupow=2}", "--tau", "40+0.15i"]
    assert main(argv) == 0
    value_line, bound_line = capsys.readouterr().out.splitlines()
    value = parse_complex(value_line.removeprefix("value = "))
    assert bound_line == "tail_bound <= 1.61e-27"  # |tau|^2 eps = 1.6000225e-27, rounded up
    bound = mpf(bound_line.removeprefix("tail_bound <= "))
    eps, tau = EngineConfig().eps, mpc(40, "0.15")
    with mp.workdps(60):
        ref = tau**2 * int_eval(make_index([5], [3]), tau, TruncationBudget(eps * 1e-10))
        assert abs(value - ref) <= bound


def test_eval_l_bound_rounded_up(capsys):
    # the printed tail_bound stays a bound: 1.2345e-30 rounds up, not to nearest
    argv = ["eval-l", "--index", "L{ks=[2];alphas=[1];t=0}", "--tau", "0+2i",
            "--eps", "1.2345e-30"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "tail_bound <= 1.24e-30"


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.strip()]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "eistau"
        assert main(argv[1:]) == 0, line
    capsys.readouterr()


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


# bad input to eval-l, eval-int, convert and stuffle: one error line and exit 2
BAD_INPUT = {
    "tau-below-the-axis": (["eval-l", "--index", "L{ks=[2];alphas=[1];t=0}", "--tau", "0.1-1i"],
                           "Im tau must be positive"),
    "budget-exhausted": (["eval-int", "--index", "I{ks=[2];alphas=[1];taupow=0}",
                          "--tau", "0+0.001i", "--nmax", "10"], "truncation index cap 10"),
    "k-below-2": (["eval-l", "--index", "L{ks=[1];alphas=[1];t=0}", "--tau", "0+1i"],
                  "every k must be >= 2"),
    "convert-wrong-family": (["convert", "--dir", "int2l", "--index", "L{ks=[2];alphas=[1];t=0}"],
                             "expects a tau-integral generator"),
    "stuffle-tau-power": (["stuffle", "--left", "L{ks=[2];alphas=[1];t=1}",
                           "--right", "L{ks=[3];alphas=[2];t=0}"], "expects t = 0"),
    "eval-l-of-an-integral": (["eval-l", "--index", "I{ks=[2];alphas=[1];taupow=0}",
                               "--tau", "0+1i"], "eval-l expects an L-series generator"),
    "eval-int-of-an-l-series": (["eval-int", "--index", "L{ks=[2];alphas=[1];t=0}",
                                 "--tau", "0+1i"], "eval-int expects a tau-integral generator"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_prints_one_error_line_and_exits_2(case, capsys):
    argv, message = BAD_INPUT[case]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("eistau: error: ") and message in out.err
    assert out.err.count("\n") == 1
