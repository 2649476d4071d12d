"""Command-line harness: evaluation, conversion, and verification suites.

Subcommands: eval-l, eval-int, convert, stuffle, verify, selftest.  The
numeric settings (--digits, --eps, --nmax) of eval-l, eval-int and verify live
in one config record that is echoed into every report, so any case can be
rerun exactly; selftest takes --digits alone, and convert and stuffle, which
are exact, take none.  A ValueError or BudgetError of eval-l, eval-int,
convert or stuffle is bad input: it prints "eistau: error: <message>" and
exits 2.  In verify and selftest an exception is an engine fault and keeps its
traceback.
"""

from __future__ import annotations

import argparse
import sys

from mpmath import mp

from .algebra import LSERIES, TAU_INTEGRAL, parse_generator
from .config import DEFAULT_DIGITS, DEFAULT_EPS, DEFAULT_NMAX, BudgetError, EngineConfig, configure
from .eisenstein import precision_selftest
from .integrals import int_eval, int_exppoly
from .lseries import l_coeffs_dp, l_eval
from .report import emit, format_complex, parse_complex
from .rewrite import int_to_l, l_to_int, stuffle_product
from .verify import SUITES, run_suite


def _add_digits_arg(p: argparse.ArgumentParser):
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                   help="working precision in decimal digits")


def _add_engine_args(p: argparse.ArgumentParser):
    _add_digits_arg(p)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="certified truncation target")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX, help="hard cap on truncation indices")


def _config(args) -> EngineConfig:
    return configure(EngineConfig(digits=args.digits, eps=args.eps, n_max=args.nmax))


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="eistau", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-l", help="evaluate an L-series generator at tau")
    p.add_argument("--index", required=True, help='e.g. "L{ks=[2,3];alphas=[1,2];t=0}"')
    p.add_argument("--tau", required=True, help='complex literal "a+bi" with Im > 0')
    p.add_argument("--coeffs-out", help="also write coefficient rows (m, p/q) as CSV")
    p.add_argument("--coeffs-n", type=int, default=20, help="number of coefficient rows")
    _add_engine_args(p)

    p = sub.add_parser("eval-int", help="evaluate an iterated-integral generator at tau")
    p.add_argument("--index", required=True, help='e.g. "I{ks=[2];alphas=[1];taupow=0}"')
    p.add_argument("--tau", required=True)
    p.add_argument("--dump-exppoly", action="store_true",
                   help="print the closed-form carrier, one 'n; c0, c1, ...' line per frequency")
    _add_engine_args(p)

    p = sub.add_parser("convert", help="rewrite a generator in the other family")
    p.add_argument("--dir", required=True, choices=("int2l", "l2int"))
    p.add_argument("--index", required=True)

    p = sub.add_parser("stuffle", help="series product of two t=0 L-series generators")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("verify", help="run a verification suite and write a report")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--grid", default="small", choices=("small", "full"))
    p.add_argument("--out", help="report destination (default: stdout)")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    _add_engine_args(p)

    p = sub.add_parser("selftest", help="precision self-test and quick identity checks")
    _add_digits_arg(p)

    return ap.parse_args(argv)


def _bound(x: float) -> str:
    """x at 3 significant digits, rounded up so that the printed figure is still >= x."""
    s = f"{x:.2e}"
    step = 10.0 ** (int(s.split("e")[1]) - 2)  # one unit in the third digit
    return f"{float(s) + step if float(s) < x else float(s):.3g}"


def _cmd_eval_l(args) -> int:
    config = _config(args)
    gen = parse_generator(args.index)
    if gen.kind != LSERIES:
        raise ValueError("eval-l expects an L-series generator")
    tau = parse_complex(args.tau)
    value = l_eval(gen.index(), tau, config.budget())
    print(f"value = {format_complex(value)}")
    print(f"tail_bound <= {_bound(config.eps)}")
    if args.coeffs_out:
        coeffs = l_coeffs_dp(gen.index(), args.coeffs_n)
        with open(args.coeffs_out, "w", encoding="utf-8") as fh:
            fh.write("m,c\n")
            for m, c in coeffs.csv_rows():
                fh.write(f"{m},{c}\n")
        print(f"coefficients written to {args.coeffs_out}")
    return 0


def _cmd_eval_int(args) -> int:
    config = _config(args)
    gen = parse_generator(args.index)
    if gen.kind != TAU_INTEGRAL:
        raise ValueError("eval-int expects a tau-integral generator")
    tau = parse_complex(args.tau)
    value = tau**gen.power * int_eval(gen.index(), tau, config.budget())
    print(f"value = {format_complex(value)}")
    # int_eval is certified to eps, so tau^t int_eval is to |tau|^t eps
    print(f"tail_bound <= {_bound(config.eps * float(abs(tau)) ** gen.power)}")
    if args.dump_exppoly:
        print(int_exppoly(gen.index(), tau, config.budget()).dump())
    return 0


def _cmd_convert(args) -> int:
    gen = parse_generator(args.index)
    out = int_to_l(gen) if args.dir == "int2l" else l_to_int(gen)
    print(str(out))
    return 0


def _cmd_stuffle(args) -> int:
    left = parse_generator(args.left)
    right = parse_generator(args.right)
    print(str(stuffle_product(left, right)))
    return 0


def _cmd_verify(args) -> int:
    config = _config(args)
    report = run_suite(args.suite, args.grid, config)
    if args.out:
        emit(report, args.format, args.out)
    else:
        sys.stdout.write(report.to_json() if args.format == "json" else report.to_csv())
    s = report.summary
    print(
        f"suite={args.suite} grid={args.grid} total={s['total']} passed={s['passed']} "
        f"failed={s['failed']} skipped-singular={s['skipped-singular']}",
        file=sys.stderr,
    )
    return 0 if report.failed == 0 else 1


def _cmd_selftest(args) -> int:
    config = configure(EngineConfig(digits=args.digits))
    resid = precision_selftest()
    print(f"weight-6 vanishing at i: |value| = {mp.nstr(resid, 8)} (pass)")
    report = run_suite("roundtrip", "small", config)
    ok = report.failed == 0
    print(f"exact round-trip (small grid): {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


_COMMANDS = {
    "eval-l": _cmd_eval_l,
    "eval-int": _cmd_eval_int,
    "convert": _cmd_convert,
    "stuffle": _cmd_stuffle,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.command in ("verify", "selftest"):
        return _COMMANDS[args.command](args)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, BudgetError) as exc:
        print(f"eistau: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
