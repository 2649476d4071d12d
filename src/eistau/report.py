"""Verification reports: structured pass/fail records with deterministic output.

A report binds, per case: the parameters, both sides of the identity under
test, the absolute error, the tolerance, and pass/skip status; plus the engine
settings needed to rerun it.  Identical inputs and settings produce
byte-identical JSON and CSV.

Complex values are serialized as "a+bi" with full working-precision mantissas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from mpmath import mp, mpc, mpf


def format_complex(z) -> str:
    z = mpc(z)
    re_s = mp.nstr(z.real, mp.dps, strip_zeros=True)
    im_s = mp.nstr(z.imag, mp.dps, strip_zeros=True)
    sign = "+" if not im_s.startswith("-") else ""
    return f"{re_s}{sign}{im_s}i"


def parse_complex(text: str) -> mpc:
    """Inverse of format_complex; also accepts plain reals and "2i"-style imaginaries."""
    text = text.strip().replace(" ", "")
    if not text.endswith("i"):
        return mpc(mpf(text))
    body = text[:-1]
    split = 0
    for pos in range(len(body) - 1, 0, -1):  # rightmost sign not part of an exponent
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            split = pos
            break
    re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+", "-"):  # a bare i carries the unit
        im_part += "1"
    return mpc(mpf(re_part) if re_part else 0, mpf(im_part))


def format_real(x) -> str:
    return mp.nstr(mpf(x), mp.dps, strip_zeros=True)


@dataclass
class CaseResult:
    case_id: str
    parameters: dict
    lhs: str
    rhs: str
    abs_err: str
    tol: str
    passed: bool
    skipped: bool = False
    notes: str = ""

    @classmethod
    def evaluated(cls, case_id: str, parameters: dict, lhs, rhs, tol, notes: str = "",
                  err=None) -> "CaseResult":
        lhs = mpc(lhs)
        rhs = mpc(rhs)
        err = abs(lhs - rhs) if err is None else mpf(err)
        tol = mpf(tol)
        return cls(
            case_id=case_id,
            parameters=parameters,
            lhs=format_complex(lhs),
            rhs=format_complex(rhs),
            abs_err=format_real(err),
            tol=format_real(tol),
            passed=bool(err <= tol),
            notes=notes,
        )

    @classmethod
    def singular(cls, case_id: str, parameters: dict, reason: str) -> "CaseResult":
        return cls(
            case_id=case_id,
            parameters=parameters,
            lhs="",
            rhs="",
            abs_err="",
            tol="",
            passed=True,
            skipped=True,
            notes=f"skipped-singular: {reason}",
        )


@dataclass
class VerificationReport:
    suite: str
    engine: dict
    cases: list[CaseResult] = field(default_factory=list)

    def add(self, case: CaseResult):
        self.cases.append(case)

    def finalize(self) -> "VerificationReport":
        self.cases.sort(key=lambda c: c.case_id)
        return self

    @property
    def summary(self) -> dict:
        skipped = sum(1 for c in self.cases if c.skipped)
        passed = sum(1 for c in self.cases if c.passed and not c.skipped)
        failed = sum(1 for c in self.cases if not c.passed and not c.skipped)
        return {
            "total": len(self.cases),
            "passed": passed,
            "failed": failed,
            "skipped-singular": skipped,
        }

    @property
    def failed(self) -> int:
        return self.summary["failed"]

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "engine": self.engine,
            "summary": self.summary,
            "cases": [
                {
                    "id": c.case_id,
                    "parameters": c.parameters,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "abs_err": c.abs_err,
                    "tol": c.tol,
                    "pass": c.passed,
                    "skipped": c.skipped,
                    "notes": c.notes,
                }
                for c in self.cases
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        doc = json.loads(text)
        rep = cls(suite=doc["suite"], engine=doc["engine"])
        for c in doc["cases"]:
            rep.add(
                CaseResult(
                    case_id=c["id"],
                    parameters=c["parameters"],
                    lhs=c["lhs"],
                    rhs=c["rhs"],
                    abs_err=c["abs_err"],
                    tol=c["tol"],
                    passed=c["pass"],
                    skipped=c["skipped"],
                    notes=c["notes"],
                )
            )
        return rep

    def to_csv(self) -> str:
        lines = ["id,abs_err,tol,pass"]
        for c in self.cases:
            lines.append(f"{c.case_id},{c.abs_err},{c.tol},{str(c.passed).lower()}")
        return "\n".join(lines) + "\n"


def emit(report: VerificationReport, fmt: str, path: str) -> None:
    """Write the report as JSON (full structure) or CSV (one row per case)."""
    if fmt == "json":
        payload = report.to_json()
    elif fmt == "csv":
        payload = report.to_csv()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
