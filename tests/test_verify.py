import hashlib

import pytest
from mpmath import mp

from eistau import clear_caches
from eistau.config import EngineConfig
from eistau.verify import run_suite

# sha256 of run_suite(suite, "small").to_json() for the eight closed-form
# suites.  The reports are a byte-exact contract: a change that moves any digit
# must update the digest here and explain the changed digits in CHANGES.md.
SMALL_REPORT_SHA256 = {
    "roundtrip": "a34c7d628c72dbbc7a2cfab4cf18fd5937f76b819eeb2be4b1733d35a445050d",
    "shuffle": "40f9d9458e2d4597ad35b935230aa055658f871a6065fbc766038cee57e27401",
    "stuffle": "f7f802695a720485cef67bbdec9c66a438f270aee51fca7e4aff9bd2d8c3c323",
    "deriv": "ed1d50a387f1976bbd7b8eef79375db2ac5c41f060e1a1534faf62fd3c299b20",
    "fund": "c454f816933cb4f975532b2237a246011b036c8a47882c5b892a6e24fbd98c32",
    "haberland": "b6ca9204017e78fb2f738929f057837cd2806d353888b760694f6b7534292481",
    "symmetry": "4d878787d7e9ecc122454471ff70b9cf192099b8adf4a55e2d1239fa77b361c9",
    "firstdiff": "b2ada6832ea83650d805f5096d3293cb334a1a15d67a4a349483a0fd7175233a",
}

# sha256 of run_suite(suite, "full").to_json().  The roundtrip grid reaches depth
# 3 and alpha = 4, where the conversions accumulate the most terms per shape;
# fund, haberland, symmetry and firstdiff are assembled from the base-point-i
# R words of `mmv`.
FULL_REPORT_SHA256 = {
    "roundtrip": "b8231873ba78e816b20d78296b856f5f55227ce8898a09d09f810c524d154594",
    "shuffle": "150f78f86cba68beec2169a47726cd6d4ab2c0ac8bb69bd6e6f7366ee7d0b8a5",
    "stuffle": "886ba02f9f23c7c7048018b536ae83f9bacc75297969bef04a074d1c4d1a5f95",
    "deriv": "49785c0f04a7954dbd6628ebcc8e464ed12f9134ec83598ddfd2df5dc55d8fe7",
    "fund": "68a30b7a3690937e39fc1e91b605a0471ca647e71c5bc8533c7feaa4dd204553",
    "haberland": "a14107346462dc0a84b796169538258b30d57c87158812c99ad68a2b6c9c2bf9",
    "symmetry": "26b6083f76622d59b403d146311fdc76ff4bbb7505f9c36384b349f00aa120d1",
    "firstdiff": "e3e5af68f7edd7f2df10f4247a1782577ec1bd9f922f6c5a918b2f5d631013ad",
}

# sha256 of run_suite("oracle-cross", grid).to_json() with the Chebyshev panel oracles
# and elem_exp_tail read from the J' table.
ORACLE_CROSS_SMALL_SHA256 = "57642b3a9afae251fd0285ea7f5e2fbbca24dca506a4ce8dcf9c1c812af27e0d"
ORACLE_CROSS_FULL_SHA256 = "b7ab3a4460d430db5d2111c50533396e1d0b8df13427bd5f0d6502decb4bb022"


def test_closed_suite_small_reports_byte_identical():
    got = {
        suite: hashlib.sha256(run_suite(suite, "small").to_json().encode()).hexdigest()
        for suite in SMALL_REPORT_SHA256
    }
    changed = sorted(s for s in SMALL_REPORT_SHA256 if got[s] != SMALL_REPORT_SHA256[s])
    assert not changed, f"report bytes changed for {changed}"


@pytest.mark.parametrize("suite", sorted(FULL_REPORT_SHA256))
def test_full_report_byte_identical(suite):
    text = run_suite(suite, "full").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_REPORT_SHA256[suite]


def test_oracle_cross_full_report_byte_identical():
    text = run_suite("oracle-cross", "full").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_CROSS_FULL_SHA256


def test_run_suite_leaves_caller_precision():
    mp.dps = 20
    text = run_suite("deriv", "small").to_json()
    assert mp.dps == 20
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_REPORT_SHA256["deriv"]
    with pytest.raises(ValueError):
        run_suite("deriv", "small", EngineConfig(digits=10))
    assert mp.dps == 20


def test_bad_settings_raise_before_any_case_runs():
    # the settings are checked where they are made, so no suite echoes bad ones
    for settings, message in (({"eps": -1.0, "n_max": 0}, "eps must be positive and finite"),
                              ({"eps": float("inf")}, "eps must be positive and finite"),
                              ({"eps": float("nan")}, "eps must be positive and finite"),
                              ({"n_max": 0}, "n_max must be >= 1"),
                              ({"digits": 14}, "below 15 digits is not supported")):
        with pytest.raises(ValueError, match=message):
            run_suite("roundtrip", "small", EngineConfig(**settings))


def test_oracle_cross_report_independent_of_caches_and_caller_precision():
    texts = []
    for dps, clear in ((20, True), (50, False), (50, True)):
        if clear:
            clear_caches()
        mp.dps = dps
        texts.append(run_suite("oracle-cross", "small").to_json())
        assert mp.dps == dps
    assert texts[0] == texts[1] == texts[2]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == ORACLE_CROSS_SMALL_SHA256
