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
    "shuffle": "90440c40b3dbeb4b5d5f5d50b02bc7157b705bcbf30b0ca49045c20560fcd76c",
    "stuffle": "df71f936b0e41f7e044c066c9365b9df239059f4e88f155b2cd3a1657a07f36c",
    "deriv": "d7984a1b5b1e1b4ca5f697e372d963a0bd4992792f0c35da2603501b398ea303",
    "fund": "e1f471aa021a7668b8ca216311d4e39db58d1015db86fa40a65b609ee82c073e",
    "haberland": "467b64da769b69c0359aa20e81f4732c30cf5defd882a57724b5d139c2946547",
    "symmetry": "b8a27f36b54fb333443a9b99f81bf7435f8403512e609139bbcafeb09f443b98",
    "firstdiff": "6047e5ee51b07d9e352d090ec5dcb1a4669fc093f76d149b9d9ffc774c678b30",
}

# sha256 of run_suite(suite, "full").to_json().  The roundtrip grid reaches depth
# 3 and alpha = 4, where the conversions accumulate the most terms per shape;
# fund, haberland, symmetry and firstdiff are assembled from the base-point-i
# R words of `mmv`.
FULL_REPORT_SHA256 = {
    "roundtrip": "b8231873ba78e816b20d78296b856f5f55227ce8898a09d09f810c524d154594",
    "shuffle": "3b3f3095ca220a51f5fbce22d5ef418961462d0336b049f39dfa6e196444886c",
    "stuffle": "4c88aa4acb58bff713f995d0cf60d168b7171a5a73a84077148776084869e271",
    "deriv": "354809705b35944c4d5e5c42d9e42a866c41c5f132077a59998fb7909cbcaffc",
    "fund": "65e3e534e63ec635c8d1a7783d8d67ae87568458a5e461b3dffd0541969c10df",
    "haberland": "6c46a519dee39465e42bd242a757e25969c737798f9fd177c83116c8df50f475",
    "symmetry": "bd72de2b9852df1119623402e75ef5be26ac3f2a3d28e4d31d5177b0bcf6ee4b",
    "firstdiff": "5d9fddbf1ad381c7436c6ee18e2fc0a11912f65d0127ff27c2ea6e12bc36a1fa",
}

# sha256 of run_suite("oracle-cross", "small").to_json() with the Chebyshev panel oracles.
ORACLE_CROSS_SMALL_SHA256 = "ab3ffee7cd938f7921df0792df82c2874f5d1379a26b158b9e0bb8b70af66471"


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


def test_run_suite_leaves_caller_precision():
    mp.dps = 20
    text = run_suite("deriv", "small").to_json()
    assert mp.dps == 20
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_REPORT_SHA256["deriv"]
    with pytest.raises(ValueError):
        run_suite("deriv", "small", EngineConfig(digits=10))
    assert mp.dps == 20


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
