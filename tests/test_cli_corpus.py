"""Fixed CLI command corpus: the exact bytes of outputs the benchmark
goldens do not cover.

Each case pins the sha256 of one command's output, written once to a
file through --out and once to stdout.  A refactor that changes any
byte of a certificate, region table, verify report, fig1-fig4 table or
short trajectory fails here.
"""

import hashlib

import pytest

from sdlab.cli import main

CORPUS = [
    (("certificate", "--alpha", "0.5", "--lambda", "1.02"), 0,
     "1330e50e50353c35b739141de8cb2c72d394187041da9d8526d0133aff28e308"),
    (("certificate", "--alpha", "0.5", "--lambda", "1.02", "--variant", "eq5"), 0,
     "1ac45574c66d9673eb81baf06561768d878acf1c347b2377bfa24a007105f1cc"),
    (("certificate", "--alpha", "0.5", "--lambda", "1.02", "--epsilon", "0.2"), 0,
     "d988abd8f252ab72ff3f81ba4478e64cfb93b3259b91f502ee303dcac9860211"),
    (("region", "--alpha", "0.5", "--C", "6"), 0,
     "ec6ecb632937250c95b8c65d7916446ad8aa4cb40dbcfa32c5932f405aa09d5b"),
    (("verify", "--alpha", "0.5", "--lambda", "1.02", "--points", "300",
      "--seed", "11"), 0,
     "521e17473f583e60ff90168b0a8cc326022150ad17f775ca9525022bca1709b2"),
    (("verify", "--alpha", "0.5", "--lambda", "1.5", "--points", "300",
      "--seed", "11"), 2,
     "3fb7cd90488fce4f919275bf888bb6dd9e035a964f5473c4cd17ff44691efc82"),
    (("sweep", "fig1"), 0,
     "5514882464335963317fb000b10134f8f9e4b49bd9977d4a7610d8f6d06c90c0"),
    (("sweep", "fig3", "--lambda-min", "1.0", "--lambda-max", "1.1",
      "--grid-step", "0.05", "--max-iters", "10000", "--seed", "3"), 0,
     "e325d15458a9fa6974206a3a70bdb0aea556e44e7ed380003245e974ce789f89"),
    (("simulate", "--beta", "0.3", "--steps", "200"), 0,
     "bdfb00a3a142476b14b77074815708c5daea56861926bfe03b0179beecaeebdd"),
    (("simulate", "--beta", "0.3", "--steps", "200", "--trilevel"), 0,
     "5bafb896cc3534b410550aea7d6e3cd02244ea58c0b83de2d5d549fe3284b724"),
    (("simulate", "--beta", "0.3", "--steps", "200", "--input", "random",
      "--seed", "5"), 0,
     "d2db3044f175327369e9f075cd504ee80fc99a375d45aced304b4fed54e3fe64"),
    (("sweep", "fig1", "--variant", "eq5", "--alpha-cap", "0.5"), 0,
     "491a93e200271d33d3a0fa37574a52b18bef8da57be7f853aed996f52891af2b"),
    (("sweep", "fig2", "--lambda-min", "1.0", "--lambda-max", "1.1",
      "--grid-step", "0.05", "--max-iters", "10000", "--seed", "3"), 0,
     "e86c233af0f4455c1896eff036d7ed15190ee418fe26fe537237c222956adfac"),
    (("sweep", "fig2", "--variant", "eq5", "--alpha-cap", "0.6",
      "--lambda-min", "1.0", "--lambda-max", "1.1", "--grid-step", "0.05",
      "--max-iters", "5000"), 0,
     "13d7c6cbfb385a78ab84fc3d74940b4e6e990d3979d19da89d3687e09a436418"),
    (("sweep", "fig4", "--input", "random", "--lambda-min", "1.0",
      "--lambda-max", "1.1", "--grid-step", "0.05", "--max-iters", "2000",
      "--seed", "3"), 0,
     "c2a6a31968888c87c12f3da42c68ef459ad2a969501b9f83e6010132eada6a48"),
]


@pytest.mark.parametrize("argv,code,digest", CORPUS,
                         ids=[" ".join(c[0][:2]) + f"-{i}"
                              for i, c in enumerate(CORPUS)])
def test_cli_output_bytes_are_pinned(argv, code, digest, tmp_path,
                                     monkeypatch, capsys):
    monkeypatch.delenv("SD_LAB_SEED", raising=False)
    dest = tmp_path / "out"
    assert main([*argv, "--out", str(dest)]) == code
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    assert main(list(argv)) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
