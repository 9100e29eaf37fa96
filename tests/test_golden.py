"""Byte-for-byte goldens: certificates and CSV written through the CLI.

The spectrum and nu_tail digests were taken from the pairwise
orthogonality scan and the per-call Fraction tail loop, the tile digests
from the Counter-based expansion and the per-cell exact-cover loop, and
the Q digest from the Q sum written out in the plot command, and every
tile digest through json.dumps's indent=2 encoder, the k=15 one with a
digit list longer than one run of the direct writer. Any faster
or refactored path has to write the very same bytes. The mu_hat digest
was taken from the shifted grid at shift 0; its rows are checked against
the exact rational evaluation below. The analyze digests were taken from
the existence series summed over three general sequences, before it
became the tail series that truncation uses; the collider and
case-II-preperiodic ones from the windowed distinctness, tail-minimum
and breakpoint scans, before the periodic normal form replaced them. The verify-record digests
were taken while the builder and the replay still ran their level
checks separately, and the three spectrum ones re-taken when every level
past the first gained its nesting row; the tile ones while the replay
reduced every element one by one and checked the cover residue by residue. The signed nu_tail, benchmark-shaped Q and signed
mu_hat digests were taken from the per-point tail loop and from N-term
sums that still evaluated exp(0) for the d = 0 term.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from moran.cli import main
from moran.config import parse_config_text
from moran.fourier import mu_hat_k

EX1 = "N = 2\nb.period = 18\nt.period = 1 4\n"
EX2 = "N = 2\nb.period = 18\nt.period = 1 16\n"
QUARTER = "N = 2\nb.period = 4\nt.period = 1\n"
TERNARY = "N = 3\nb.period = 9\nt.period = 1 4\n"
SIGNED = "N = 3\nb.preperiod = -5\nb.period = 9 -12\nt.preperiod = 2\nt.period = 1 -1\n"
# t_k = 9 * 18^(k-1): the 20 entries outlast the default depth of 16
PREFIX = "N = 2\nb.period = 18\nt.prefix = " + " ".join(str(9 * 18**i) for i in range(20)) + "\n"
COLLIDER = "N = 2\nb.period = 2 6\nt.period = 1 2\n"
# case II with its last breakpoint inside the preperiod (k0 = 2)
LATE = "N = 2\nb.preperiod = 4 2\nb.period = 18\nt.preperiod = 8\nt.period = 1 16\n"

GOLDEN = [
    (
        EX1,
        ["spectrum", "--levels", "4"],
        "b398c0e90ffd380dc5ebaa5e83e97b9dce18ad9fc08fbc7587954f6cf70a13fb",
    ),
    (
        EX2,
        ["spectrum", "--levels", "2"],
        "3cd85434345ab0b4d8e048879019a187d395bc06c06b0679acf1a0f437ab2136",
    ),
    # k=12, 4,096 elements: taken from the pair walk and the per-element tail loop
    (
        EX1,
        ["spectrum", "--levels", "6"],
        "1d3d2a5ae5cdc637a590de875fbe2d24385fe8129c3caaa4ae56afe004a33f26",
    ),
    (
        EX1,
        ["plot-data", "--what", "nu_tail", "--k", "6", "--grid", "0.25:40.25:400"],
        "e7d2f04d720b10b12f2cbaebfae5733bfb51d8014f68321ecf3f0f135f7feefc",
    ),
    (
        EX1,
        ["plot-data", "--what", "Q", "--levels", "3", "--grid", "0.25:1.25:400"],
        "bf638fd0d7bf39fcb7f34bb645972fda7078a775f689e8beea46895bf3a1c441",
    ),
    (
        EX1,
        ["plot-data", "--what", "mu_hat", "--k", "6", "--grid", "0.25:40.25:400"],
        "4ff4cbe3a3045275c41d9de22b48afc5a34e55488e0c7aca7aacea7415163e80",
    ),
    (
        EX1,
        ["tile", "--k", "12"],
        "95fbb484cc97f25191929b3f99562734e51c6946fb391e0d71eb799c731cef2a",
    ),
    (
        EX1,
        ["tile", "--k", "15"],
        "610399c1213bc04b8e6f7940e9e57f7923e05693325db98eb707fce8f6e12a47",
    ),
    (
        QUARTER,
        ["tile", "--k", "6"],
        "cbcb84833474b872177c78d60f1431508781a5de3c5344a0f78d55084c2fa242",
    ),
    (
        TERNARY,
        ["tile", "--k", "4"],
        "c737ef49694001cc1a870a1dcc88f0182f84b3c2a0bc27ff6903f89ff2f79841",
    ),
    (
        SIGNED,
        ["plot-data", "--what", "nu_tail", "--k", "2", "--grid=-500.5:300.25:2001"],
        "2abe76ef7e8bd11e5b7bcdb0877a2d8d15c57feb9fbaf730718a6839def66ea5",
    ),
    (
        EX1,
        ["plot-data", "--what", "Q", "--levels", "3", "--grid=-3.7:-2.7:2000"],
        "326d86355f7888aba784f72e070494b2ed7ee2845848061871080252812413ab",
    ),
    (
        SIGNED,
        ["plot-data", "--what", "mu_hat", "--k", "7", "--grid=-50:50:999"],
        "075b56c1c626b15adb45b1b6d2af3f09cc47b4b26c697ddb59a920a859e5151d",
    ),
]


@pytest.mark.parametrize(
    "text,argv,digest",
    GOLDEN,
    ids=[
        "recurrent",
        "persistent",
        "recurrent-k12",
        "nu-tail",
        "q",
        "mu-hat",
        "tile-alternating",
        "tile-alternating-deep",
        "tile-quarter",
        "tile-ternary",
        "nu-tail-signed",
        "q-benchmark-shape",
        "mu-hat-signed",
    ],
)
def test_output_bytes_are_pinned(tmp_path, capsys, text, argv, digest):
    config = tmp_path / "system.conf"
    config.write_text(text)
    out = tmp_path / "out"
    command, *options = argv
    assert main([command, str(config), *options, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


ANALYZE_GOLDEN = [
    (EX1, "2ab43a699aca1b400e7bf8d9948ec9c7e88cc60a85d54419b4640876a365e8f6"),
    (EX2, "a3e2992ce4133f8ca486de6a0a4c4045b756f84c0e06b7d4da4e704f0defbabe"),
    (SIGNED, "8ec27a2abbee1556f13f3dc0ec24ace16693915616dd603304949293d541d0ee"),
    (PREFIX, "b0f217789e6c0ef85ef372024faa9714a563f8d5a51acc7838c2ddca2f9922a6"),
    (COLLIDER, "a14601bd638c72dd94647fcc6b28563ac980caa9c2bad914b981b04d192fc43a"),
    (LATE, "a26f80e924c0a85491f26d011fbca12bb017260a2023e8b3ff28fec937ace720"),
]


@pytest.mark.parametrize(
    "text,digest",
    ANALYZE_GOLDEN,
    ids=["recurrent", "persistent", "signed-preperiodic", "prefix", "collider", "case-ii-preperiodic"],
)
def test_analyze_report_is_pinned(tmp_path, capsys, text, digest):
    config = tmp_path / "system.conf"
    config.write_text(text)
    assert main(["analyze", str(config)]) == 0
    # every line but the first, which names the temporary config path
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0].startswith("config: ")
    assert hashlib.sha256("".join(lines[1:]).encode()).hexdigest() == digest


@pytest.mark.parametrize("text", [EX1, EX2, QUARTER, TERNARY], ids=["ex1", "ex2", "quarter", "ternary"])
def test_mu_hat_rows_match_the_exact_transform(tmp_path, capsys, text):
    config = tmp_path / "system.conf"
    config.write_text(text)
    out = tmp_path / "mu_hat.csv"
    argv = ["plot-data", str(config), "--what", "mu_hat", "--k", "6", "--grid", "0.25:40.25:400"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    system = parse_config_text(text).system()
    for line in out.read_text().splitlines()[1:]:
        x, value = map(float, line.split(","))
        assert abs(value - abs(mu_hat_k(system, 6, Fraction(x)))) <= 1e-14


def _tamper(payload):
    # one element moved and one stated tail bound raised
    payload["levels"][-1]["elements"][-1] += 1
    payload["levels"][0]["tail_bound"] += 1


def _move_last_digit(payload):
    payload["digit_elements"][-1] += 1


def _move_last_complement(payload):
    payload["complement_elements"][-1] += 1


VERIFY_GOLDEN = [
    (EX1, ["spectrum", "--levels", "4"], None, 0, "3bc842ba2cc47090bd26ce0af4ed30e70d1e92b009aed3ffc9423ab34555e282"),
    (EX2, ["spectrum", "--levels", "2"], None, 0, "08cefebff2987d4b3ee5bbc96b577b97ba9931aabeb088caa9f3d6f2fc47a782"),
    (EX1, ["spectrum", "--levels", "2"], _tamper, 1, "70eaf59d97196a648214517d2eaaada259cfe108e3aa6be0eadb467809890c40"),
    (EX1, ["tile", "--k", "12"], None, 0, "34f9dbe23302d9ee3b1c08be8cf41bbc8faf2866f7e58313ee9452fa2235d62a"),
    (QUARTER, ["tile", "--k", "6"], None, 0, "4a66ad09ccbfe5c4f196ca7b6748b1cd8fa8c2de41b7a3b8fa36de6d4220354d"),
    (TERNARY, ["tile", "--k", "4"], None, 0, "ef78f44ba08736dc19926a16fafebdd12c1f2f95dfb896e490d491774dbde043"),
    # the stated digit list differs from the recomputed one, so the
    # complement is judged against the stated list: both rows FAIL
    (EX1, ["tile", "--k", "12"], _move_last_digit, 1, "f1b1540f106815d181fe50855cd35413d5d00d1209ed52b5e5611b16f1d852d7"),
    (QUARTER, ["tile", "--k", "6"], _move_last_complement, 1, "85c8bd13ec9d053e1b4ba12b7b55f6d3ef889864b6a0f63e0533fdad454424fd"),
]


@pytest.mark.parametrize(
    "text,argv,mutate,code,digest",
    VERIFY_GOLDEN,
    ids=[
        "recurrent",
        "persistent",
        "tampered",
        "tile-alternating",
        "tile-quarter",
        "tile-ternary",
        "tile-digit-moved",
        "tile-complement-moved",
    ],
)
def test_verify_record_is_pinned(tmp_path, capsys, text, argv, mutate, code, digest):
    config = tmp_path / "system.conf"
    config.write_text(text)
    cert = tmp_path / "cert.json"
    record = tmp_path / "record.json"
    command, *options = argv
    assert main([command, str(config), *options, "--out", str(cert)]) == 0
    if mutate is not None:
        data = json.loads(cert.read_text())
        mutate(data["payload"])
        cert.write_text(json.dumps(data))
    assert main(["verify", str(config), str(cert), "--out", str(record)]) == code
    capsys.readouterr()
    assert hashlib.sha256(record.read_bytes()).hexdigest() == digest
