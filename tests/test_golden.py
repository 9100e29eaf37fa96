"""Byte-for-byte goldens: certificates and CSV written through the CLI.

The spectrum and CSV digests were taken from the pairwise orthogonality
scan and the per-call Fraction tail loop, the tile digests from the
Counter-based expansion and the per-cell exact-cover loop. Any faster or
refactored path has to write the very same bytes.
"""

import hashlib

import pytest

from moran.cli import main

EX1 = "N = 2\nb.period = 18\nt.period = 1 4\n"
EX2 = "N = 2\nb.period = 18\nt.period = 1 16\n"
QUARTER = "N = 2\nb.period = 4\nt.period = 1\n"
TERNARY = "N = 3\nb.period = 9\nt.period = 1 4\n"

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
    (
        EX1,
        ["plot-data", "--what", "nu_tail", "--k", "6", "--grid", "0.25:40.25:400"],
        "e7d2f04d720b10b12f2cbaebfae5733bfb51d8014f68321ecf3f0f135f7feefc",
    ),
    (
        EX1,
        ["tile", "--k", "12"],
        "95fbb484cc97f25191929b3f99562734e51c6946fb391e0d71eb799c731cef2a",
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
]


@pytest.mark.parametrize(
    "text,argv,digest",
    GOLDEN,
    ids=["recurrent", "persistent", "nu-tail", "tile-alternating", "tile-quarter", "tile-ternary"],
)
def test_output_bytes_are_pinned(tmp_path, capsys, text, argv, digest):
    config = tmp_path / "system.conf"
    config.write_text(text)
    out = tmp_path / "out"
    command, *options = argv
    assert main([command, str(config), *options, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
