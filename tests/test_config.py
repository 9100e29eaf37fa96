"""Configuration parsing and system fingerprints."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moran.config import (
    SystemConfig,
    fingerprint,
    load_config,
    parse_config_text,
)
from moran.errors import ParseError
from moran.system import MoranSystem, SequenceSpec

EX1_TEXT = "N = 2\nb.period = 18\nt.period = 1 4\n"


def test_parse_minimal_periodic():
    cfg = parse_config_text(EX1_TEXT)
    assert cfg.N == 2
    assert cfg.b == SequenceSpec.periodic([18])
    assert cfg.t == SequenceSpec.periodic([1, 4])
    assert cfg.options == {}
    system = cfg.system()
    assert system.b_entry(3) == 18
    assert system.t_entry(4) == 4


def test_parse_preperiod_and_comments():
    text = "# header\nN = 3\n\nb.period = 3\nt.preperiod = 1\nt.period = 4\n"
    cfg = parse_config_text(text)
    assert cfg.t == SequenceSpec.periodic([4], preperiod=[1])


def test_parse_prefix_variant():
    cfg = parse_config_text("N = 2\nb.prefix = 4 4\nt.prefix = 1 1\n")
    assert not cfg.b.is_periodic
    assert cfg.system().horizon == 2


def test_prefix_excludes_periodic_keys():
    text = "N = 2\nb.prefix = 4\nb.period = 4\nt.period = 1\n"
    with pytest.raises(ParseError, match="excludes"):
        parse_config_text(text)


def test_missing_keys_are_named():
    with pytest.raises(ParseError, match="missing key N"):
        parse_config_text("b.period = 4\nt.period = 1\n")
    with pytest.raises(ParseError, match="t.period or t.prefix"):
        parse_config_text("N = 2\nb.period = 4\n")


def test_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=":3:"):
        parse_config_text("N = 2\nb.period = 4\nt.period = x\n")
    with pytest.raises(ParseError, match=":4: duplicate"):
        parse_config_text("N = 2\nb.period = 4\nt.period = 1\nN = 3\n")
    with pytest.raises(ParseError, match=":2:.*key = value"):
        parse_config_text("N = 2\nwhat even is this\n")


def test_unknown_keys_rejected():
    with pytest.raises(ParseError, match="unknown key"):
        parse_config_text(EX1_TEXT + "w.period = 2\n")
    with pytest.raises(ParseError, match="known:"):
        parse_config_text(EX1_TEXT + "option.bogus = 2\n")


def test_semantic_errors_become_parse_errors():
    with pytest.raises(ParseError, match="nonzero"):
        parse_config_text("N = 2\nb.period = 4 0\nt.period = 1\n")
    with pytest.raises(ParseError):
        parse_config_text("N = 4\nb.period = 8\nt.period = 1\n")


def test_option_typing():
    text = EX1_TEXT + (
        "option.C = 1e-3\n"
        "option.sigma0 = 0.25\n"
        "option.grid = 0:1:100\n"
    )
    cfg = parse_config_text(text)
    assert cfg.options["C"] == 1e-3
    assert cfg.options["sigma0"] == Fraction(1, 4)
    assert cfg.options["grid"] == (0.0, 1.0, 100)


def test_grid_validation():
    with pytest.raises(ParseError, match="start:stop:count"):
        parse_config_text(EX1_TEXT + "option.grid = 0:1\n")
    with pytest.raises(ParseError, match="exceed"):
        parse_config_text(EX1_TEXT + "option.grid = 1:0:10\n")
    with pytest.raises(ParseError, match="at least one point"):
        parse_config_text(EX1_TEXT + "option.grid = 0:1:0\n")


def test_build_params_precedence():
    cfg = parse_config_text(EX1_TEXT + "option.depth = 8\noption.C = 0.01\n")
    assert cfg.build_params().depth == 8
    assert cfg.build_params().C == 0.01
    # explicit overrides win, None overrides are ignored
    assert cfg.build_params(depth=32).depth == 32
    assert cfg.build_params(depth=None).depth == 8


def test_depth_and_window_stop_at_the_cap():
    cfg = parse_config_text(EX1_TEXT + "option.depth = 4096\noption.window = 4096\n")
    assert (cfg.options["depth"], cfg.options["window"]) == (4096, 4096)
    for option in ("depth", "window"):
        with pytest.raises(ParseError, match=f"option.{option}: expected at most 4096, got 4097"):
            parse_config_text(EX1_TEXT + f"option.{option} = 4097\n")


def test_K_stops_at_the_cap():
    # a failing offset search tries 2K+1 offsets per element
    assert parse_config_text(EX1_TEXT + "option.K = 4096\n").build_params().K == 4096
    for value in ("4097", "100000000"):
        with pytest.raises(ParseError, match=f"option.K: expected at most 4096, got {value}"):
            parse_config_text(EX1_TEXT + f"option.K = {value}\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(tmp_path / "absent.conf")
    path = tmp_path / "ok.conf"
    path.write_text(EX1_TEXT)
    assert load_config(path).N == 2


def test_fingerprint_depends_on_system_only():
    base = parse_config_text(EX1_TEXT)
    with_options = parse_config_text(EX1_TEXT + "option.depth = 4\n")
    assert base.fingerprint() == with_options.fingerprint()
    other = parse_config_text("N = 2\nb.period = 18\nt.period = 1 16\n")
    assert base.fingerprint() != other.fingerprint()


def test_fingerprint_distinguishes_shape():
    # same entry stream, different presentation: the definition differs
    rotated = parse_config_text("N = 2\nb.period = 18\nt.preperiod = 1\nt.period = 4 1\n")
    plain = parse_config_text(EX1_TEXT)
    assert rotated.fingerprint() != plain.fingerprint()


@given(
    st.integers(min_value=2, max_value=9),
    st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=4),
    st.lists(
        st.integers(min_value=-20, max_value=20).filter(lambda v: v != 0),
        min_size=1,
        max_size=4,
    ),
)
def test_parse_render_round_trip(n, bs, ts):
    text = (
        f"N = {n}\n"
        f"b.period = {' '.join(str(v) for v in bs)}\n"
        f"t.period = {' '.join(str(v) for v in ts)}\n"
    )
    try:
        cfg = parse_config_text(text)
    except ParseError:
        # only the system-validity rules may reject; syntax always parses
        with pytest.raises(Exception):
            MoranSystem(n, SequenceSpec.periodic(bs), SequenceSpec.periodic(ts))
        return
    assert cfg.N == n
    assert list(cfg.b.period) == bs
    assert list(cfg.t.period) == ts
    assert cfg.fingerprint() == fingerprint(n, cfg.b, cfg.t)
