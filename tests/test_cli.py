"""End-to-end command line behavior: reports, certificates, exit codes."""

import json
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

import moran
from moran import spectra
from moran.cli import main
from moran.system import SSkeleton

EX1 = "N = 2\nb.period = 18\nt.period = 1 4\n"
EX2 = "N = 2\nb.period = 18\nt.period = 1 16\n"
TILE_ONLY = "N = 3\nb.period = 3\nt.preperiod = 1\nt.period = 4\n"
COLLIDER = "N = 2\nb.period = 2 6\nt.period = 1 2\n"
QUARTER = "N = 2\nb.period = 4\nt.period = 1\n"
# s_k = -1 for every k: the level-2 expansion {0, 1, 3, 4} is direct, not a tile
ODD_SCALE = "N = 2\nb.period = 3\nt.period = 1\n"
TERNARY = "N = 3\nb.period = 9\nt.period = 1 4\n"
# a horizon of 4, below the default tail depth of 16
SHORT_PREFIX = "N = 2\nb.prefix = 4 4 4 4\nt.prefix = 1 1 1 1\n"
# t_k = 9 * 18^(k-1) up to a horizon of 20: |b_k| <= |t_k| from k = 2 on
PREFIX = "N = 2\nb.period = 18\nt.prefix = " + " ".join(str(9 * 18**i) for i in range(20)) + "\n"


@pytest.fixture
def conf(tmp_path):
    def write(text, name="system.conf"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_reports_structure(conf, capsys):
    code, out, err = run(capsys, ["analyze", conf(EX1)])
    assert code == 0
    assert "level exponents" in out
    assert "case I" in out
    assert "m = 1" in out
    assert "pairwise distinct" in out
    assert "converges" in out


def test_analyze_dominated_case(conf, capsys):
    code, out, _ = run(capsys, ["analyze", conf(EX2)])
    assert code == 0
    assert "case II" in out
    assert "m = 3" in out


def test_analyze_collision_still_reports(conf, capsys):
    code, out, _ = run(capsys, ["analyze", conf(COLLIDER)])
    assert code == 0
    assert "collision" in out
    assert "not applicable" in out


def test_analyze_window_stops_at_a_prefix_horizon(conf, capsys):
    code, out, err = run(capsys, ["analyze", conf(PREFIX), "--window", "40"])
    assert code == 0
    assert err == ""
    assert f"level exponents (k = 1..20): {', '.join(['0'] * 20)}\n" in out
    assert "distinctness: collision, s_1 = s_2 = 0\n" in out


def test_analyze_sums_a_short_prefix_to_its_horizon(conf, capsys):
    code, out, err = run(capsys, ["analyze", conf(SHORT_PREFIX)])
    assert code == 0
    assert err == ""
    assert "existence: undecided at depth 4\n" in out
    assert out.splitlines()[-1].startswith("hypothesis: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", "--window", "-3"], "--window: expected a positive integer"),
        (["analyze", "--window", "0"], "--window: expected a positive integer"),
        (["plot-data", "--what", "nu_tail", "--depth", "0"], "--depth: expected a positive integer"),
        (["spectrum", "--depth", "0"], "--depth: expected a positive integer"),
        (["verify", "unread.json", "--depth", "-1"], "--depth: expected a positive integer"),
        (["verify", "unread.json", "--tol", "nan"], "--tol: expected a finite non-negative number"),
    ],
    ids=[
        "analyze-window-negative",
        "analyze-window-zero",
        "plot-depth-zero",
        "spectrum-depth-zero",
        "verify-depth-negative",
        "verify-tol-nan",
    ],
)
def test_flags_below_one_are_usage_errors(conf, capsys, argv, message):
    command, *options = argv
    code, out, err = run(capsys, [command, conf(SHORT_PREFIX), *options])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_analyze_scans_distinctness_once(conf, capsys, monkeypatch):
    # a distinct periodic system is decided from its normal form with no
    # scan; a colliding one is scanned once, with no bound, and the scan
    # stops at its first repeat
    calls = []
    scan = SSkeleton.first_repeat

    def spy(sk, n=None):
        calls.append((n, scan(sk, n)))
        return calls[-1][1]

    monkeypatch.setattr(SSkeleton, "first_repeat", spy)
    code, out, _ = run(capsys, ["analyze", conf(EX1)])
    assert code == 0
    assert "case I" in out
    assert calls == []
    code, out, _ = run(capsys, ["analyze", conf(COLLIDER)])
    assert code == 0
    assert "collision, s_1 = s_2" in out
    assert calls == [(None, (1, 2))]


def test_spectrum_has_no_window_flag(conf, capsys):
    # block ends are found past any classification window
    code, out, err = run(capsys, ["spectrum", conf(EX1), "--window", "5"])
    assert code == 3
    assert out == ""
    assert "unrecognized arguments: --window 5" in err


def test_parse_error_exits_three(conf, capsys):
    code, _, err = run(capsys, ["analyze", conf("N = 2\nnot a pair\n")])
    assert code == 3
    assert "key = value" in err


def test_missing_config_exits_three(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "absent.conf")])
    assert code == 3
    assert "cannot read" in err


@pytest.mark.parametrize(
    "line", ["option.theta0 = 1/3", "option.tol = 1e-9", "option.out = x.json", "option.element_cap = 4"]
)
def test_unread_options_are_unknown(conf, capsys, line):
    code, _, err = run(capsys, ["analyze", conf(EX1 + line + "\n")])
    assert code == 3
    assert "unknown option" in err


def test_usage_error_exits_three(conf, capsys):
    code, _, err = run(capsys, ["frobnicate", conf(EX1)])
    assert code == 3


def test_tile_round_trip(conf, capsys, tmp_path):
    cfg = conf(TILE_ONLY)
    cert = tmp_path / "tile.json"
    code, out, _ = run(capsys, ["tile", cfg, "--k", "4", "--out", str(cert)])
    assert code == 0
    assert "direct expansion with 81 elements" in out
    code, out, _ = run(capsys, ["verify", cfg, str(cert)])
    assert code == 0
    assert "result: PASS" in out


def test_tile_certificates_are_deterministic(conf, capsys, tmp_path):
    cfg = conf(TILE_ONLY)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, ["tile", cfg, "--k", "3", "--out", str(a)])
    run(capsys, ["tile", cfg, "--k", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_tile_collision_witness(conf, capsys):
    code, out, _ = run(capsys, ["tile", conf(COLLIDER), "--k", "2"])
    assert code == 1
    assert "levels 1 and 2" in out
    assert "share exponent s = 0" in out


def test_tile_refusal_on_a_direct_expansion_claims_no_tile(conf, capsys):
    code, out, _ = run(capsys, ["tile", conf(ODD_SCALE), "--k", "2"])
    assert code == 1
    assert "levels 1 and 2 share exponent s = -1" in out
    assert "is not an integer tile" in out
    assert "direct" not in out


def test_tile_k_zero_is_usage(conf, capsys):
    code, _, err = run(capsys, ["tile", conf(EX1), "--k", "0"])
    assert code == 3


def test_tile_cap_exhaustion_exits_two(conf, capsys):
    # 2^25 formal sums are over the element cap: refused before any is formed
    start = time.perf_counter()
    code, _, err = run(capsys, ["tile", conf(QUARTER), "--k", "25"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "cap" in err


def test_tile_refuses_to_emit_when_its_own_check_fails(conf, capsys, tmp_path, monkeypatch):
    built = moran.cli.build_complement

    def moved(system, k):
        comp = built(system, k)
        # the last element one step on: the same size, no longer an exact cover
        return replace(comp, elements=comp.elements[:-1] + (comp.elements[-1] + 1,))

    monkeypatch.setattr(moran.cli, "build_complement", moved)
    cert = tmp_path / "tile.json"
    code, out, err = run(capsys, ["tile", conf(QUARTER), "--k", "3", "--out", str(cert)])
    assert code == 1
    assert "complement-tiles" in err
    assert "digit-set" not in err
    assert "verified" not in out
    assert not cert.exists()


def test_spectrum_round_trip(conf, capsys, tmp_path):
    cfg = conf(EX1)
    cert = tmp_path / "spectrum.json"
    code, out, _ = run(
        capsys, ["spectrum", cfg, "--levels", "2", "--out", str(cert)]
    )
    assert code == 0
    assert "scale exponent m = 1" in out
    code, out, _ = run(capsys, ["verify", cfg, str(cert)])
    assert code == 0
    assert "result: PASS" in out
    payload = json.loads(cert.read_text())["payload"]
    assert payload["levels"][0]["elements"] == [0, 81, 162, 243]
    assert payload["levels"][0]["denormalized"] == ["0", "81/2", "81", "243/2"]


def test_perturbed_spectrum_certificate_fails(conf, capsys, tmp_path):
    cfg = conf(EX1)
    cert = tmp_path / "spectrum.json"
    run(capsys, ["spectrum", cfg, "--levels", "1", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["payload"]["levels"][0]["elements"][1] += 1
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", cfg, str(cert)])
    assert code == 1
    assert "result: FAIL" in out
    assert "82" in out


def test_verify_fingerprint_mismatch(conf, capsys, tmp_path):
    cert = tmp_path / "spectrum.json"
    run(capsys, ["spectrum", conf(EX1), "--levels", "1", "--out", str(cert)])
    other = conf(EX2, name="other.conf")
    code, _, err = run(capsys, ["verify", other, str(cert)])
    assert code == 3
    assert "does not match" in err


def test_verify_rejects_verification_records(conf, capsys, tmp_path):
    cfg = conf(EX1)
    cert = tmp_path / "spectrum.json"
    record = tmp_path / "record.json"
    run(capsys, ["spectrum", cfg, "--levels", "1", "--out", str(cert)])
    run(capsys, ["verify", cfg, str(cert), "--out", str(record)])
    code, _, err = run(capsys, ["verify", cfg, str(record)])
    assert code == 3
    assert "nothing to re-run" in err


SPECTRUM_CERT = (EX1, ["spectrum", "--levels", "1"])
SPECTRUM_CERT_2 = (EX1, ["spectrum", "--levels", "2"])
SPECTRUM_CERT_3 = (EX1, ["spectrum", "--levels", "3"])
TILE_CERT = (QUARTER, ["tile", "--k", "3"])
TERNARY_TILE_CERT = (TERNARY, ["tile", "--k", "3"])


def _float_digit(payload):
    payload["digit_elements"][1] = float(payload["digit_elements"][1])


def _skipped_breakpoint(payload):
    payload["levels"][1]["breakpoints"] = [0, 1, 4]


def _far_breakpoint(payload):
    payload["levels"][0]["breakpoints"] = [0, 20000]


def _negated_level(payload):
    # -Λ_2 is still a spectrum of the level-4 measure, with the same tail
    # moduli, but it does not contain Λ_1
    record = payload["levels"][1]
    record["elements"] = [-e for e in record["elements"]]
    record["denormalized"] = [str(Fraction(e, payload["denominator"])) for e in record["elements"]]


# json.dumps cannot write an integer of over 4,300 digits, so a case
# stores this placeholder and the test writes the digits in its place
_NINES = "<5,000 nines>"


@pytest.mark.parametrize(
    "source,mutate,code,message",
    [
        (SPECTRUM_CERT, lambda p: p.update(levels=[]), 1, "FAIL levels (the certificate lists no level)"),
        (SPECTRUM_CERT, lambda p: p.pop("levels"), 3, "'levels' must be a list"),
        (SPECTRUM_CERT, lambda p: p["levels"][0]["elements"].__setitem__(1, "5"), 3, "list of integers"),
        (SPECTRUM_CERT_2, lambda p: p["levels"][1].update(orthogonal=False), 3, "'orthogonal' and 'complete'"),
        (SPECTRUM_CERT_2, lambda p: p["levels"][0].update(complete=False), 3, "'orthogonal' and 'complete'"),
        (SPECTRUM_CERT_2, lambda p: p["levels"][1].update(level=7), 3, "record 1: 'level' must be the integer 2"),
        (SPECTRUM_CERT_2, lambda p: p["levels"].reverse(), 3, "record 0: 'level' must be the integer 1"),
        (SPECTRUM_CERT_2, lambda p: p["levels"].pop(0), 3, "record 0: 'level' must be the integer 1"),
        (SPECTRUM_CERT_2, _skipped_breakpoint, 3, "'breakpoints' must extend record 0's by one entry"),
        (
            SPECTRUM_CERT_3,
            _negated_level,
            1,
            "FAIL level-2-nesting (element 81 of the level before is missing)\n"
            "PASS level-2-orthogonality\nPASS level-2-tail\nPASS level-2-scaling\n"
            "PASS level-3-cardinality\nFAIL level-3-nesting (element -81 of the level before is missing)",
        ),
        (
            SPECTRUM_CERT,
            lambda p: p["levels"][0]["elements"].__setitem__(1, 0),
            1,
            "FAIL level-1-orthogonality (candidate spectra must have distinct elements)",
        ),
        # past the float range: the element's tail error is unbounded
        (SPECTRUM_CERT, lambda p: p["levels"][0]["elements"].__setitem__(-1, 10**400), 1, "FAIL level-1-tail"),
        (TILE_CERT, lambda p: p.pop("complement_elements"), 3, "'complement_elements' must be a list of integers"),
        # 1.0 == 1, so only the parse-time check can tell this from the real set
        (TILE_CERT, _float_digit, 3, "'digit_elements' must be a list of integers"),
        (TILE_CERT, lambda p: p.update(k="3"), 3, "'k' must be an integer"),
        (TILE_CERT, lambda p: p.update(complement_elements=[], modulus=0), 3, "modulus of at least 1"),
        (TERNARY_TILE_CERT, lambda p: p.update(k=10**7), 2, "limit:"),
        # the same elements in another order, or with one repeated
        (TILE_CERT, lambda p: p["digit_elements"].reverse(), 1, "FAIL digit-set (first difference at index 0)"),
        (TILE_CERT, lambda p: p["digit_elements"].append(0), 1, "FAIL digit-set (first difference at index 8)"),
        (TILE_CERT, lambda p: p.update(exponents=[7, 7, 7]), 1, "FAIL exponents (recomputed ["),
        # 2^20000 has 6,021 digits: refused before it is formed or printed
        (SPECTRUM_CERT, _far_breakpoint, 3, "level size 2^20000 is over the cap"),
        (TILE_CERT, lambda p: p.update(modulus=_NINES), 3, "certificate is not valid JSON"),
    ],
    ids=[
        "empty",
        "missing",
        "string-element",
        "not-orthogonal",
        "not-complete",
        "level-raised",
        "levels-reversed",
        "level-1-dropped",
        "breakpoints-not-nested",
        "level-2-negated",
        "repeated-element",
        "element-past-float-range",
        "tile-missing-complement",
        "tile-float-digit",
        "tile-string-k",
        "tile-empty-complement",
        "tile-huge-k",
        "tile-reordered-digits",
        "tile-repeated-digit",
        "tile-wrong-exponents",
        "far-breakpoint",
        "tile-huge-modulus",
    ],
)
def test_verify_rejects_hollow_or_malformed_levels(conf, capsys, tmp_path, source, mutate, code, message):
    text, argv = source
    cfg = conf(text)
    cert = tmp_path / "cert.json"
    command, *options = argv
    assert main([command, cfg, *options, "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    mutate(data["payload"])
    cert.write_text(json.dumps(data).replace(json.dumps(_NINES), "9" * 5000))
    got, out, err = run(capsys, ["verify", cfg, str(cert)])
    assert got == code
    assert message in (out if code == 1 else err)
    if code == 1:
        assert "result: FAIL" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("value", ["4097", "300000"])
@pytest.mark.parametrize(
    "argv,option",
    [
        (["spectrum", "--levels", "1"], "depth"),
        (["analyze"], "window"),
    ],
    ids=["spectrum-depth", "analyze-window"],
)
def test_depth_and_window_over_the_cap_are_usage_errors(conf, capsys, argv, option, value):
    # both keep every prefix product up to the index, so a large value
    # would end in a MemoryError; 4,096 is the cap
    command, *options = argv
    code, out, err = run(capsys, [command, conf(EX1 + f"option.{option} = {value}\n"), *options])
    assert (code, out) == (3, "")
    assert f"option.{option}: expected at most 4096, got {value}" in err
    code, out, err = run(capsys, [command, conf(EX1), *options, f"--{option}", value])
    assert (code, out) == (3, "")
    assert err == f"error: --{option}: expected at most 4096, got {value}\n"


def test_orthogonality_walks_no_pair_on_passing_levels(conf, capsys, tmp_path, monkeypatch):
    # the digit tree decides passing levels; the pair walk only names the
    # witness of a failure
    walks = []
    walk = spectra._first_witness
    monkeypatch.setattr(spectra, "_first_witness", lambda elems, *rest: walks.append(len(elems)) or walk(elems, *rest))
    for text, levels in ((EX1, "4"), (EX2, "2")):  # k = 8 and k = 7
        cfg = conf(text)
        cert = tmp_path / "cert.json"
        assert run(capsys, ["spectrum", cfg, "--levels", levels, "--out", str(cert)])[0] == 0
        assert run(capsys, ["verify", cfg, str(cert)])[0] == 0
    assert walks == []
    data = json.loads(cert.read_text())
    data["payload"]["levels"][-1]["elements"][-1] += 1
    cert.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["verify", cfg, str(cert)])
    assert code == 1
    assert "FAIL level-3-orthogonality (difference " in out
    assert walks == [128]


def test_verify_bounds_the_stated_scale_exponent(conf, capsys, tmp_path):
    # N^(10^9) would take seconds and hundreds of MB to form
    cfg = conf(EX1)
    cert = tmp_path / "spectrum.json"
    run(capsys, ["spectrum", cfg, "--levels", "1", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["payload"]["scale_exponent"] = 10**9
    cert.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", cfg, str(cert)])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out.splitlines()[1:] == [
        "FAIL scale-exponent (recomputed 1)",
        "FAIL denominator",
        "PASS level-1-cardinality",
        "PASS level-1-orthogonality",
        "PASS level-1-tail",
        "PASS level-1-scaling",
        "result: FAIL",
    ]


@pytest.mark.parametrize("text,k,modulus", [(TERNARY, 9, 3**17), (QUARTER, 13, 2**25)], ids=["ternary-k9", "quarter-k13"])
def test_tile_past_the_table_cap_certifies(conf, capsys, tmp_path, text, k, modulus):
    # moduli over ELEMENT_CAP: the cover is decided from valuation sets,
    # with nothing allocated per residue
    cfg = conf(text)
    cert = tmp_path / "tile.json"
    code, out, err = run(capsys, ["tile", cfg, "--k", str(k), "--out", str(cert)])
    assert (code, err) == (0, "")
    assert f"modulus {modulus}\n" in out
    code, out, _ = run(capsys, ["verify", cfg, str(cert)])
    assert code == 0
    assert out.endswith("PASS complement-tiles\nresult: PASS\n")


def test_tile_huge_k_is_a_limit_in_little_memory(conf, capsys):
    # the distinctness scan stops at the certification window, so the
    # cap refuses before the skeleton holds 30,000 prefix products
    cfg = conf(QUARTER)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, ["tile", cfg, "--k", "30000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith("limit:")
    assert peak < 16 * 2**20


def test_spectrum_refusal_names_the_inequality(conf, capsys):
    code, _, err = run(capsys, ["spectrum", conf(TILE_ONLY), "--levels", "1"])
    assert code == 1
    assert err == (
        "refusal: tail certification needs |b_k| > (N-1)|t_k| for all large k; "
        "index 2 violates it inside the repeating part\n"
    )


def test_spectrum_refusal_on_a_prefix_names_its_horizon(conf, capsys):
    # a prefix system has no repeating part: the refusal names the prefix
    code, _, err = run(capsys, ["spectrum", conf(PREFIX), "--levels", "2"])
    assert code == 1
    assert err == (
        "refusal: tail certification needs |b_k| > (N-1)|t_k| for all large k; "
        "the finite prefix violates it at index 2 and at its horizon 20\n"
    )


def test_spectrum_levels_over_the_cap_are_a_limit_at_once(conf, capsys):
    # k_n >= n, so n = 40 is over the cap before any level is formed
    start = time.perf_counter()
    code, out, err = run(capsys, ["spectrum", conf(EX1), "--levels", "40"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out.count("\n") == 1  # the fingerprint only
    assert err == "limit: level at k = 40 would hold 2^40 elements, over the cap 16777216\n"


def test_spectrum_refuses_a_level_over_the_cap_before_building_it(conf, capsys, monkeypatch):
    # levels 1 and 2 end at k = 2 and 4; level 3 would end at k = 6
    monkeypatch.setattr(spectra, "ELEMENT_CAP", 32)
    built = []
    real = spectra.build_level
    monkeypatch.setattr(spectra, "build_level", lambda *a: built.append(a[3]) or real(*a))
    code, out, err = run(capsys, ["spectrum", conf(EX1), "--levels", "3"])
    assert code == 2
    assert built == [2, 4]
    assert err == "limit: level at k = 6 would hold 2^6 elements, over the cap 32\n"


def test_spectrum_collision_refusal(conf, capsys):
    code, _, err = run(capsys, ["spectrum", conf(COLLIDER), "--levels", "1"])
    assert code == 1
    assert "collide" in err


def test_spectrum_tail_refusal_is_a_limit(conf, capsys):
    code, out, err = run(capsys, ["spectrum", conf(EX1 + "option.epsilon0 = 0.999\n"), "--levels", "1"])
    assert code == 2
    assert err == (
        "limit: tail lower bound 0.9978 below epsilon0=0.999 at element 243; "
        "increase depth or adjust thresholds\n"
    )
    assert "level 1" not in out


def test_plot_mu_hat_rows_bounded(conf, capsys, tmp_path):
    out = tmp_path / "rows.csv"
    code, printed, _ = run(
        capsys,
        ["plot-data", conf(EX1), "--what", "mu_hat", "--k", "2",
         "--grid", "0:50:100", "--out", str(out)],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 101
    for line in lines[1:]:
        _, value = line.split(",")
        assert float(value) <= 1 + 1e-12


def test_plot_q_stays_near_one(conf, capsys, tmp_path):
    out = tmp_path / "q.csv"
    code, _, _ = run(
        capsys,
        ["plot-data", conf(EX1), "--what", "Q", "--levels", "1",
         "--grid", "0:1:50", "--out", str(out)],
    )
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        _, value = line.split(",")
        assert abs(float(value) - 1) <= 1e-9


def test_plot_nu_tail_err_shrinks_with_depth(conf, capsys, tmp_path):
    shallow, deep = tmp_path / "s.csv", tmp_path / "d.csv"
    args = ["plot-data", conf(EX1), "--what", "nu_tail", "--k", "2",
            "--grid", "0.5:1:4"]
    run(capsys, args + ["--depth", "6", "--out", str(shallow)])
    run(capsys, args + ["--depth", "18", "--out", str(deep)])
    rows_s = [ln.split(",") for ln in shallow.read_text().splitlines()[1:]]
    rows_d = [ln.split(",") for ln in deep.read_text().splitlines()[1:]]
    for (xs, _, es), (xd, _, ed) in zip(rows_s, rows_d):
        assert xs == xd
        assert float(ed) < float(es)


def test_plot_deep_float_tail_is_a_limit(conf, capsys, tmp_path):
    # 18^246 has no float, so the float tail refuses; the exact tail that
    # spectrum evaluates takes the same depth
    path = conf(EX1)
    code, out, err = run(capsys, ["plot-data", path, "--what", "nu_tail", "--k", "2", "--depth", "300"])
    assert code == 2
    assert out == ""
    assert err.startswith("limit: float tail stops at factor 246 of 300")
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["spectrum", path, "--depth", "300", "--out", str(cert)])
    assert code == 0
    assert run(capsys, ["verify", path, str(cert), "--depth", "300"])[0] == 0


def test_plot_float_tail_phase_overflow_is_a_limit(conf, capsys):
    # finite grid points whose phase 2*pi*2*4*x/9 passes the float range
    argv = ["plot-data", conf(TERNARY), "--what", "nu_tail", "--grid=1e308:1.7e308:2", "--depth", "2"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "limit: float tail phase overflows at factor 1 for |x| = 1.7e+308; use a grid nearer 0\n"


def test_plot_mu_hat_phase_overflow_is_a_limit(conf, capsys):
    # the same grid through the level-k transform: its phase 2*pi*2*4*x/9
    # passes the float range at the first factor
    argv = ["plot-data", conf(TERNARY), "--what", "mu_hat", "--k", "1", "--grid=1e308:1.7e308:2"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "limit: float transform phase overflows at factor 1 for |x| = 1.7e+308; use a grid nearer 0\n"


def test_plot_q_phase_overflow_is_a_limit(conf, capsys):
    # the level-2 sum refuses at the first factor of the first element
    argv = ["plot-data", conf(TERNARY), "--what", "Q", "--levels", "2", "--grid=1e308:1.7e308:2"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "limit: float transform phase overflows at factor 1 for |x| = 1.7e+308; use a grid nearer 0\n"


@pytest.mark.parametrize(
    "option",
    ["option.epsilon0 = nan\n", "option.C = inf\n", "option.C = nan\n", "option.epsilon0 = -inf\n"],
    ids=["epsilon0-nan", "C-inf", "C-nan", "epsilon0-minus-inf"],
)
def test_non_finite_thresholds_are_usage_errors(conf, capsys, option):
    code, out, err = run(capsys, ["spectrum", conf(EX1 + option), "--levels", "2"])
    assert code == 3
    assert out == ""
    key, raw = option.strip().split(" = ")
    # after the config path and line number
    assert err.startswith("error: ")
    assert err.endswith(f": {key}: expected a finite number, got {raw!r}\n")


@pytest.mark.parametrize(
    "flag,option",
    [("--grid=0:inf:3", ""), ("--grid=-inf:0:3", ""), ("--grid=-1e308:1e308:3", ""), (None, "option.grid = 0:inf:3\n")],
    ids=["stop-inf", "start-inf", "span-overflows", "option"],
)
def test_non_finite_grids_are_usage_errors(conf, capsys, flag, option):
    argv = ["plot-data", conf(EX1 + option), "--what", "nu_tail"]
    code, out, err = run(capsys, argv + ([flag] if flag else []))
    assert code == 3
    assert out == ""
    assert "grid endpoints and their span must be finite" in err


def test_csv_output_is_deterministic(conf, capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["plot-data", conf(EX1), "--what", "mu_hat", "--k", "3",
            "--grid", "0:10:64"]
    run(capsys, args + ["--out", str(a)])
    run(capsys, args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_every_export_resolves():
    assert [name for name in moran.__all__ if not hasattr(moran, name)] == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
