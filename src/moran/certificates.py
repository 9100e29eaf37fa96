"""Self-contained result certificates with deterministic serialization.

A certificate carries everything needed to re-check its claims without
recomputation elsewhere: the fingerprint of the system it talks about,
the elements themselves, and the tool version. Serialization is JSON
with sorted keys, so identical inputs give byte-identical files.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .errors import ParseError, PreconditionError
from .spectra import SpectrumBuildParams, level_checks
from .system import MoranSystem, normalize
from .tiling import ELEMENT_CAP, _over_cap, aggregate, tile_checks

KINDS = ("tile", "spectrum-level", "verification")


def tool_stamp() -> dict:
    return {"name": "moran", "version": __version__}


def _scaled_text(e: int, den: int) -> str:
    """e / den in lowest terms, as str(Fraction(e, den)) writes it, for
    den > 0."""
    g = math.gcd(e, den)
    return str(e // g) if den == g else f"{e // g}/{den // g}"


def tile_certificate(fingerprint: str, agg, comp) -> dict:
    """Package a level-k tiling: digit set, complement, modulus. The
    caller checks the payload with tiling.tile_checks before writing it."""
    return {
        "kind": "tile",
        "fingerprint": fingerprint,
        "tool": tool_stamp(),
        "payload": {
            "k": agg.k,
            "modulus": agg.modulus,
            "exponents": list(agg.exponents),
            "digit_elements": list(agg.elements),
            "complement_elements": list(comp.elements),
        },
    }


def _block_record(block) -> dict:
    floor = block.factor_floor
    if floor is not None and not math.isfinite(floor):
        floor = None
    return {
        "k1": block.k1,
        "k2": block.k2,
        "anchor": block.anchor,
        "coefficients": list(block.coefficients),
        "offsets": list(block.offsets or ()),
        "factor_floor": floor,
    }


def spectrum_certificate(fingerprint: str, N: int, levels) -> dict:
    """Package built levels with their exact verification outcomes.

    Elements are stored in the scale-normalized frame; the denormalized
    column divides them by N**scale_exponent, which is the frame of the
    system the fingerprint names.
    """
    if not levels:
        raise PreconditionError("need at least one level")
    m = levels[0].scale_exponent
    if any(lv.scale_exponent != m for lv in levels):
        raise PreconditionError("levels disagree on the scale exponent")
    den = N**m
    records = []
    for lv in levels:
        records.append(
            {
                "level": lv.level,
                "breakpoints": list(lv.breakpoints),
                "elements": list(lv.elements),
                "denormalized": [_scaled_text(e, den) for e in lv.elements],
                "tail_bound": lv.tail_bound,
                "orthogonal": lv.orthogonal,
                "complete": lv.complete,
                "blocks": [_block_record(blk) for blk in lv.blocks],
            }
        )
    return {
        "kind": "spectrum-level",
        "fingerprint": fingerprint,
        "tool": tool_stamp(),
        "payload": {
            "scale_exponent": m,
            "denominator": den,
            "levels": records,
        },
    }


def verification_certificate(fingerprint: str, source_kind: str, report) -> dict:
    return {
        "kind": "verification",
        "fingerprint": fingerprint,
        "tool": tool_stamp(),
        "payload": {
            "source_kind": source_kind,
            "passed": report.passed,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in report.checks
            ],
        },
    }


_RUN = 2**14  # integers per encoder call, so a run's text is a small temporary


def _pieces(value, pad: str):
    """json.dumps(value, sort_keys=True, indent=2, allow_nan=False) in pieces, for a
    value on a line indented by pad. Keys are strings, as in every certificate."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        yield json.dumps(value, allow_nan=False)
        return
    inner = pad + "  "
    comma = ",\n" + inner
    if isinstance(value, dict):
        for n, key in enumerate(sorted(value)):
            yield (comma if n else "{\n" + inner) + json.dumps(key) + ": "
            yield from _pieces(value[key], inner)
        yield "\n" + pad + "}"
        return
    if set(map(type, value)) == {int}:  # type(), as a bool is written true or false
        for at in range(0, len(value), _RUN):
            # the C encoder with comma as its item separator: it prints an
            # exact int as str does, so this is comma.join(map(str, run))
            run = json.dumps(value[at : at + _RUN], separators=(comma, ": "))[1:-1]
            yield (comma if at else "[\n" + inner) + run
    else:
        for n, item in enumerate(value):
            yield comma if n else "[\n" + inner
            yield from _pieces(item, inner)
    yield "\n" + pad + "]"


def dumps(cert: dict) -> str:
    """json.dumps(cert, sort_keys=True, indent=2, allow_nan=False) and a newline,
    written directly: any indent sends json to its pure-Python encoder."""
    return "".join([*_pieces(cert, ""), "\n"])


def loads(text: str) -> dict:
    try:
        cert = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(cert, dict):
        raise ParseError("certificate must be a JSON object")
    kind = cert.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    if not isinstance(cert.get("fingerprint"), str):
        raise ParseError("certificate is missing its system fingerprint")
    if not isinstance(cert.get("payload"), dict):
        raise ParseError("certificate is missing its payload")
    return cert


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-running a certificate's checks, one row per check."""

    passed: bool
    checks: tuple


def _check_tile(payload, sys: MoranSystem, checks):
    p = _tile_payload(payload)
    agg = aggregate(sys, p["k"])
    checks.extend(tile_checks(agg, p["digit_elements"], p["complement_elements"], p["modulus"], p["exponents"]))


def _is_int(value) -> bool:
    return type(value) is int


def _int_list(record, key, where) -> list:
    values = record.get(key)
    # type() rather than isinstance(): a bool is not an element
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ParseError(f"{where}: {key!r} must be a list of integers")
    return values


def _tile_payload(payload) -> dict:
    """The tile payload, after checking every field the replay reads; a
    malformed field is a parse error, not a failed check."""
    for key in ("k", "modulus"):
        if not _is_int(payload.get(key)):
            raise ParseError(f"tile payload: {key!r} must be an integer")
    for key in ("exponents", "digit_elements", "complement_elements"):
        _int_list(payload, key, "tile payload")
    return payload


def _spectrum_levels(payload, N: int) -> list:
    """The payload's level records, after checking every field the replay
    reads, the level numbers, nested breakpoints and stated outcomes; a
    malformed record is a parse error, not a failed check."""
    for key in ("scale_exponent", "denominator"):
        if not _is_int(payload.get(key)):
            raise ParseError(f"spectrum payload: {key!r} must be an integer")
    levels = payload.get("levels")
    if not isinstance(levels, list):
        raise ParseError("spectrum payload: 'levels' must be a list")
    for i, record in enumerate(levels):
        where = f"spectrum level record {i}"
        if not isinstance(record, dict):
            raise ParseError(f"{where}: must be a JSON object")
        if not _is_int(record.get("level")) or record["level"] != i + 1:
            raise ParseError(f"{where}: 'level' must be the integer {i + 1}")
        bps = _int_list(record, "breakpoints", where)
        if not bps or bps[0] != 0 or any(a >= b for a, b in zip(bps, bps[1:])):
            raise ParseError(f"{where}: 'breakpoints' must start at 0 and strictly increase")
        if i and bps[:-1] != levels[i - 1]["breakpoints"]:
            raise ParseError(f"{where}: 'breakpoints' must extend record {i - 1}'s by one entry")
        if record.get("orthogonal") is not True or record.get("complete") is not True:
            raise ParseError(f"{where}: 'orthogonal' and 'complete' must both be true")
        if _over_cap(N, bps[-1], ELEMENT_CAP):
            raise ParseError(f"{where}: level size {N}^{bps[-1]} is over the cap {ELEMENT_CAP}")
        _int_list(record, "elements", where)
        if not isinstance(record.get("denormalized"), list):
            raise ParseError(f"{where}: 'denormalized' must be a list")
        stated = record.get("tail_bound")
        if stated is not None and type(stated) not in (int, float):
            raise ParseError(f"{where}: 'tail_bound' must be a number or null")
    return levels


def _check_spectrum(payload, sys: MoranSystem, checks, params, tol):
    levels = _spectrum_levels(payload, sys.N)
    work, m = normalize(sys)
    checks.append(
        ("scale-exponent", m == payload["scale_exponent"], f"recomputed {m}")
    )
    e, stated_den = payload["scale_exponent"], payload["denominator"]
    # N >= 2, so N^e has more than e bits: an e that is not below the
    # stated denominator's bit length cannot match, and N^e is not formed
    checks.append(("denominator", 0 <= e < stated_den.bit_length() and stated_den == sys.N**e, None))
    den = sys.N**m
    if not levels:
        checks.append(("levels", False, "the certificate lists no level"))
    prev = None
    for record in levels:
        tag = f"level-{record['level']}"
        elements = record["elements"]
        rows, bound = level_checks(work, elements, record["breakpoints"][-1], params, prev)
        prev = elements
        # the stated bound must hold too, not only the epsilon0 floor
        stated = record.get("tail_bound")
        ok = rows[-1][1] and stated is not None and bound >= stated - tol
        rows[-1] = ("tail", ok, None if ok else f"recomputed {bound:.6g} against stated {stated}")
        checks.extend((f"{tag}-{name}", ok, detail) for name, ok, detail in rows)
        scaled = [_scaled_text(e, den) for e in elements]
        checks.append(
            (
                f"{tag}-scaling",
                scaled == list(record["denormalized"]),
                None,
            )
        )


def verify_certificate(
    cert: dict,
    sys: MoranSystem,
    expected_fingerprint: Optional[str] = None,
    params: Optional[SpectrumBuildParams] = None,
    tol: float = 1e-12,
) -> VerificationReport:
    """Independently re-run every check a certificate claims.

    The caller supplies the system parsed from its own configuration;
    when expected_fingerprint is given it must match the certificate
    before anything is recomputed.
    """
    if (
        expected_fingerprint is not None
        and cert["fingerprint"] != expected_fingerprint
    ):
        raise PreconditionError(
            f"certificate fingerprint {cert['fingerprint'][:12]} does not match "
            f"the configured system {expected_fingerprint[:12]}"
        )
    kind = cert["kind"]
    if kind == "verification":
        raise PreconditionError(
            "verification certificates are reports; nothing to re-run"
        )
    checks = []
    if kind == "tile":
        _check_tile(cert["payload"], sys, checks)
    else:
        _check_spectrum(cert["payload"], sys, checks, params, tol)
    return VerificationReport(
        passed=all(ok for _, ok, _ in checks), checks=tuple(checks)
    )
