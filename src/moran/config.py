"""Configuration files for the command line tools.

One ``key = value`` pair per line; blank lines and ``#`` comments are
skipped. The system keys are ``N``, then ``b.period`` with an optional
``b.preperiod``, or ``b.prefix`` for a finite window, and the same three
under ``t``. Integer lists are space separated and an empty value means
the empty list. Everything else lives under ``option.`` and is parsed
exactly: thresholds stay decimal strings until the consumer chooses a
representation, so no float sneaks into a system definition.
"""

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite

from .errors import DomainError, ParseError
from .spectra import SpectrumBuildParams
from .system import MoranSystem, SequenceSpec


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ParseError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_positive_int(raw, where):
    value = _parse_int(raw, where)
    if value < 1:
        raise ParseError(f"{where}: expected a positive integer, got {value}")
    return value


# The most indices a tail depth or an analyze window may reach: both keep
# every prefix product b_1...b_n up to that index, in memory quadratic in it.
# The offset search radius K shares the cap: a failing search tries 2K+1
# offsets per element.
DEPTH_CAP = 4096


def _parse_depth(raw, where):
    value = _parse_positive_int(raw, where)
    if value > DEPTH_CAP:
        raise ParseError(f"{where}: expected at most {DEPTH_CAP}, got {value}")
    return value


def _parse_int_list(raw: str, where: str) -> list:
    if not raw:
        return []
    return [_parse_int(tok, where) for tok in raw.split()]


def _parse_decimal(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"{where}: expected a decimal number, got {raw!r}") from None


def _parse_finite(raw: str, where: str) -> float:
    value = _parse_decimal(raw, where)
    if not isfinite(value):
        raise ParseError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_tolerance(raw: str, where: str) -> float:
    value = _parse_decimal(raw, where)
    if not (isfinite(value) and value >= 0):
        raise ParseError(f"{where}: expected a finite non-negative number, got {raw!r}")
    return value


def _parse_fraction(raw: str, where: str) -> Fraction:
    """Exact rational from a decimal string or a p/q literal."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: expected an exact rational, got {raw!r}") from None


def _parse_grid(raw: str, where: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParseError(f"{where}: grid must be start:stop:count, got {raw!r}")
    start = _parse_decimal(parts[0], where)
    stop = _parse_decimal(parts[1], where)
    count = _parse_int(parts[2], where)
    if count < 1:
        raise ParseError(f"{where}: grid needs at least one point")
    # a finite span keeps every linspace point finite too
    if not isfinite(stop - start):
        raise ParseError(f"{where}: grid endpoints and their span must be finite, got {raw!r}")
    if not stop > start:
        raise ParseError(f"{where}: grid stop must exceed start")
    return (start, stop, count)


_OPTION_PARSERS = {
    "depth": _parse_depth,
    "K": _parse_depth,
    "window": _parse_depth,
    "C": _parse_finite,
    "epsilon0": _parse_finite,
    "sigma0": _parse_fraction,
    "grid": _parse_grid,
}

_BUILD_PARAM_KEYS = ("C", "K", "sigma0", "epsilon0", "depth")


@dataclass(frozen=True)
class SystemConfig:
    """A parsed configuration: the system definition plus typed options."""

    N: int
    b: SequenceSpec
    t: SequenceSpec
    options: dict = field(default_factory=dict)
    source: str = "<config>"

    def system(self) -> MoranSystem:
        return MoranSystem(self.N, self.b, self.t)

    def fingerprint(self) -> str:
        return fingerprint(self.N, self.b, self.t)

    def build_params(self, **overrides) -> SpectrumBuildParams:
        """Spectrum search settings from options, flag overrides winning."""
        kwargs = {k: self.options[k] for k in _BUILD_PARAM_KEYS if k in self.options}
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return SpectrumBuildParams(**kwargs)


def _take_sequence(pairs, name, source) -> SequenceSpec:
    pre = pairs.pop(f"{name}.preperiod", None)
    per = pairs.pop(f"{name}.period", None)
    fix = pairs.pop(f"{name}.prefix", None)
    if fix is not None and (pre is not None or per is not None):
        ln = fix[0]
        raise ParseError(
            f"{source}:{ln}: {name}.prefix excludes {name}.preperiod/{name}.period"
        )
    if fix is not None:
        entries = _parse_int_list(fix[1], f"{source}:{fix[0]}: {name}.prefix")
        try:
            return SequenceSpec.prefix(entries)
        except DomainError as exc:
            raise ParseError(f"{source}:{fix[0]}: {name}.prefix: {exc}") from exc
    if per is None:
        raise ParseError(f"{source}: missing {name}.period or {name}.prefix")
    period = _parse_int_list(per[1], f"{source}:{per[0]}: {name}.period")
    preperiod = (
        _parse_int_list(pre[1], f"{source}:{pre[0]}: {name}.preperiod") if pre else []
    )
    try:
        return SequenceSpec.periodic(period, preperiod)
    except DomainError as exc:
        raise ParseError(f"{source}:{per[0]}: {name}.period: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> SystemConfig:
    pairs = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ParseError(f"{source}:{ln}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in pairs:
            raise ParseError(
                f"{source}:{ln}: duplicate key {key!r} (first on line {pairs[key][0]})"
            )
        pairs[key] = (ln, value.strip())

    if "N" not in pairs:
        raise ParseError(f"{source}: missing key N")
    ln, raw_n = pairs.pop("N")
    N = _parse_int(raw_n, f"{source}:{ln}: N")
    b = _take_sequence(pairs, "b", source)
    t = _take_sequence(pairs, "t", source)

    options = {}
    for key, (ln, raw_value) in pairs.items():
        if not key.startswith("option."):
            raise ParseError(f"{source}:{ln}: unknown key {key!r}")
        name = key[len("option.") :]
        parser = _OPTION_PARSERS.get(name)
        if parser is None:
            known = ", ".join(sorted(_OPTION_PARSERS))
            raise ParseError(
                f"{source}:{ln}: unknown option {name!r} (known: {known})"
            )
        options[name] = parser(raw_value, f"{source}:{ln}: option.{name}")

    try:
        MoranSystem(N, b, t)
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    return SystemConfig(N=N, b=b, t=t, options=options, source=source)


def load_config(path) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _sequence_text(spec: SequenceSpec) -> str:
    if spec.is_periodic:
        pre = ",".join(str(a) for a in spec.preperiod)
        per = ",".join(str(a) for a in spec.period)
        return f"preperiod:{pre};period:{per}"
    return "prefix:" + ",".join(str(a) for a in spec.preperiod)


def canonical_system_text(N: int, b: SequenceSpec, t: SequenceSpec) -> str:
    """Stable one-line-per-field rendering of a system definition."""
    return f"N={N}\nb={_sequence_text(b)}\nt={_sequence_text(t)}\n"


def fingerprint(N: int, b: SequenceSpec, t: SequenceSpec) -> str:
    """Hex digest naming the system; options never contribute."""
    text = canonical_system_text(N, b, t)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
