"""Command line interface.

Subcommands: analyze (structure report), tile (tiling certificate),
spectrum (nested spectrum certificate), verify (re-run a certificate's
checks), plot-data (CSV streams for plotting).

Exit codes: 0 success or PASS, 1 mathematical refusal (a predicate that
is genuinely false), 2 resource or horizon limit, 3 usage or parse
problem.
"""

import argparse
import sys as _stdsys

import numpy as np

from . import __version__
from .certificates import (
    dumps,
    loads,
    spectrum_certificate,
    tile_certificate,
    verification_certificate,
    verify_certificate,
)
from .config import _parse_depth, _parse_grid, _parse_tolerance, load_config
from .errors import (
    DomainError,
    HorizonError,
    MoranError,
    ParseError,
    PreconditionError,
    ResourceError,
    UnsupportedCaseError,
)
from .fourier import TailKernel, mu_hat_shifted_grid
from .spectra import SpectrumBuildParams, build_spectrum, q_sum
from .system import (
    CaseI,
    CaseII,
    Collision,
    Converges,
    Satisfied,
    SequenceSpec,
    case_classify,
    default_window,
    distinctness_check,
    existence_check,
    normalize,
    s_value,
    spectral_hypothesis_check,
)
from .tiling import aggregate, build_complement, tile_checks

EXIT_OK = 0
EXIT_REFUSAL = 1
EXIT_LIMIT = 2
EXIT_USAGE = 3

_DEFAULT_GRID = (0.0, 1.0, 256)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main owns exit codes."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _emit(text: str, out, what: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{what} written to {out}")
    else:
        _stdsys.stdout.write(text)


def _sequence_report(spec: SequenceSpec) -> str:
    if spec.is_periodic:
        if spec.preperiod:
            return f"preperiod {list(spec.preperiod)} then period {list(spec.period)}"
        return f"period {list(spec.period)}"
    return f"prefix {list(spec.preperiod)} (finite horizon)"


def _grid_points(grid) -> np.ndarray:
    start, stop, count = grid
    return np.linspace(start, stop, count)


# -- analyze ---------------------------------------------------------------


def cmd_analyze(cfg, args) -> int:
    system = cfg.system()
    window = args.window or cfg.options.get("window") or default_window(system)
    # a prefix system has no exponent past its horizon
    if system.horizon is not None:
        window = min(window, system.horizon)
    print(f"config: {cfg.source}")
    print(f"fingerprint: {cfg.fingerprint()}")
    print(
        f"system: N = {cfg.N}, scales {_sequence_report(cfg.b)}, "
        f"digits {_sequence_report(cfg.t)}"
    )
    svals = ", ".join(str(s_value(system, k)) for k in range(1, window + 1))
    print(f"level exponents (k = 1..{window}): {svals}")

    check = distinctness_check(system, window)
    if isinstance(check, Collision):
        print(
            f"distinctness: collision, s_{check.i} = s_{check.j} = "
            f"{s_value(system, check.i)}"
        )
        print("classification: not applicable while exponents collide")
    else:
        scope = "all k" if check.window is None else f"window {check.window} only"
        print(f"distinctness: pairwise distinct ({scope})")
        case = case_classify(system, window, check)
        if isinstance(case, CaseI):
            bps = ", ".join(str(k) for k in case.breakpoints)
            print(
                "classification: case I, dominance breakpoints recur every "
                f"{case.period}; within window {case.window}: {bps}"
            )
        elif isinstance(case, CaseII):
            print(
                f"classification: case II, no dominance breakpoint from index "
                f"{case.k0} on (window {case.window})"
            )
        else:
            print(f"classification: undetermined; {case.reason}")

    try:
        _, m = normalize(system)
        print(f"normalization: m = {m} (first scale entry absorbs {cfg.N}^{m})")
    except UnsupportedCaseError as exc:
        print(f"normalization: not applicable; {exc}")

    depth = cfg.options.get("depth", SpectrumBuildParams.depth)
    # a prefix system's series is summed no further than its horizon
    if system.horizon is not None:
        depth = min(depth, system.horizon)
    verdict = existence_check(system, depth)
    if isinstance(verdict, Converges):
        print(
            f"existence: series converges; partial sum {float(verdict.partial_sum):.6g}"
            f" with tail at most {float(verdict.tail_bound):.6g} (depth {verdict.depth})"
        )
    else:
        print(f"existence: undecided at depth {verdict.depth}")

    hyp = spectral_hypothesis_check(system)
    if isinstance(hyp, Satisfied):
        scope = "" if hyp.certified else " (window only, uncertified)"
        print(f"hypothesis: |b_k| > (N-1)|t_k| from index {hyp.m0} on{scope}")
    else:
        print(
            f"hypothesis: violated at index {hyp.k}: "
            f"|b_{hyp.k}| <= ({cfg.N}-1)|t_{hyp.k}|"
        )
    return EXIT_OK


# -- tile ------------------------------------------------------------------


def cmd_tile(cfg, args) -> int:
    if args.k < 1:
        print("tile needs --k at least 1", file=_stdsys.stderr)
        return EXIT_USAGE
    system = cfg.system()
    fp = cfg.fingerprint()
    print(f"fingerprint: {fp}")
    pair = system.skeleton.first_repeat(args.k)
    if pair is not None:
        i, j = pair
        print(
            f"tiling at level {args.k}: fails; levels {i} and {j} "
            f"share exponent s = {system.skeleton.s(j)}, so the level-{args.k} expansion "
            "is not an integer tile"
        )
        return EXIT_REFUSAL
    agg = aggregate(system, args.k)
    cert = tile_certificate(fp, agg, build_complement(system, args.k))
    p = cert["payload"]
    rows = tile_checks(agg, p["digit_elements"], p["complement_elements"], p["modulus"], p["exponents"])
    failed = [name for name, ok, _ in rows if not ok]
    if failed:
        raise MoranError(f"built tile fails its checks ({', '.join(failed)}); refusing to emit")
    print(
        f"tiling at level {args.k}: direct expansion with {len(agg.elements)} "
        f"elements, modulus {agg.modulus}"
    )
    print(
        f"complement: {len(p['complement_elements'])} elements; verified to tile all "
        f"residues at that modulus"
    )
    if args.out:
        _emit(dumps(cert), args.out, "certificate")
    return EXIT_OK


# -- spectrum --------------------------------------------------------------


def cmd_spectrum(cfg, args) -> int:
    if args.levels < 1:
        print("spectrum needs --levels at least 1", file=_stdsys.stderr)
        return EXIT_USAGE
    system = cfg.system()
    fp = cfg.fingerprint()
    print(f"fingerprint: {fp}")
    params = cfg.build_params(depth=args.depth)
    levels = build_spectrum(system, args.levels, params)
    m = levels[0].scale_exponent
    print(
        f"scale exponent m = {m}: certified elements divide by {cfg.N}^{m} "
        "to spell the spectrum of the input measure"
    )
    for lv in levels:
        print(
            f"level {lv.level}: endpoints {lv.breakpoints}, "
            f"{len(lv.elements)} elements, tail lower bound "
            f"{lv.tail_bound:.6g}, exact checks pass"
        )
    if args.out:
        cert = spectrum_certificate(fp, cfg.N, levels)
        _emit(dumps(cert), args.out, "certificate")
    return EXIT_OK


# -- verify ----------------------------------------------------------------


def cmd_verify(cfg, args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = loads(fh.read())
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=_stdsys.stderr)
        return EXIT_USAGE
    system = cfg.system()
    fp = cfg.fingerprint()
    params = cfg.build_params(depth=args.depth)
    try:
        report = verify_certificate(
            cert, system, expected_fingerprint=fp, params=params, tol=args.tol
        )
    except PreconditionError as exc:
        print(f"error: {exc}", file=_stdsys.stderr)
        return EXIT_USAGE
    print(f"certificate kind: {cert['kind']}")
    for name, ok, detail in report.checks:
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        _emit(
            dumps(verification_certificate(fp, cert["kind"], report)),
            args.out,
            "verification record",
        )
    return EXIT_OK if report.passed else EXIT_REFUSAL


# -- plot-data -------------------------------------------------------------


def _csv(header: str, *columns) -> str:
    """One row per index of the equal-length float columns, each value
    as %.17g: Python floats from tolist(), one format per row."""
    row = ",".join(["%.17g"] * len(columns))
    lines = [row % values for values in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]
    return "\n".join([header, *lines]) + "\n"


def cmd_plot_data(cfg, args) -> int:
    system = cfg.system()
    grid = args.grid or cfg.options.get("grid") or _DEFAULT_GRID
    xs = _grid_points(grid)
    depth = args.depth or cfg.options.get("depth", SpectrumBuildParams.depth)
    if args.what == "mu_hat":
        values = np.abs(mu_hat_shifted_grid(system, args.k, xs, 0))
        text = _csv("x,value", xs, values)
    elif args.what == "nu_tail":
        values, errs = TailKernel(system, args.k, depth).grid(xs)
        text = _csv("x,value,err", xs, np.hypot(values.real, values.imag), errs)
    else:
        params = cfg.build_params(depth=args.depth)
        levels = build_spectrum(system, args.levels, params)
        final = levels[-1]
        work, _ = normalize(system)
        total = q_sum(work, final.elements, final.breakpoints[-1], xs)
        text = _csv("x,value", xs, total)
    _emit(text, args.out, "plot data")
    return EXIT_OK


# -- entry point -----------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="moran",
        description="Workbench for infinite-convolution measures with "
        "equidifferent digit sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structure report for a system")
    p.add_argument("config")
    p.add_argument("--window")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("tile", help="decide the level-k tiling and certify it")
    p.add_argument("config")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_tile)

    p = sub.add_parser("spectrum", help="build and verify nested spectrum levels")
    p.add_argument("config")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--depth")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("verify", help="re-run the checks a certificate claims")
    p.add_argument("config")
    p.add_argument("certificate")
    p.add_argument("--depth")
    p.add_argument("--tol", default="1e-12")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("plot-data", help="CSV stream of transform data")
    p.add_argument("config")
    p.add_argument("--what", choices=("mu_hat", "Q", "nu_tail"), required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--grid")
    p.add_argument("--depth")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # flags follow the rules of the options they override
        for flag, parse in (
            ("grid", _parse_grid),
            ("window", _parse_depth),
            ("depth", _parse_depth),
            ("tol", _parse_tolerance),
        ):
            if getattr(args, flag, None) is not None:
                setattr(args, flag, parse(getattr(args, flag), f"--{flag}"))
        cfg = load_config(args.config)
        return args.handler(cfg, args)
    except ParseError as exc:
        print(f"error: {exc}", file=_stdsys.stderr)
        return EXIT_USAGE
    except UnsupportedCaseError as exc:
        print(f"refusal: {exc}", file=_stdsys.stderr)
        return EXIT_REFUSAL
    except (HorizonError, ResourceError) as exc:
        print(f"limit: {exc}", file=_stdsys.stderr)
        return EXIT_LIMIT
    except PreconditionError as exc:
        print(f"refusal: {exc}", file=_stdsys.stderr)
        return EXIT_REFUSAL
    except DomainError as exc:
        print(f"error: {exc}", file=_stdsys.stderr)
        return EXIT_USAGE
    except MoranError as exc:
        print(f"failed: {exc}", file=_stdsys.stderr)
        return EXIT_REFUSAL


if __name__ == "__main__":
    raise SystemExit(main())
