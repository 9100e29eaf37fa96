"""The benchmark's workloads: which CLI operations run, in what order, and why.

Every workload is a closed loop over the same operations: each one starts
when the previous one returns. The systems are fixed, because they are the
ROADMAP corpus. The levels are fixed too, one or two below the corpus's
largest (k=8 rather than k=10 for the spectra): a run then holds a dozen
or more passes, and a median over them is steady on a shared host where a
single k=10 build is not. The seed only chooses where the plot-data grid
starts (its width and point count stay fixed) and the order in which
tile-deep visits its systems.
"""

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks

# One config per system. The names are the benchmark's own; the values are
# the ROADMAP corpus.
SYSTEMS = {
    # Case I: dominance breakpoints every 2. Acceptance criterion 4; also
    # the 2-element-complement tile at k=18.
    "alternating": {"N": 2, "b": [18], "t": [1, 4]},
    # Case II: no dominance breakpoint, so blocks anchor past their end.
    # Acceptance criterion 5.
    "wide": {"N": 2, "b": [18], "t": [1, 16]},
    # Tiles at every level with a large complement: 1,024 elements at k=11.
    "quarter": {"N": 2, "b": [4], "t": [1]},
    # The only N=3 system: 1.6 M residues in the exact-cover loop at k=7.
    "ternary": {"N": 3, "b": [9], "t": [1, 4]},
    # Levels 1 and 2 share an exponent, so every tile request is refused.
    "colliding": {"N": 2, "b": [2], "t": [1, 2]},
}

GRID_POINTS = 2_000
GRID_WIDTH = 1.0
TAIL_DEPTH = 16  # plot-data's default truncation depth

# Deliberately left out: `tile` on "ternary" at --k 12. Its verify_tiling
# allocates bytearray(3**23), about 94 GB, and the MemoryError surfaces as a
# traceback rather than exit 2. Running it would exhaust a shared machine;
# the fix belongs to ROADMAP item 1 (resource caps), not to the benchmark.


def config_text(name: str) -> str:
    spec = SYSTEMS[name]
    return (
        f"N = {spec['N']}\n"
        f"b.period = {' '.join(map(str, spec['b']))}\n"
        f"t.period = {' '.join(map(str, spec['t']))}\n"
    )


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the role its time counts toward, and its check.

    ``role`` is "certify" for spectrum and tile, "replay" for verify,
    "plot" for plot-data and "inspect" for analyze. ``check`` takes the
    finished call (exit code, stdout) and returns None or a failure
    message; it runs after all timing is done. ``certificate`` names the
    file whose SHA-256 is recorded.
    """

    label: str
    argv: tuple
    role: str
    why: str
    check: object
    certificate: str = None


@dataclass(frozen=True)
class Workload:
    why: str
    systems: tuple
    warmup: tuple  # argv of the untimed operation that ends set-up
    ops: tuple


def _conf(work: Path, name: str) -> str:
    return str(work / f"{name}.conf")


def _grid(seed: int):
    start = random.Random(seed).randrange(-4000, 4000) / 1000
    return start, start + GRID_WIDTH


def _grid_arg(grid) -> str:
    return f"{grid[0]:.3f}:{grid[1]:.3f}:{GRID_POINTS}"


def _spectrum_ops(work, out, system, levels, breakpoints, case):
    conf = _conf(work, system)
    cert = str(out / f"spectrum-{system}.json")
    spec = SYSTEMS[system]
    return [
        Op(
            f"analyze {system}",
            ("analyze", conf),
            "inspect",
            "the structure report a user reads first; classification only",
            partial(checks.analyze_output, case=case),
        ),
        Op(
            f"spectrum {system}",
            ("spectrum", conf, "--levels", str(levels), "--out", cert),
            "certify",
            f"builds and certifies {len(breakpoints) - 1} nested levels up to "
            f"k={breakpoints[-1]}; orthogonality dominates",
            partial(
                checks.spectrum_certificate,
                path=cert,
                N=spec["N"],
                breakpoints=breakpoints,
            ),
            certificate=cert,
        ),
        Op(
            f"verify {system}",
            ("verify", conf, cert),
            "replay",
            "a skeptic replays the certificate the build just wrote",
            checks.verify_passes,
        ),
    ]


def spectrum_recurrent(work: Path, out: Path, seed: int) -> Workload:
    grid = _grid(seed)
    conf = _conf(work, "alternating")
    q_csv = str(out / "q.csv")
    tail_csv = str(out / "nu_tail.csv")
    ops = _spectrum_ops(work, out, "alternating", 4, [0, 2, 4, 6, 8], "I")
    ops += [
        Op(
            "plot-data Q",
            ("plot-data", conf, "--what", "Q", "--levels", "3",
             f"--grid={_grid_arg(grid)}", "--out", q_csv),
            "plot",
            "completeness diagnostic: a level-3 build plus the shifted-grid "
            "transform kernel over 64 elements",
            partial(checks.q_grid, path=q_csv, grid=grid, points=GRID_POINTS),
        ),
        Op(
            "plot-data nu_tail",
            ("plot-data", conf, "--what", "nu_tail", "--k", "8",
             f"--grid={_grid_arg(grid)}", "--out", tail_csv),
            "plot",
            "the certified tail transform point by point, 2,000 calls",
            partial(
                checks.tail_grid,
                path=tail_csv,
                grid=grid,
                points=GRID_POINTS,
                system=SYSTEMS["alternating"],
                k=8,
                depth=TAIL_DEPTH,
                seed=seed,
            ),
        ),
    ]
    return Workload(
        "case I with breakpoints every 2 (criterion 4); the only workload "
        "that uses the grid transform kernels",
        ("alternating",),
        ("spectrum", conf, "--levels", "1", "--out", str(out / "warmup.json")),
        tuple(ops),
    )


def spectrum_persistent(work: Path, out: Path, seed: int) -> Workload:
    conf = _conf(work, "wide")
    # Case II: a base level plus 2 extensions, top level k=7.
    ops = _spectrum_ops(work, out, "wide", 2, [0, 1, 4, 7], "II")
    return Workload(
        "case II (criterion 5): omega_split, anchors past the block end and "
        "extension_factor_floor; 850 distinct differences in 8,128 pairs at "
        "the top level, against 1,200 in 32,640 for the recurrent system",
        ("wide",),
        ("spectrum", conf, "--levels", "1", "--out", str(out / "warmup.json")),
        tuple(ops),
    )


_TILES = (
    ("alternating", 18, "262,144 elements and a 7.5 MB certificate: "
     "expansion and certificate emission dominate"),
    ("quarter", 11, "a 1,024-element complement: the exact-cover loop runs "
     "over 2.1 M residues"),
    ("ternary", 7, "the only N=3 case: the exact-cover loop runs over "
     "1.6 M residues"),
)


def tile_deep(work: Path, out: Path, seed: int) -> Workload:
    groups = []
    for system, k, why in _TILES:
        conf = _conf(work, system)
        cert = str(out / f"tile-{system}.json")
        groups.append([
            Op(
                f"tile {system} k={k}",
                ("tile", conf, "--k", str(k), "--out", cert),
                "certify",
                why,
                partial(
                    checks.tile_certificate,
                    path=cert,
                    N=SYSTEMS[system]["N"],
                    k=k,
                ),
                certificate=cert,
            ),
            Op(
                f"verify {system} k={k}",
                ("verify", conf, cert),
                "replay",
                "reads the certificate the tile step wrote, so a gain in "
                "writing that costs reading shows",
                checks.verify_passes,
            ),
        ])
    groups.append([
        Op(
            "tile colliding k=20",
            ("tile", _conf(work, "colliding"), "--k", "20"),
            "certify",
            "a refusal must stay cheap and name its witness levels",
            partial(checks.refusal, levels=(1, 2)),
        ),
    ])
    random.Random(seed).shuffle(groups)
    return Workload(
        "tiling only, no spectrum layer: the control for spectra and "
        "fourier work, as the spectrum workloads are for tiling work",
        ("alternating", "quarter", "ternary", "colliding"),
        ("tile", _conf(work, "alternating"), "--k", "12",
         "--out", str(out / "warmup.json")),
        tuple(op for group in groups for op in group),
    )


WORKLOADS = {
    "spectrum-recurrent": spectrum_recurrent,
    "spectrum-persistent": spectrum_persistent,
    "tile-deep": tile_deep,
}
