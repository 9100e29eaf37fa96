"""Independent checks of every operation's output.

Nothing here imports moran: certificates are read with json, tilings are
checked with the benchmark's own chunked numpy exact-cover test, and the
tail transform is recomputed from its defining product. Each check returns
None when the output is right and a one-line message when it is not.
"""

import json
import math
import random

import numpy as np

# Residues compared per chunk in the exact-cover test, so that the check
# stays far below the memory the tile command itself needs.
COVER_CHUNK = 1 << 18
TAIL_FLOOR = 1e-4  # epsilon0, the tail floor every certified level must clear
Q_TOLERANCE = 1e-9
TAIL_SAMPLES = 64
TAIL_TOLERANCE = 1e-9


def analyze_output(rc, out, case):
    if rc != 0:
        return f"exit {rc}, expected 0"
    if f"classification: case {case}," not in out:
        return f"analyze did not classify the system as case {case}"
    return None


def verify_passes(rc, out):
    lines = out.strip().splitlines()
    if rc != 0 or not lines or lines[-1] != "result: PASS":
        return f"exit {rc}, last line {lines[-1] if lines else None!r}"
    return None


def refusal(rc, out, levels):
    if rc != 1:
        return f"exit {rc}, expected the refusal exit 1"
    named = f"levels {levels[0]} and {levels[1]}"
    if named not in out:
        return f"refusal does not name {named}"
    return None


def spectrum_certificate(rc, out, path, N, breakpoints):
    """Breakpoints as expected, N^k elements per level, nested, tails >= floor."""
    if rc != 0:
        return f"exit {rc}, expected 0"
    with open(path, encoding="utf-8") as fh:
        levels = json.load(fh)["payload"]["levels"]
    expected = [breakpoints[: i + 2] for i in range(len(breakpoints) - 1)]
    got = [lv["breakpoints"] for lv in levels]
    if got != expected:
        return f"breakpoints {got}, expected {expected}"
    prev = {0}
    for lv in levels:
        k = lv["breakpoints"][-1]
        elements = set(lv["elements"])
        if len(lv["elements"]) != N**k or len(elements) != N**k:
            return f"level {lv['level']} has {len(elements)} distinct elements, expected {N**k}"
        if not prev <= elements:
            return f"level {lv['level']} does not contain level {lv['level'] - 1}"
        if not lv["tail_bound"] >= TAIL_FLOOR:
            return f"level {lv['level']} tail bound {lv['tail_bound']} below {TAIL_FLOOR}"
        prev = elements
    return None


def exact_cover(D, L, modulus):
    """True when every residue mod modulus is d + l for exactly one pair.

    D and L are int64 residue arrays with |D|·|L| = modulus, so the sums
    cover every residue exactly when they reach every residue at all. They
    are formed a chunk of D at a time, so memory stays at one byte per
    residue plus one chunk.
    """
    if len(D) * len(L) != modulus:
        return False
    hit = np.zeros(modulus, dtype=bool)
    step = max(1, COVER_CHUNK // len(L))
    for i in range(0, len(D), step):
        hit[(D[i : i + step, None] + L[None, :]) % modulus] = True
    return bool(hit.all())


def tile_certificate(rc, out, path, N, k):
    """|D|·|L| = modulus, |D| = N^k, and D + L covers every residue once."""
    if rc != 0:
        return f"exit {rc}, expected 0"
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)["payload"]
    modulus = payload["modulus"]
    D = payload.pop("digit_elements")
    L = payload.pop("complement_elements")
    if payload["k"] != k or len(D) != N**k:
        return f"certificate is for k={payload['k']} with {len(D)} elements"
    if len(D) * len(L) != modulus:
        return f"|D|·|L| = {len(D) * len(L)} but the modulus is {modulus}"
    D = np.fromiter((d % modulus for d in D), dtype=np.int64, count=len(D))
    L = np.fromiter((x % modulus for x in L), dtype=np.int64, count=len(L))
    if not exact_cover(D, L, modulus):
        return "digit set plus complement is not an exact cover of the residues"
    return None


def _read_csv(path, points, grid, columns):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (points, columns):
        return None, f"csv shape {data.shape}, expected {(points, columns)}"
    if not np.allclose(data[:, 0], np.linspace(grid[0], grid[1], points), rtol=0, atol=1e-12):
        return None, "csv x column is not the requested grid"
    return data, None


def q_grid(rc, out, path, grid, points):
    """A built spectrum of the level-k measure makes Q identically 1."""
    if rc != 0:
        return f"exit {rc}, expected 0"
    data, problem = _read_csv(path, points, grid, 2)
    if problem:
        return problem
    worst = float(np.max(np.abs(data[:, 1] - 1.0)))
    if not worst <= Q_TOLERANCE:
        return f"Q deviates from 1 by {worst:.3g}"
    return None


def _tail_modulus(system, k, depth, x):
    """|prod_{n=1..depth} m(t_{k+n} x / (b_{k+1} ... b_{k+n}))| in floats."""
    N, b, t = system["N"], system["b"], system["t"]
    value = 1.0 + 0j
    B = 1
    digits = np.arange(N)
    for n in range(1, depth + 1):
        B *= b[(k + n - 1) % len(b)]
        step = t[(k + n - 1) % len(t)]
        value *= np.exp(2j * math.pi * digits * step * (x / B)).mean()
    return abs(value)


def tail_grid(rc, out, path, grid, points, system, k, depth, seed):
    """Nonnegative errors, and a seeded sample recomputed independently."""
    if rc != 0:
        return f"exit {rc}, expected 0"
    data, problem = _read_csv(path, points, grid, 3)
    if problem:
        return problem
    if not (data[:, 2] >= 0).all():
        return "negative truncation error"
    for i in random.Random(seed).sample(range(points), TAIL_SAMPLES):
        x, got = float(data[i, 0]), float(data[i, 1])
        want = _tail_modulus(system, k, depth, x)
        if not abs(got - want) <= TAIL_TOLERANCE:
            return f"tail modulus at x={x!r} is {got!r}, recomputed {want!r}"
    return None
